"""fedsim benchmark: simulated-iteration throughput on scenario workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; NAME is a workload of workloads.py or `all`.
Each pass of the workload runs in a fresh interpreter (worker.py) with the
BLAS thread count pinned. Passes repeat, cycling through the fedsim master
seeds that --seed expands into, until --seconds are used up; every master
seed runs at least once.

--trace 0 reports the end-to-end metrics. Times come from the passes above.
Accuracy and peak memory come from one more, untimed pass per fixed master
seed of workloads.ACCURACY_SEEDS, at workloads.ACCURACY_ITERATIONS.
--trace 1 alternates an untraced and a traced pass at the same master seed
and reports the per-layer metrics of the traced passes, medians over pairs.

Every scenario of every pass is checked: it must not raise, its audit must
count no violation and at least one power (analog) or budget (digital)
check, its accuracies must lie in [0, 1], and its metrics CSV must be
byte-identical to that of every other pass at the same master seed and
iteration count, traced or not. A scenario that misses any check counts as
failed. The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import NOMINAL_S
from workloads import ACCURACY_SEEDS, WORKLOADS, master_seed

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"

# One BLAS thread: the plain single-threaded baseline, and the steadier one.
BLAS_THREADS = 1
MIN_TRACED_PAIRS = 2
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def git_revision():
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_pass(workload, fedsim_seed, trace, out_dir, accuracy=False):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--master-seed", str(fedsim_seed), "--trace", str(trace),
         "--spawned", repr(spawned), "--out-dir", str(out_dir)]
        + ["--accuracy"] * accuracy,
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(workload=workload, seed=fedsim_seed)
    return result


def collect(workload, seed, seconds, trace, out_dir):
    """Passes (trace 0) or (untraced, traced) pairs (trace 1) for a run."""
    deadline = time.monotonic() + seconds
    minimum = MIN_TRACED_PAIRS if trace else WORKLOADS[workload]["seeds"]
    groups, longest = [], 0.0
    while len(groups) < minimum or time.monotonic() + longest <= deadline:
        start = time.monotonic()
        fedsim_seed = master_seed(workload, seed, len(groups))
        group = [run_pass(workload, fedsim_seed, 0, out_dir)]
        if trace:
            group.append(run_pass(workload, fedsim_seed, 1, out_dir))
        groups.append(group)
        longest = max(longest, time.monotonic() - start)
    return groups


def check(passes):
    """(attempted, failed, problems): every scenario run, every check."""
    reference = {}
    attempted, failed, problems = 0, 0, []
    for p in passes:
        for s in p["scenarios"]:
            attempted += 1
            issues = list(s["problems"])
            if "sha256" in s:
                key = (p["seed"], p["iterations"], s["label"])
                expected = reference.setdefault(key, s["sha256"])
                if s["sha256"] != expected:
                    issues.append("metrics CSV differs from an earlier pass "
                                  "at the same seed and length")
            if issues:
                failed += 1
                problems.append(f"seed {p['seed']} {s['label']}: "
                                + "; ".join(issues))
    return attempted, failed, problems


def host_scale(p, kind=None):
    """How much slower than nominal the host ran during pass p, as read by
    reference kernel `kind` (default: the workload's own)."""
    kind = kind or WORKLOADS[p["workload"]]["reference"]
    return statistics.median(p["ref_s"][kind]) / NOMINAL_S[kind]


def reference_ms(passes):
    """Median time of the workload's reference kernel over the passes."""
    kind = WORKLOADS[passes[0]["workload"]]["reference"]
    return 1000.0 * statistics.median(x for p in passes
                                      for x in p["ref_s"][kind])


def raw_iters_per_s(p):
    done = [s["iter_s"] for s in p["scenarios"] if "iter_s" in s]
    return sum(map(len, done)) / sum(map(sum, done))


def raw_setup_s(p):
    return p["imported_s"] + sum(s.get("setup_s", 0.0)
                                 for s in p["scenarios"])


def end_to_end(passes, accuracy_passes):
    final = [s["final_accuracy"] for p in accuracy_passes
             for s in p["scenarios"] if "final_accuracy" in s]
    # Means over passes: once scaled, the pass figures lose the host's heavy
    # tail, and their mean spread less between runs than their median did.
    return {
        "iters_per_s": statistics.fmean(raw_iters_per_s(p) * host_scale(p)
                                        for p in passes),
        # Set-up is interpreter start and imports: Python-bound everywhere.
        "setup_s": statistics.fmean(raw_setup_s(p) / host_scale(p, "sgd")
                                    for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                         for p in accuracy_passes),
        "final_accuracy": statistics.fmean(final),
    }


def per_layer(pairs):
    traced = [pair[1] for pair in pairs]
    values = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    values["host.reference_ms"] = reference_ms(traced)
    # Each wall is scaled by its own pass's host speed before comparing.
    values["trace_overhead"] = statistics.median(
        (t["wall_s"] / host_scale(t)) / (u["wall_s"] / host_scale(u)) - 1.0
        for u, t in pairs)
    return values


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace, out_dir):
    groups = collect(workload, seed, seconds, trace, out_dir)
    passes = [p for group in groups for p in group]
    accuracy_passes = [] if trace else [
        run_pass(workload, s, 0, out_dir, accuracy=True)
        for s in ACCURACY_SEEDS]
    attempted, failed, problems = check(passes + accuracy_passes)
    values = (per_layer(groups) if trace
              else end_to_end(passes, accuracy_passes))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(trace)}
    print(f"# {workload}: {len(passes)} passes at seeds "
          f"{sorted({p['seed'] for p in passes})}")
    for problem in problems:
        print(f"#   FAILED {problem}")
    for name, m in metrics.items():
        print(f"#   {name:38s} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"#   {'(host seconds) iters_per_s':38s} "
              f"{statistics.fmean(map(raw_iters_per_s, passes)):>14.6g} 1/s")
        for kind in sorted(passes[0]["ref_s"]):
            scaled = statistics.fmean(raw_iters_per_s(p) * host_scale(p, kind)
                                      for p in passes)
            print(f"#   {f'(scaled by {kind}) iters_per_s':38s} "
                  f"{scaled:>14.6g} 1/s")
        print(f"#   {'(host seconds) setup_s':38s} "
              f"{statistics.fmean(map(raw_setup_s, passes)):>14.6g} s")
        print(f"#   {'reference kernel':38s} "
              f"{reference_ms(passes):>14.6g} ms")
    print(f"#   {'error_rate':38s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} scenario runs failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, passes[0]["env"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
        print(f"no fedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        results = {}
        for name in names:
            results[name], env = run_workload(name, args.seed, args.seconds,
                                              args.trace, Path(out_dir))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    env.update(seed=args.seed, nproc=os.cpu_count(),
               git_revision=git_revision())
    print("# env " + json.dumps(env, sort_keys=True))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
