"""One pass of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME \
        --master-seed N --trace 0|1 --spawned T --out-dir DIR [--accuracy]

`run.py` starts this process with the BLAS thread count pinned in its
environment and passes the CLOCK_MONOTONIC reading taken just before the
spawn, so set-up time includes interpreter start and the fedsim import. The
pass runs every scenario of the workload at one fedsim master seed, checks
each one, and prints one JSON line.

Besides the scenario timings the pass samples reference kernels
(reference.py) at every iteration boundary, outside the timed intervals:
the `sgd` kernel, which set-up is scaled by, and the workload's own kernel,
which the iterations are scaled by. `run.py` uses them to factor the host's
momentary speed out of the end-to-end times.

With --accuracy the pass runs the workload's scenarios at the accuracy pass
length of workloads.py and samples no kernel, so its peak memory is
fedsim's own plus the interpreter's.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _uses(cfg, mode):
    return cfg.protocol != "il" and mode in (cfg.uplink_mode,
                                             cfg.downlink_mode)


def _label(cfg):
    return (f"{cfg.protocol}/{cfg.uplink_mode}/{cfg.downlink_mode}"
            f"/T{cfg.channel_uses}")


def _environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _check(cfg, records, audit):
    """Problems with one scenario's outcome; empty when it passes."""
    problems = []
    if len(records) != cfg.global_iterations * (cfg.num_devices + 1):
        problems.append(f"{len(records)} metrics records")
    if not all(0.0 <= r.test_accuracy <= 1.0 for r in records):
        problems.append("accuracy outside [0, 1]")
    if audit.violations:
        problems.append(f"{audit.violations} audit violations")
    if _uses(cfg, "analog") and audit.power_checks == 0:
        problems.append("analog link ran without a power check")
    if _uses(cfg, "digital") and audit.budget_checks == 0:
        problems.append("digital link ran without a budget check")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--accuracy", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np
    import fedsim
    from fedsim import audit, orchestrator
    imported = time.monotonic()
    if Path(fedsim.__file__).resolve().parent.parent != SRC:
        sys.exit(f"fedsim imported from {fedsim.__file__}, not from {SRC}")

    import reference as kernels
    from workloads import ACCURACY_ITERATIONS, WORKLOADS, scenario_configs

    kinds = set() if args.accuracy else {
        "sgd", WORKLOADS[args.workload]["reference"]}
    references = {kind: kernels.make(kind, np) for kind in sorted(kinds)}
    refs = {kind: [] for kind in references}

    def sample():
        for kind, kernel in references.items():
            refs[kind].append(kernel())

    sample()
    starts, ends = [], []   # iteration intervals of the running scenario

    def boundary():
        """Close the running iteration, sample the kernels, open the next."""
        ends.append(time.perf_counter())
        sample()
        starts.append(time.perf_counter())

    # Set-up ends where _Run construction ends; iteration i runs from there
    # (i = 1) or from the start of step i, until the next step starts.
    class ClockedRun(orchestrator._Run):
        def __init__(self, config):
            super().__init__(config)
            boundary()

        def step(self, iteration):
            if iteration > 1:
                boundary()
            return super().step(iteration)

    orchestrator._Run = ClockedRun

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    scenarios = []
    audit_totals = {"power_checks": 0, "budget_checks": 0, "violations": 0}
    projection_mb = 0.0
    iterations = ACCURACY_ITERATIONS if args.accuracy else None
    for index, cfg in enumerate(scenario_configs(args.workload,
                                                 args.master_seed,
                                                 iterations)):
        result = {"label": _label(cfg)}
        scenarios.append(result)
        audit.reset()
        starts.clear()
        ends.clear()
        if tracer is not None:
            tracer.projections.clear()
        start = time.perf_counter()
        try:
            records = orchestrator.run_experiment(cfg)
        except Exception as exc:  # a failed scenario is counted, not fatal
            result["problems"] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        boundary()
        result.update(setup_s=ends[0] - start,
                      iter_s=[b - a for a, b in zip(starts, ends[1:])])

        path = args.out_dir / f"{os.getpid()}-{index}.csv"
        orchestrator.write_metrics(records, path)
        result["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()

        result["final_accuracy"] = records[-(cfg.num_devices + 1)].test_accuracy
        result["problems"] = _check(cfg, records, audit)
        for key in audit_totals:
            audit_totals[key] += getattr(audit, key)
        if tracer is not None:
            projection_mb = max(projection_mb, sum(
                rows * cols * 8 for rows, cols, _ in tracer.projections) / 1e6)

    # Set-up plus iterations: the reference samples are left out. The spans
    # lie inside this time, never inside a sample.
    wall_s = sum(s["setup_s"] + sum(s["iter_s"])
                 for s in scenarios if "iter_s" in s)
    out = {
        "iterations": cfg.global_iterations,
        "imported_s": imported - args.spawned,
        "wall_s": wall_s,
        "ref_s": refs,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "scenarios": scenarios,
        "env": _environment(np),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s)
        layers.update({f"audit.{k}": v for k, v in audit_totals.items()})
        layers.update({"analog_link.projection_mb": projection_mb,
                       "wall_s": wall_s})
        out["layers"] = layers
    print(json.dumps(out))


if __name__ == "__main__":
    main()
