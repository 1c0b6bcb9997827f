"""Scratch harness for picking the desk-scale acceptance configuration.

Not part of the package; runs the criterion-8/9/10 orderings for the
acceptance configuration, `ACCEPTANCE` of `perfbench/workloads.py`, and
prints the margins. Run it from the repository root with the package on the
path:

    PYTHONPATH=src python3 tune_acceptance.py
"""

import time

import numpy as np

from fedsim.orchestrator import ExperimentConfig, run_experiment
from perfbench.workloads import ACCEPTANCE

COMBOS = [("digital", "digital"), ("digital", "analog"),
          ("analog", "digital"), ("analog", "analog")]


def final_avg_accuracy(config):
    records = run_experiment(config)
    return [r for r in records if r.device_scope == "avg"][-1].test_accuracy


def build(protocol, up, down, T, seed):
    return ExperimentConfig(
        protocol=protocol, uplink_mode=up, downlink_mode=down,
        channel_uses=T, global_iterations=10, master_seed=seed, **ACCEPTANCE)


def sweep_T100(seeds):
    t0 = time.time()
    acc = {}
    for seed in seeds:
        acc[("il", "-", seed)] = final_avg_accuracy(
            build("il", "digital", "digital", 100, seed))
    for protocol in ("fl", "fd", "hfd"):
        for up, down in COMBOS:
            for seed in seeds:
                acc[(protocol, up[0] + down[0], seed)] = final_avg_accuracy(
                    build(protocol, up, down, 100, seed))
    print(f"[T=100 sweep took {time.time()-t0:.0f}s]")
    return acc


def report(acc, seeds):
    def mean(protocol, combo):
        return float(np.mean([acc[(protocol, combo, s)] for s in seeds]))

    il = mean("il", "-")
    print(f"IL: {il:.3f}")
    ok = True
    for up, down in COMBOS:
        combo = up[0] + down[0]
        fl, fd, hfd = (mean(p, combo) for p in ("fl", "fd", "hfd"))
        c8a = fd - fl >= 0.05 and hfd - fl >= 0.05
        c8b = fd > il and hfd > il
        ok &= c8a and c8b
        print(f"{combo}: FL {fl:.3f}  FD {fd:.3f}  HFD {hfd:.3f} | "
              f"FD-FL {fd-fl:+.3f} HFD-FL {hfd-fl:+.3f} "
              f"FD-IL {fd-il:+.3f} HFD-IL {hfd-il:+.3f} "
              f"{'OK' if c8a and c8b else 'FAIL'}")
    fl_aa, fl_dd = mean("fl", "aa"), mean("fl", "dd")
    c10 = fl_aa >= fl_dd
    print(f"c10 FL aa {fl_aa:.3f} vs dd {fl_dd:.3f}: "
          f"{'OK' if c10 else 'FAIL'}")
    return ok and c10


if __name__ == "__main__":
    seeds = [0, 1, 2]
    acc = sweep_T100(seeds)
    report(acc, seeds)
