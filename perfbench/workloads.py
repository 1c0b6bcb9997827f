"""Scenario configuration and the named workloads of the fedsim benchmark.

The scenario settings are the acceptance candidate of `tune_acceptance.py`
at the repository root, copied here so that the benchmark does not depend on
that script; the script itself is left as it is.

A workload is a list of scenarios (protocol, uplink, downlink, T) run for a
fixed number of global iterations. One pass of a workload runs every
scenario at one fedsim master seed. A benchmark seed expands into `seeds`
master seeds, and the passes of one benchmark run cycle through them, so the
figures of one run average over several data draws and inits instead of
resting on one.

The timed passes run few iterations: 1 on `amp_T2500`, 6 on the others,
where the candidate runs 10. So few iterations leave the accuracy near
chance, where it cannot show that a change altered what is simulated.
`final_accuracy` therefore comes from one more, untimed pass per run: every
scenario of the workload at the candidate's 10 iterations and at the fixed
master seeds ACCURACY_SEEDS, whatever the benchmark seed. Its value is the
same on every run of one commit, so a small bound can hold it.
"""

ACCEPTANCE = dict(
    num_devices=10, samples_per_device=64, test_samples=500,
    data="synthetic:classes=2,dim=24,noise=0.30,spread=0.20",
    model="mlp:32,16", local_epochs=8, batch_size=8, alpha=0.001,
    reg_weight=0.5, hfd_distill_steps=8, pu_db=0.0, pd_db=10.0,
    quantizer_bits=16,
)

ACCURACY_ITERATIONS = 10
ACCURACY_SEEDS = (0,)

DD, AA = ("digital", "digital"), ("analog", "analog")

# IL appears once per workload at most: it never uses a link, so its run does
# not depend on the link modes or on T.
WORKLOADS = {
    # AMP dominates: 5000 x 1362 float64 projections (54.5 MB each way),
    # 1 uplink and K downlink decodes per iteration, memory-bound GEMV.
    # One iteration per pass and many master seeds: the AMP work per decode
    # differs by about 20% between seeds, so a run averages over 12 of them.
    "amp_T2500": dict(iterations=1, seeds=12, reference="gemv",
                      scenarios=[("fl", *AA, 2500)]),
    # Local SGD dominates; every loss branch and both digital payload kinds;
    # starved budgets (dropouts) at T=100, ample ones at T=2500; no AMP.
    "digital_mix": dict(iterations=6, seeds=8, reference="sgd", scenarios=[
        ("il", *DD, 2500),
        ("fl", *DD, 100), ("fl", *DD, 2500),
        ("fd", *DD, 100), ("fd", *DD, 2500),
        ("hfd", *DD, 100), ("hfd", *DD, 2500),
    ]),
    # AMP on a 200 x 1362 projection that fits in cache (per-call overhead
    # rather than bandwidth) plus the repetition-coded analog logit path.
    "analog_mix": dict(iterations=6, seeds=8, reference="sgd", scenarios=[
        ("fl", *AA, 100),
        ("fd", *AA, 100), ("fd", *AA, 2500),
        ("hfd", *AA, 100), ("hfd", *AA, 2500),
    ]),
}


def master_seed(name: str, seed: int, index: int) -> int:
    """The fedsim master seed of pass `index` of a run with benchmark `seed`."""
    count = WORKLOADS[name]["seeds"]
    return seed * count + index % count


def scenario_configs(name: str, fedsim_seed: int, iterations=None):
    """ExperimentConfig objects for one pass of workload `name`, run for
    `iterations` global iterations (default: the workload's own)."""
    from fedsim.orchestrator import ExperimentConfig

    workload = WORKLOADS[name]
    return [ExperimentConfig(protocol=protocol, uplink_mode=up,
                             downlink_mode=down, channel_uses=T,
                             global_iterations=iterations
                             or workload["iterations"],
                             master_seed=fedsim_seed, **ACCEPTANCE)
            for protocol, up, down, T in workload["scenarios"]]
