"""Golden metrics CSVs and final weights: every protocol x link combination.

The 64 metrics CSVs of the protocol x link grid under tests/golden/ were
written by this module before the analog link pipelines were merged, and
the eight extra scenarios (ideal exchanges, noiseless analog links, and
digital logit exchanges at a T where some payloads drop out and others get
through) before the two exchange paths were merged; a refactor must
reproduce them exactly. The 13 scenarios of FL over an analog link
(fl_aa, fl_ad and fl_da) were recorded again, with their digests, when the
dense Gaussian projection gave way to the structurally random one of
`fedsim.analog_link.ProjectionMatrix`: that changes what the analog FL
links compute. When the decoder's stall tolerance `AMP_TOL` went from 1e-6
to 1e-3, fl_aa_T16_seed0 and fl_aa_T16_seed1 (CSV and digest) and the
digest of fl_da_T400_seed0 were recorded again: some of their decodes stop
at an earlier iterate, while the other analog-FL decodes return the same
estimate. When `cs_decode` took to least squares by conjugate gradients
where 2T >= W, the six T=400 scenarios of FL over an analog link, where
2T = 800 >= W = 83, were recorded again (CSV and digest): fl_aa_T400,
fl_ad_T400 and fl_da_T400, seeds 0 and 1. The T=16 ones (2T = 32 < W)
still decode by AMP and did not change. When the distillation loss took
the knowledge-distillation form -sum b log p, whose minimum is the target,
in place of -sum p log b (a distilled step is now the cross-entropy step
toward a soft label), the 26 scenarios in which an FD or HFD device gets
a target were recorded again (CSV and digest), 13 each for fd and hfd:
aa_T16 seeds 0 and 1, aa_T16_seed0_noiseless, aa_T400, ad_T400, da_T400
and dd_T400, seeds 0 and 1, dd_T48_seed0 and ideal_T16_seed0. In the
fd and hfd ad_T16, da_T16 and dd_T16 scenarios no device ever gets a
target, and they did not change. The other 33 are as first recorded.
They print accuracies to 6 digits, so a last-bit change in the training
arithmetic can pass them; weights.sha256 holds the sha256 of each
scenario's concatenated final weights, which sees every bit. When the
analog link took to summing each frame's energy by one einsum over its
whole row and AMP its residual norms by `_dot`, in place of BLAS dot
products, the digests of 26 analog scenarios were recorded again, their
CSVs unchanged: fl_aa_T16_seed0, fl_ad_T16_seed1, fl_da_T16, and
fl_aa_T400, fl_ad_T400 and fl_da_T400; fd_aa_T16_seed0,
fd_aa_T16_seed0_noiseless, and fd_aa_T400, fd_ad_T400 and fd_da_T400;
hfd_aa_T16, and hfd_aa_T400, hfd_ad_T400 and hfd_da_T400 (seeds 0 and 1
where none is named). Those sums change the last bits of the power scales
and of some AMP iterates. When "ideal" became a mode of each link
direction in place of a config flag that bypassed both, the three
{fl,fd,hfd}_ideal_T16_seed0 CSVs had their uplink and downlink columns
recorded again, from digital,digital to ideal,ideal in every row; no other
column and no digest changed. To re-record both after an intended change
in what is simulated:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from fedsim.orchestrator import (
    ExperimentConfig, _Run, run_experiment, write_metrics,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
WEIGHT_DIGESTS = GOLDEN / "weights.sha256"

PROTOCOLS = ("il", "fl", "fd", "hfd")
LINKS = ("digital", "analog")
CHANNEL_USES = (16, 400)
SEEDS = (0, 1)


def _config(protocol, up, down, t, seed, **extra):
    return ExperimentConfig(
        protocol=protocol, uplink_mode=up, downlink_mode=down,
        num_devices=3, channel_uses=t, pu_db=5.0, pd_db=10.0,
        global_iterations=3, alpha=0.2, batch_size=4,
        samples_per_device=24, test_samples=400, master_seed=seed,
        data="synthetic:classes=3,dim=6", model="mlp:8", **extra)


def golden_configs():
    """(file name, config) for all 72 recorded scenarios."""
    for protocol, up, down, t, seed in itertools.product(
            PROTOCOLS, LINKS, LINKS, CHANNEL_USES, SEEDS):
        yield (f"{protocol}_{up[0]}{down[0]}_T{t}_seed{seed}.csv",
               _config(protocol, up, down, t, seed))
    for protocol in ("fl", "fd", "hfd"):
        yield (f"{protocol}_ideal_T16_seed0.csv",
               _config(protocol, "ideal", "ideal", 16, 0))
        yield (f"{protocol}_aa_T16_seed0_noiseless.csv",
               _config(protocol, "analog", "analog", 16, 0,
                       noise_enabled=False))
    # At T=48 some digital logit payloads drop out and others get through.
    for protocol in ("fd", "hfd"):
        yield (f"{protocol}_dd_T48_seed0.csv",
               _config(protocol, "digital", "digital", 48, 0))


def weights_digest(config) -> str:
    """sha256 of all devices' weights after the configured iterations."""
    run = _Run(config)
    for iteration in range(1, config.global_iterations + 1):
        run.step(iteration)
    return hashlib.sha256(np.concatenate(run.weights).tobytes()).hexdigest()


def recorded_digests() -> dict:
    """{csv name: digest} from weights.sha256 (sha256sum layout)."""
    lines = WEIGHT_DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("name,config", list(golden_configs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_matches_golden_csv(tmp_path, name, config):
    path = tmp_path / name
    write_metrics(run_experiment(config), path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,config", list(golden_configs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_matches_golden_weights(name, config):
    assert weights_digest(config) == recorded_digests()[name]


def test_golden_set_is_one_set():
    """No golden CSV is orphaned, unrecorded or missing its digest."""
    files = {path.name for path in GOLDEN.glob("*.csv")}
    configs = [name for name, _ in golden_configs()]
    assert len(set(configs)) == len(configs)
    assert set(configs) == files
    lines = WEIGHT_DIGESTS.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(recorded_digests()) == len(files)
    assert set(recorded_digests()) == files


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    digests = []
    for name, config in golden_configs():
        write_metrics(run_experiment(config), GOLDEN / name)
        digests.append(f"{weights_digest(config)}  {name}\n")
    WEIGHT_DIGESTS.write_text("".join(digests), encoding="utf-8")
