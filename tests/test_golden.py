"""Golden metrics CSVs: every protocol x link combination, byte for byte.

The files under tests/golden/ were written by this module before the analog
link pipelines were merged; a refactor must reproduce them exactly. To
re-record them after an intended change in what is simulated:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import itertools
from pathlib import Path

import pytest

from fedsim.orchestrator import ExperimentConfig, run_experiment, write_metrics

GOLDEN = Path(__file__).resolve().parent / "golden"

PROTOCOLS = ("il", "fl", "fd", "hfd")
LINKS = ("digital", "analog")
CHANNEL_USES = (16, 400)
SEEDS = (0, 1)


def golden_configs():
    """(file name, config) for all 64 recorded scenarios."""
    for protocol, up, down, t, seed in itertools.product(
            PROTOCOLS, LINKS, LINKS, CHANNEL_USES, SEEDS):
        config = ExperimentConfig(
            protocol=protocol, uplink_mode=up, downlink_mode=down,
            num_devices=3, channel_uses=t, pu_db=5.0, pd_db=10.0,
            global_iterations=3, alpha=0.2, batch_size=4,
            samples_per_device=24, test_samples=400, master_seed=seed,
            data="synthetic:classes=3,dim=6", model="mlp:8")
        yield f"{protocol}_{up[0]}{down[0]}_T{t}_seed{seed}.csv", config


@pytest.mark.parametrize("name,config", list(golden_configs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_matches_golden_csv(tmp_path, name, config):
    path = tmp_path / name
    write_metrics(run_experiment(config), path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, config in golden_configs():
        write_metrics(run_experiment(config), GOLDEN / name)
