"""Tests of the benchmark's wrappers: they must bind where fedsim calls them.

    PYTHONPATH=src python3 -m pytest -q perfbench

A wrapper put on the defining module instead of the calling namespace
would count nothing, so the tests assert exact call counts on a tiny config.
"""

import hashlib
import time

import pytest

from fedsim import learning, orchestrator
from fedsim.orchestrator import ExperimentConfig, run_experiment, write_metrics
from tracing import MODULES, PATCHES, Tracer

K, ITERS = 2, 2


def tiny(protocol="fl", mode="analog", **kw):
    return ExperimentConfig(
        protocol=protocol, uplink_mode=mode, downlink_mode=mode,
        num_devices=K, channel_uses=60, global_iterations=ITERS,
        samples_per_device=16, test_samples=40, batch_size=8,
        data="synthetic:classes=2,dim=6", model="mlp:6", master_seed=5, **kw)


@pytest.fixture
def tracer():
    t = Tracer()
    uninstall = t.install()
    yield t
    uninstall()


def calls(tracer, name):
    return sum(1 for span in tracer.spans if span[0] == name)


def test_fl_analog_call_counts(tracer):
    run_experiment(tiny())
    assert calls(tracer, "learning.run_local_epochs") == K * ITERS
    assert calls(tracer, "analog_link.cs_decode") == ITERS * (1 + K)
    assert calls(tracer, "analog_link.fl_analog_uplink") == ITERS
    assert calls(tracer, "channel.uplink_mac") == ITERS
    assert calls(tracer, "channel.downlink_bc") == ITERS
    assert len(tracer.nmse["fl_up"]) == ITERS
    assert len(tracer.nmse["fl_down"]) == ITERS * K


@pytest.mark.parametrize("protocol", ["fl", "fd"])
def test_digital_never_decodes_with_amp(tracer, protocol):
    run_experiment(tiny(protocol=protocol, mode="digital"))
    assert calls(tracer, "learning.run_local_epochs") == K * ITERS
    assert calls(tracer, "analog_link.cs_decode") == 0
    # K uplink encodes per iteration, plus a downlink one unless every
    # uplink payload dropped out.
    assert ITERS * K <= tracer.encodes <= ITERS * (K + 1)


def test_cs_decode_nests_under_fl_analog(tracer):
    run_experiment(tiny())
    parents = {tracer.spans[span[3]][0] for span in tracer.spans
               if span[0] == "analog_link.cs_decode"}
    assert parents == {"analog_link.fl_analog_uplink",
                       "analog_link.fl_analog_downlink"}


@pytest.mark.parametrize("protocol", ["fl", "hfd"])
def test_self_times_add_up_to_wall(tracer, protocol):
    start = time.perf_counter()
    run_experiment(tiny(protocol=protocol))
    wall = time.perf_counter() - start
    metrics = tracer.layer_metrics(wall)
    assert all(s >= 0.0 for s in tracer.self_times())
    assert metrics["orchestrator.self_s"] >= 0.0
    layers = sum(metrics[f"{m}.self_s"] for m in MODULES)
    if protocol == "fl":  # its analog calls are probed for their NMSE
        assert metrics["trace.probe_s"] > 0.0
    assert (layers + metrics["orchestrator.self_s"] + metrics["trace.probe_s"]
            == pytest.approx(wall))


def test_uninstall_restores_every_name():
    before = [getattr(ns, attr) for ns, attr, _ in PATCHES]
    uninstall = Tracer().install()
    assert orchestrator.run_local_epochs is not learning.run_local_epochs
    uninstall()
    assert [getattr(ns, attr) for ns, attr, _ in PATCHES] == before


def _csv_digest(config, tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics(run_experiment(config), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("protocol", ["fl", "fd", "hfd"])
def test_tracing_leaves_metrics_csv_unchanged(tmp_path, protocol):
    config = tiny(protocol=protocol)
    plain = _csv_digest(config, tmp_path)
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        traced = _csv_digest(config, tmp_path)
    finally:
        uninstall()
    assert tracer.spans and traced == plain
