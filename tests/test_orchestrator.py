import dataclasses
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fedsim import audit, orchestrator, streams
from fedsim.analog_link import ProjectionMatrix
from fedsim.channel import ChannelState
from fedsim.compression import (
    MAX_QUANTIZER_BITS, ErrorAccumulator, top_k_sparsify,
)
from fedsim.datasets import LabeledDataset, load_dataset, partition_shards
from fedsim.digital_link import fl_digital_decode, fl_digital_encode
from fedsim.errors import ConfigurationError
from fedsim.learning import (
    MlpArchitecture, average_logits, init_weights, run_local_epochs,
)
from fedsim.orchestrator import (
    CSV_HEADER, LINK_CODES, MAX_ABS_DB, PROTOCOLS, ExperimentConfig,
    MetricsRecord, _Run, _target, expand_settings, parse_settings,
    run_experiment, write_metrics,
)
from metrics_csv import read_metrics

SMALL_DATA = "synthetic:classes=2,dim=6"
LINKS = st.sampled_from(sorted(LINK_CODES.values()))
# dB values across the accepted range, its two ends, and past it.
DB_VALUES = (st.floats(-400.0, 400.0)
             | st.sampled_from([-MAX_ABS_DB, MAX_ABS_DB]))


def small_config(**kw):
    base = dict(protocol="il", num_devices=2, channel_uses=50,
                global_iterations=2, samples_per_device=10, test_samples=40,
                data=SMALL_DATA, model="mlp:6", batch_size=5,
                alpha=0.05, master_seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def avg_accuracies(records):
    return [r.test_accuracy for r in records if r.device_scope == "avg"]


class TestIlInvariance:
    def test_independent_of_channel_parameters(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(channel_uses=500, pu_db=20.0,
                                        pd_db=-5.0, uplink_mode="analog",
                                        downlink_mode="analog"))
        assert avg_accuracies(a) == avg_accuracies(b)

    def test_zero_bits(self):
        records = run_experiment(small_config())
        assert all(r.bits_sent_uplink == 0 and r.bits_sent_downlink == 0
                   for r in records)

    CHANNEL = st.fixed_dictionaries(dict(
        link=LINKS, channel_uses=st.sampled_from([1, 2, 16, 200]),
        pu_db=st.floats(-MAX_ABS_DB, MAX_ABS_DB),
        pd_db=st.floats(-MAX_ABS_DB, MAX_ABS_DB),
        noise_enabled=st.booleans(), ideal_exchange=st.booleans()))

    @settings(max_examples=20, deadline=None)
    @given(a=CHANNEL, b=CHANNEL, num_devices=st.integers(1, 3),
           model=st.sampled_from(["linear", "mlp:3"]),
           seed=st.integers(0, 2 ** 16))
    def test_records_do_not_depend_on_the_channel(self, a, b, num_devices,
                                                  model, seed):
        def learned(link, **channel):
            records = run_experiment(small_config(
                uplink_mode=link[0], downlink_mode=link[1],
                num_devices=num_devices, model=model, master_seed=seed,
                samples_per_device=6, test_samples=20, **channel))
            return [(r.iteration, r.device_scope, r.test_accuracy,
                     r.bits_sent_uplink, r.bits_sent_downlink)
                    for r in records]

        assert learned(**a) == learned(**b)


class TestFlIdealOracle:
    def oracle(self, config):
        """Hand-rolled federated averaging with no channel in the loop."""
        rng = streams.derive_rng(config.master_seed, streams.DATA)
        pool = load_dataset(config.data,
                            config.num_devices * config.samples_per_device
                            + config.test_samples, rng)
        shards, _ = partition_shards(pool, config.num_devices,
                                     config.samples_per_device, rng)
        arch = MlpArchitecture.from_descriptor(config.model, pool.dim,
                                               pool.num_classes)
        w = init_weights(arch, streams.derive_rng(config.master_seed,
                                                  streams.INIT, 0))
        for iteration in range(1, config.global_iterations + 1):
            updates = []
            for k in range(config.num_devices):
                trained = run_local_epochs(
                    w.copy(), shards[k], config.alpha, config.local_epochs,
                    config.batch_size,
                    streams.derive_rng(config.master_seed, streams.TRAIN, k,
                                       iteration), arch)
                updates.append(trained - w)
            w = w + np.mean(updates, axis=0)
        return w

    def test_ideal_exchange_matches_oracle(self):
        config = small_config(protocol="fl", ideal_exchange=True,
                              global_iterations=3)
        run = _Run(config)
        for iteration in range(1, config.global_iterations + 1):
            run.step(iteration)
        expected = self.oracle(config)
        for w in run.weights:
            assert np.linalg.norm(w - expected) <= 1e-6

    def test_single_device_fl_degenerates_to_il(self):
        fl = run_experiment(small_config(protocol="fl", num_devices=1,
                                         ideal_exchange=True))
        il = run_experiment(small_config(protocol="il", num_devices=1))
        assert avg_accuracies(fl) == avg_accuracies(il)

    def test_one_round_two_device_hand_oracle(self):
        config = small_config(protocol="fl", ideal_exchange=True,
                              global_iterations=1)
        run = _Run(config)
        w0 = run.weights[0].copy()
        np.testing.assert_array_equal(run.weights[1], w0)
        run.step(1)
        updates = []
        for k in range(2):
            trained = run_local_epochs(
                w0.copy(), run.shards[k], config.alpha, config.local_epochs,
                config.batch_size,
                streams.derive_rng(config.master_seed, streams.TRAIN, k, 1),
                run.arch)
            updates.append(trained - w0)
        expected = w0 + 0.5 * (updates[0] + updates[1])
        for w in run.weights:
            np.testing.assert_allclose(w, expected, rtol=0, atol=1e-12)


class TestFdFixedPoint:
    def test_symmetric_devices_receive_their_own_table(self):
        config = small_config(protocol="fd", num_devices=3,
                              ideal_exchange=True)
        run = _Run(config)
        # Force symmetric devices: same shard, same weights.
        run.shards = [run.shards[0]] * 3
        run.weights[:] = run.weights[0]
        tables = np.array([average_logits(run.weights[k], run.shards[k],
                                          run.arch) for k in range(3)])
        for t in tables[1:]:
            np.testing.assert_allclose(t, tables[0])
        received, contributed, _, _ = run.exchange(tables, None, None)
        targets, has = _target(received, tables, contributed,
                               contributed.sum())
        assert has.all()
        np.testing.assert_allclose(targets, tables, atol=1e-12)


class TestExchangeRules:
    """Who learns toward what when digital payloads drop out.

    Each round runs over a hand-made ChannelState: a zero uplink gain gives
    that device a zero bit budget, so its payload drops out, and a zero
    downlink gain does the same to the broadcast.
    """

    TABLES = [np.array([[1.0, -1.0], [0.5, 2.0]]),
              np.array([[3.0, 0.0], [-1.5, 4.0]]),
              np.array([[-2.0, 1.0], [2.5, 0.0]])]

    @staticmethod
    def hand_made_channel(monkeypatch, up, down):
        state = ChannelState(uplink_gains=np.array(up, dtype=complex),
                             downlink_gains=np.array(down, dtype=complex))
        monkeypatch.setattr(orchestrator, "sample_channel",
                            lambda rng, num_devices: state)

    def fd_round(self, monkeypatch, up, down=(1, 1, 1)):
        """One FD step on TABLES; returns (run, previous targets, bits)."""
        run = _Run(small_config(protocol="fd", num_devices=3, pu_db=10.0,
                                pd_db=10.0))
        self.hand_made_channel(monkeypatch, up, down)
        monkeypatch.setattr(run, "logit_tables",
                            lambda: np.array(self.TABLES))
        previous = np.array([np.full((2, 2), 10.0 + k) for k in range(3)])
        run.targets = previous.copy()
        run.has_target[:] = True
        bits_up, bits_down = run.step(1)
        return run, previous, bits_up, bits_down

    def test_dropped_device_takes_the_broadcast(self, monkeypatch):
        run, _, bits_up, _ = self.fd_round(monkeypatch, up=(1, 1, 0))
        assert bits_up[0] > 0 and bits_up[1] > 0 and bits_up[2] == 0
        t0, t1, _ = self.TABLES
        np.testing.assert_allclose(run.targets[2], (t0 + t1) / 2, atol=1e-9)
        np.testing.assert_allclose(run.targets[0], t1, atol=1e-9)
        np.testing.assert_allclose(run.targets[1], t0, atol=1e-9)

    def test_sole_contributor_keeps_its_previous_target(self, monkeypatch):
        run, previous, _, _ = self.fd_round(monkeypatch, up=(1, 0, 0))
        np.testing.assert_array_equal(run.targets[0], previous[0])
        for k in (1, 2):
            np.testing.assert_allclose(run.targets[k], self.TABLES[0],
                                       atol=1e-9)

    @pytest.mark.parametrize("up,down", [((0, 0, 0), (1, 1, 1)),
                                         ((1, 1, 1), (1, 0, 1))],
                             ids=["no-uplink-survivor", "empty-broadcast"])
    def test_nothing_delivered_keeps_every_target(self, monkeypatch, up,
                                                  down):
        run, previous, bits_up, bits_down = self.fd_round(monkeypatch, up,
                                                          down)
        assert bits_down == 0.0
        assert (bits_up > 0).tolist() == [g != 0 for g in up]
        for target, before in zip(run.targets, previous):
            np.testing.assert_array_equal(target, before)

    @pytest.mark.parametrize("downlink_mode", ["digital", "analog"])
    def test_fl_without_uplink_survivors_still_broadcasts(
            self, monkeypatch, downlink_mode):
        run = _Run(small_config(protocol="fl", num_devices=3, pu_db=10.0,
                                pd_db=10.0, downlink_mode=downlink_mode))
        self.hand_made_channel(monkeypatch, (0, 0, 0), (1, 1, 1))
        residual = np.linspace(-1.0, 1.0, run.dim)
        run.down_acc = ErrorAccumulator(residual=residual.copy())
        before = [w.copy() for w in run.weights]
        bits_up, bits_down = run.step(1)
        assert not bits_up.any()
        sent = residual - run.down_acc.residual
        assert sent.any()
        if downlink_mode == "digital":
            # The zero average went down: the broadcast is the residual
            # alone, and every device adds it to its round-start weights.
            assert bits_down > 0
            for w, w0 in zip(run.weights, before):
                np.testing.assert_allclose(w - w0, sent, atol=1e-12)

    def test_fl_empty_digital_broadcast_keeps_every_start(self, monkeypatch):
        # A null downlink gain leaves the broadcast no bits: the server
        # sends nothing and keeps the whole uplink average as its residual.
        run = _Run(small_config(protocol="fl", num_devices=3, pu_db=10.0,
                                pd_db=10.0))
        self.hand_made_channel(monkeypatch, (1, 1, 1), (1, 0, 1))
        payloads = []

        def encode(update, acc, budget, bits):
            payload, new_acc = fl_digital_encode(update, acc, budget, bits)
            payloads.append(payload)
            return payload, new_acc

        monkeypatch.setattr(orchestrator, "fl_digital_encode", encode)
        before = run.weights.copy()
        bits_up, bits_down = run.step(1)
        *up, down = payloads
        assert len(up) == 3 and bits_up.all()
        assert down.is_empty and bits_down == 0.0
        np.testing.assert_array_equal(run.weights, before)
        np.testing.assert_array_equal(
            run.down_acc.residual,
            np.mean([fl_digital_decode(p, run.dim) for p in up], axis=0))

    def test_offline_covariates_follow_the_target_rule(self):
        run = _Run(small_config(protocol="hfd", num_devices=3,
                                data="synthetic:classes=3,dim=2"))

        def shard(rows, labels):
            return LabeledDataset(np.array(rows), np.array(labels), 3)

        # Label 0 at every device, label 1 absent at device 2, label 2 held
        # by device 0 alone.
        run.shards = [
            shard([[0.1, 0.2], [0.3, 0.4], [0.9, 0.9], [0.5, 0.5]],
                  [0, 0, 1, 2]),
            shard([[0.2, 0.2], [0.6, 0.8]], [0, 1]),
            shard([[0.4, 0.0]], [0]),
        ]
        run._offline_covariate_exchange()
        means = {0: [[0.2, 0.3], [0.2, 0.2], [0.4, 0.0]],
                 1: [[0.9, 0.9], [0.6, 0.8]], 2: [[0.5, 0.5]]}
        expected = [
            {0: np.mean(means[0][1:], axis=0), 1: means[1][1]},
            {0: np.mean([means[0][0], means[0][2]], axis=0),
             1: means[1][0], 2: means[2][0]},
            {0: np.mean(means[0][:2], axis=0), 1: np.mean(means[1], axis=0),
             2: means[2][0]},
        ]
        for (covariates, labels), want in zip(run.pseudo_batches, expected):
            assert labels.tolist() == sorted(want)
            np.testing.assert_allclose(
                covariates, [want[t] for t in sorted(want)], atol=1e-12)


class TestErrorFeedbackTelescopes:
    """Over a whole FL run, each sender's error feedback telescopes: the sum
    of what it was given to send (a device's local updates, the server's
    averages) is the sum of what it sent plus its final residual.

    The sent vectors are recorded at the link calls the orchestrator makes:
    a digital payload as decoded, an analog one as the top-q of the pending
    vector it projects. A sender is followed from call to call by its
    accumulator, which each call replaces. Every sender here ends with a
    residual to carry; over `da` the server would not (the few nonzeros
    of a digital uplink's average all fit an analog downlink's q).
    """

    ITERATIONS = 4

    @pytest.mark.parametrize("link", ["aa", "ad", "dd"])
    def test_given_is_sent_plus_residual(self, monkeypatch, link):
        up, down = LINK_CODES[link]
        # q = 8 of W = 56 weights on an analog link.
        run = _Run(small_config(protocol="fl", num_devices=3, channel_uses=10,
                                pu_db=20.0, pd_db=20.0, uplink_mode=up,
                                downlink_mode=down,
                                global_iterations=self.ITERATIONS))
        # id of a sender's current accumulator -> [that accumulator, the
        # vectors it was given, the vectors it sent]
        senders = {id(acc): [acc, [], []]
                   for acc in [*run.up_accs, run.down_acc]}

        def record(acc, new_acc, given, sent):
            sender = senders.pop(id(acc))
            sender[0] = new_acc
            sender[1].append(np.array(given))
            sender[2].append(sent)
            senders[id(new_acc)] = sender

        def digital_encode(update, acc, budget, bits):
            payload, new_acc = encode(update, acc, budget, bits)
            record(acc, new_acc, update, fl_digital_decode(payload, run.dim))
            return payload, new_acc

        def analog_uplink(updates, accs, q, *link_args):
            estimate, new_accs = uplink(updates, accs, q, *link_args)
            for update, acc, new_acc in zip(updates, accs, new_accs):
                record(acc, new_acc, update,
                       top_k_sparsify(update + acc.residual, q))
            return estimate, new_accs

        def analog_downlink(update, acc, q, *link_args):
            estimates, new_acc = downlink(update, acc, q, *link_args)
            record(acc, new_acc, update,
                   top_k_sparsify(update + acc.residual, q))
            return estimates, new_acc

        encode = orchestrator.fl_digital_encode
        uplink = orchestrator.fl_analog_uplink
        downlink = orchestrator.fl_analog_downlink
        monkeypatch.setattr(orchestrator, "fl_digital_encode", digital_encode)
        monkeypatch.setattr(orchestrator, "fl_analog_uplink", analog_uplink)
        monkeypatch.setattr(orchestrator, "fl_analog_downlink",
                            analog_downlink)
        for iteration in range(1, self.ITERATIONS + 1):
            run.step(iteration)

        final = [*run.up_accs, run.down_acc]
        assert all(acc.residual.any() for acc in final)
        for acc in final:
            _, given, sent = senders[id(acc)]
            assert len(given) == len(sent) == self.ITERATIONS
            np.testing.assert_allclose(
                np.sum(given, axis=0), np.sum(sent, axis=0) + acc.residual,
                rtol=0, atol=1e-12)


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        config = small_config(protocol="fl", uplink_mode="digital",
                              downlink_mode="analog", channel_uses=20,
                              model="linear")
        paths = []
        for name in ("a.csv", "b.csv"):
            records = run_experiment(config)
            path = tmp_path / name
            write_metrics(records, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self):
        a = run_experiment(small_config(master_seed=1))
        b = run_experiment(small_config(master_seed=2))
        assert avg_accuracies(a) != avg_accuracies(b)


# Runs one FL iteration over digital links, then two at T=2500 over analog
# links with W = 1362 weights, and prints whether numpy.fft was loaded
# before the analog run and the sha256 of the final weights. Then prints
# the final weights' sha256 of FL and of FD over analog links at T=12000
# (K = 4), whose frames hold 24000 reals, past the 10000 at which
# OpenBLAS's ddot splits a sum over its threads.
FL_RUN_SCRIPT = """
import hashlib, sys
from fedsim.orchestrator import ExperimentConfig, _Run
def run(protocol, link, uses, iterations, **extra):
    run = _Run(ExperimentConfig(
        protocol=protocol, uplink_mode=link, downlink_mode=link,
        channel_uses=uses, global_iterations=iterations,
        data="synthetic:classes=2,dim=24", model="mlp:32,16", **extra))
    for iteration in range(1, iterations + 1):
        run.step(iteration)
    return hashlib.sha256(run.weights.tobytes()).hexdigest()
run("fl", "digital", 2500, 1)
loaded = "numpy.fft" in sys.modules
print(loaded, run("fl", "analog", 2500, 2))
for protocol in ("fl", "fd"):
    print(protocol, run(protocol, "analog", 12000, 2, num_devices=4))
"""


def run_fl_script(**env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FL_RUN_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


class TestAnalogFlBits:
    """No arithmetic of an analog link calls BLAS, so an analog run's bits
    do not depend on the BLAS thread count: FL at T=2500, and FL and FD at
    T=12000, where a frame's energy sums 24000 reals. Only an analog-FL
    product loads numpy's FFT."""

    def test_same_weights_under_one_and_two_blas_threads(self):
        one = run_fl_script(OPENBLAS_NUM_THREADS="1").splitlines()
        two = run_fl_script(OPENBLAS_NUM_THREADS="2").splitlines()
        assert [line.split()[0] for line in one] == ["False", "fl", "fd"]
        assert two == one


class TestProjectionDraw:
    """A run holds a projection for each direction in which FL sends weights
    over an analog link, drawn when the run is set up and kept; every other
    run holds None in its place."""

    @staticmethod
    def fl_run(link):
        # W = 290 weights and 2T = 2000 rows.
        up, down = LINK_CODES[link]
        return _Run(small_config(protocol="fl", uplink_mode=up,
                                 downlink_mode=down, global_iterations=1,
                                 channel_uses=1000, model="mlp:32"))

    @staticmethod
    def fresh(run, direction):
        """The projection a run of `run`'s config sends over in
        `direction` (0 up, 1 down), drawn anew."""
        cfg = run.cfg
        return ProjectionMatrix(
            2 * cfg.channel_uses, run.dim,
            streams.derive_seed(cfg.master_seed, streams.PROJECTION,
                                direction))

    def test_set_up_draws_each_analog_projection(self):
        run = self.fl_run("aa")
        for direction, proj in enumerate((run.proj_up, run.proj_down)):
            fresh = self.fresh(run, direction)
            assert (proj.rows, proj.cols) == (2000, 290)
            for drawn in ("signs", "picks", "forward", "backward"):
                assert getattr(proj, drawn).tobytes() \
                    == getattr(fresh, drawn).tobytes()

    @pytest.mark.parametrize("link", ["aa", "ad", "da"])
    def test_fl_holds_one_projection_per_analog_link(self, link):
        run = self.fl_run(link)
        held = [run.proj_up, run.proj_down]
        assert [isinstance(proj, ProjectionMatrix) for proj in held] == \
            [mode == "analog" for mode in LINK_CODES[link]]
        run.step(1)
        run.step(2)
        assert all(a is b for a, b in zip((run.proj_up, run.proj_down), held))
        gen = np.random.default_rng(7)
        x, z = gen.standard_normal(290), gen.standard_normal(2000)
        for direction, proj in enumerate(held):
            if proj is not None:
                fresh = self.fresh(run, direction)
                assert proj.project(x).tobytes() == \
                    fresh.project(x).tobytes()
                assert proj.backproject(z).tobytes() == \
                    fresh.backproject(z).tobytes()

    @pytest.mark.parametrize("protocol,link,ideal", [
        ("il", "aa", False), ("fd", "aa", False), ("hfd", "aa", False),
        ("fl", "dd", False), ("fl", "aa", True)],
        ids=["il", "fd", "hfd", "fl-digital", "fl-ideal"])
    def test_runs_without_weight_projections_draw_none(self, protocol, link,
                                                       ideal):
        up, down = LINK_CODES[link]
        run = _Run(small_config(protocol=protocol, uplink_mode=up,
                                downlink_mode=down, channel_uses=16,
                                ideal_exchange=ideal))
        run.step(1)
        run.step(2)
        assert [run.proj_up, run.proj_down] == [None, None]


class TestProtocolsRun:
    @pytest.mark.parametrize("protocol", ["fl", "fd", "hfd"])
    @pytest.mark.parametrize("up,down", [("digital", "digital"),
                                         ("digital", "analog"),
                                         ("analog", "digital"),
                                         ("analog", "analog")])
    def test_all_link_combos_execute(self, protocol, up, down):
        records = run_experiment(small_config(
            protocol=protocol, uplink_mode=up, downlink_mode=down,
            channel_uses=16, global_iterations=2, pu_db=5.0, pd_db=10.0))
        avg = [r for r in records if r.device_scope == "avg"]
        assert len(avg) == 2
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in records)

    @settings(max_examples=30, deadline=None)
    @given(protocol=st.sampled_from(PROTOCOLS), link=LINKS,
           num_devices=st.integers(1, 4),
           channel_uses=st.sampled_from([1, 2, 3, 5, 8, 16, 50, 200]),
           quantizer_bits=st.integers(1, MAX_QUANTIZER_BITS),
           reg_weight=st.floats(0.0, 1.0), pu_db=DB_VALUES, pd_db=DB_VALUES,
           noise_enabled=st.booleans(), ideal_exchange=st.booleans(),
           classes=st.integers(2, 4),
           model=st.sampled_from(["linear", "mlp:3", "mlp:4,2"]),
           seed=st.integers(0, 2 ** 16))
    def test_every_accepted_small_config_runs(self, link, classes, seed,
                                              **fields):
        fields.update(
            uplink_mode=link[0], downlink_mode=link[1],
            data=f"synthetic:classes={classes},dim=4", master_seed=seed,
            global_iterations=2, samples_per_device=6, test_samples=20,
            batch_size=4, hfd_distill_steps=2)
        if max(abs(fields["pu_db"]), abs(fields["pd_db"])) > MAX_ABS_DB:
            with pytest.raises(ConfigurationError, match="_db must be a finite"):
                small_config(**fields)
            return
        try:
            config = small_config(**fields)
        except ConfigurationError:
            assume(False)
        audit.reset()
        records = run_experiment(config)  # a warning fails (pyproject.toml)
        assert run_experiment(config) == records
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in records)
        assert all(r.bits_sent_uplink >= 0 and r.bits_sent_downlink >= 0
                   for r in records)
        # Every check fired where a frame or a payload was built. An analog
        # downlink carries a table only if some digital uplink table got
        # through; a payload that drops out never reaches the budget check.
        assert audit.violations == 0
        sent_up = any(r.bits_sent_uplink > 0 for r in records)
        sent = sent_up or any(r.bits_sent_downlink > 0 for r in records)
        framed = link[0] == "analog" or (
            link[1] == "analog" and (config.protocol == "fl" or sent_up))
        if config.protocol != "il" and not config.ideal_exchange and framed:
            assert audit.power_checks > 0
        if sent:
            assert audit.budget_checks > 0

    def test_analog_fd_needs_room_for_the_table(self):
        with pytest.raises(ConfigurationError):
            run_experiment(small_config(
                protocol="fd", uplink_mode="analog",
                data="synthetic:classes=7,dim=4", channel_uses=20,
                model="linear"))

    def test_logit_room_checked_when_the_config_is_built(self):
        seven = dict(data="synthetic:classes=7,dim=4", model="linear")
        with pytest.raises(ConfigurationError, match=(
                r"channel_uses: analog logit exchange needs 2T >= L\^2; "
                r"got T=24, L=7")):
            ExperimentConfig(protocol="hfd", downlink_mode="analog",
                             channel_uses=24, **seven)
        ExperimentConfig(protocol="fd", uplink_mode="analog", channel_uses=25,
                         **seven)
        ExperimentConfig(protocol="fd", uplink_mode="analog", channel_uses=24,
                         ideal_exchange=True, **seven)
        ExperimentConfig(protocol="fl", uplink_mode="analog", channel_uses=1,
                         **seven)

    def test_idx_logit_room_checked_once_labels_load(self, tmp_path):
        images, labels = tmp_path / "images.idx3", tmp_path / "labels.idx1"
        images.write_bytes(struct.pack(">IIII", 0x803, 60, 2, 2)
                           + bytes(60 * 4))
        labels.write_bytes(struct.pack(">II", 0x801, 60)
                           + bytes(k % 3 for k in range(60)))
        config = small_config(protocol="fd", uplink_mode="analog",
                              channel_uses=4, data=f"idx:{images},{labels}",
                              model="linear")
        with pytest.raises(ConfigurationError, match="got T=4, L=3"):
            _Run(config)
        _Run(dataclasses.replace(config, channel_uses=5))

    def test_record_layout(self):
        records = run_experiment(small_config())
        per_iter = 1 + 2  # avg + one per device
        assert len(records) == 2 * per_iter
        assert records[0].device_scope == "avg"
        assert [r.device_scope for r in records[:3]] == ["avg", "0", "1"]


class TestMetricsCsv:
    def rec(self, **kw):
        base = dict(iteration=1, protocol="fl", uplink_mode="digital",
                    downlink_mode="analog", channel_uses=100, pu_db=0.0,
                    pd_db=10.0, seed=7, device_scope="avg",
                    test_accuracy=0.53125, bits_sent_uplink=123.456789,
                    bits_sent_downlink=0.0)
        base.update(kw)
        return MetricsRecord(**base)

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_metrics([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_roundtrip(self, tmp_path):
        records = [self.rec(), self.rec(device_scope="0",
                                        test_accuracy=0.25)]
        path = tmp_path / "m.csv"
        write_metrics(records, path)
        parsed = read_metrics(path)
        assert len(parsed) == 2
        assert parsed[0].device_scope == "avg"
        assert parsed[0].protocol == "fl"
        assert parsed[0].channel_uses == 100
        assert abs(parsed[0].bits_sent_uplink - 123.456789) < 1e-3
        assert parsed[1].test_accuracy == 0.25

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([self.rec(test_accuracy=1 / 3)], path)
        row = path.read_text().splitlines()[1]
        assert "0.333333" in row

    @pytest.mark.parametrize("up,down", [(math.nan, math.inf), (0.0, math.inf),
                                         (math.nan, 0.0), (-1.0, 0.0)])
    def test_bad_bit_counter_rejected(self, up, down):
        with pytest.raises(ValueError, match="bit counters must be finite "
                                             "and non-negative"):
            self.rec(bits_sent_uplink=up, bits_sent_downlink=down)

    def test_field_order_fixed(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([self.rec()], path)
        header = path.read_text().splitlines()[0]
        assert header == ("iteration,protocol,uplink,downlink,T,pu_db,pd_db,"
                          "seed,scope,accuracy,bits_up,bits_down")


class TestConfigParsing:
    def test_key_value_text(self):
        values = parse_settings(
            "# comment\nprotocol = fd\nchannel_uses=123\n\n"
            "pu_db = -2.5\nnoise_enabled = false\n")
        assert values == dict(protocol=["fd"], channel_uses=[123],
                              pu_db=[-2.5], noise_enabled=[False])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_settings("frobnicate = 3\n")

    def test_file_with_overrides(self):
        settings = parse_settings(
            "protocol = fd\nchannel_uses = 99\nmaster_seed = 5\n")
        [config] = expand_settings({**settings, "master_seed": [11]})
        assert config.protocol == "fd"
        assert config.channel_uses == 99
        assert config.master_seed == 11

    def test_pd_offset_tracks_pu(self):
        def pd(text, **overrides):
            [config] = expand_settings(
                {**parse_settings(text),
                 **{key: [value] for key, value in overrides.items()}})
            return config.pd_db

        text = "pu_db = 3\npd_db = pu+10\n"
        assert pd(text) == 13.0
        assert pd(text, pu_db=-2.0) == 8.0
        assert pd(text, pd_db=4.0) == 4.0
        assert pd("pd_db = pu-1.5\n") == ExperimentConfig().pu_db - 1.5
        configs = expand_settings(parse_settings(
            "pu_db = 0, 5\npd_db = pu+10, 2\n"))
        assert [(c.pu_db, c.pd_db) for c in configs] == [
            (0.0, 10.0), (0.0, 2.0), (5.0, 15.0), (5.0, 2.0)]

    def test_every_field_round_trips(self):
        config = ExperimentConfig(
            protocol="hfd", uplink_mode="analog", downlink_mode="analog",
            num_devices=3, channel_uses=40, pu_db=-1.5, pd_db=2.5,
            global_iterations=4, alpha=0.02, quantizer_bits=8,
            reg_weight=0.25, local_epochs=2, batch_size=5,
            samples_per_device=11, master_seed=9,
            data="synthetic:classes=3,dim=6", model="mlp:8,4",
            hfd_distill_steps=2, test_samples=50,
            noise_enabled=False, ideal_exchange=True)
        assert all(getattr(config, f.name) != f.default
                   for f in dataclasses.fields(ExperimentConfig))
        text = "\n".join(f"{f.name} = {getattr(config, f.name)}"
                         for f in dataclasses.fields(ExperimentConfig)
                         if f.name != "pd_db")
        assert expand_settings(parse_settings(text + "\npd_db = pu+4\n")) \
            == [config]

    def test_link_sets_both_modes(self):
        settings = parse_settings("link = da, aa\nprotocol = fl\n")
        assert settings["link"] == [("digital", "analog"), ("analog", "analog")]
        assert [(c.uplink_mode, c.downlink_mode)
                for c in expand_settings(settings)] == [
            ("digital", "analog"), ("analog", "analog")]
        [config] = expand_settings(
            {"uplink_mode": ["analog"], **settings,
             "link": [("digital", "digital")]})
        assert (config.uplink_mode, config.downlink_mode) == \
            ("digital", "digital")

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(protocol="bogus")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(reg_weight=1.5)

    @pytest.mark.parametrize("key,value", [
        ("num_devices", 2.5),
        ("alpha", float("nan")), ("alpha", float("inf")),
        ("pu_db", "3"), ("pu_db", True), ("pd_db", None),
        ("reg_weight", "0.5"), ("alpha", "0.1"),
        ("noise_enabled", "no"), ("ideal_exchange", "false"),
        ("ideal_exchange", 1), ("model", "mlp:x"), ("model", None),
        ("model", "mlp:"), ("model", "mlp:8,"), ("model", "mlp:,8"),
        ("model", "mlp:8,,4"),
        ("data", "synthetic:dimm=4"), ("data", "synthetic_typo"),
        ("data", "synthetic:classes=1"), ("data", "synthetic:dim=0"),
        ("data", "synthetic:flip=1.5"), ("data", "synthetic:noise=nan"),
        ("data", "synthetic:spread=-0.1"),
        ("data", "synthetic:classes=2,classes=3"),
        ("quantizer_bits", 54), ("quantizer_bits", 64),
        ("pu_db", 4000.0), ("pu_db", 3070), ("pd_db", 3000.0),
        ("pu_db", MAX_ABS_DB + 0.5), ("pd_db", -MAX_ABS_DB - 0.5),
        ("pu_db", float("-inf")), ("pd_db", float("nan")),
        ("alpha", 10 ** 400),
        ("uplink_mode", "analgo"), ("downlink_mode", "Digital"),
    ])
    def test_invalid_value_names_its_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig(**{key: value})

    def test_db_range_includes_its_ends(self):
        for db in (-MAX_ABS_DB, MAX_ABS_DB):
            assert ExperimentConfig(pu_db=db, pd_db=db).pd_db == db

    def test_numeric_and_numpy_values_accepted(self):
        config = ExperimentConfig(pu_db=3, pd_db=np.float64(7.5), alpha=1,
                                  reg_weight=np.float32(0.25),
                                  ideal_exchange=np.bool_(True))
        assert config.uplink_power == pytest.approx(10 ** 0.3)

    @pytest.mark.parametrize("text,pattern", [
        ("protocol = fd\nchannel_uses = abc\n", "line 2: channel_uses"),
        ("\nchannel_uses = 1.5\n", "line 2: channel_uses"),
        ("alpha = 0.1\n# c\nalpha = 0.2\n", "line 3: duplicate key 'alpha'"),
        ("pu_db = 3\npd_db = pu+x\n", r"line 2: pd_db expects a number or pu\+"),
        ("channel_uses = 20\nnum_devices = 2, 0\n",
         "line 2: num_devices must be an integer >= 1, got 0"),
        ("pd_db = pu+inf\n", "line 1: pd_db must be a finite"),
        ("noise_enabled = maybe\n",
         "^line 1: noise_enabled expects a boolean, got 'maybe'$"),
        ("protocol = fl\nuplink_mode = analgo\n",
         "^line 2: uplink_mode must be digital or analog, got 'analgo'$"),
    ])
    def test_bad_line_names_key_and_line(self, text, pattern):
        with pytest.raises(ConfigurationError, match=pattern):
            parse_settings(text)

    @pytest.mark.parametrize("line,pattern", [
        ("fl_analog_q = 5", "unknown config key 'fl_analog_q'"),
        ("logit_sample_size = 6", "unknown config key 'logit_sample_size'"),
        ("data = synthetic:flip=0.1", "unknown synthetic option 'flip'"),
    ], ids=["fl_analog_q", "logit_sample_size", "flip"])
    def test_removed_setting_names_its_line(self, line, pattern):
        with pytest.raises(ConfigurationError, match=f"^line 2: .*{pattern}"):
            parse_settings(f"protocol = fd\n{line}\n")


class TestConfigSchema:
    """A field's annotation is its kind: what ExperimentConfig accepts and
    how parse_settings reads it. Four kinds are handled."""

    FIELDS = [field.name for field in dataclasses.fields(ExperimentConfig)]

    def test_every_annotation_is_a_handled_kind(self):
        kinds = {int, float, bool, str}
        assert {field.name: field.type
                for field in dataclasses.fields(ExperimentConfig)
                if field.type not in kinds} == {}

    @pytest.mark.parametrize("name", FIELDS)
    def test_value_of_the_wrong_kind_names_its_field(self, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be "):
            ExperimentConfig(**{name: [1]})

    @pytest.mark.parametrize("name", FIELDS)
    def test_every_default_reads_back(self, name):
        default = getattr(ExperimentConfig(), name)
        assert parse_settings(f"{name} = {default}\n") == {name: [default]}


class TestAudit:
    @pytest.mark.parametrize("mode,fired,idle", [
        ("digital", "budget_checks", "power_checks"),
        ("analog", "power_checks", "budget_checks"),
    ])
    def test_link_checks_fire_without_violations(self, mode, fired, idle):
        audit.reset()
        run_experiment(small_config(protocol="fl", uplink_mode=mode,
                                    downlink_mode=mode, channel_uses=200))
        assert getattr(audit, fired) > 0
        assert getattr(audit, idle) == 0
        assert audit.violations == 0
