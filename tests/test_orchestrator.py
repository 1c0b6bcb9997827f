import numpy as np
import pytest

from fedsim import audit, streams
from fedsim.datasets import load_dataset, partition_shards
from fedsim.errors import ConfigurationError
from fedsim.learning import (
    MlpArchitecture, average_logits, init_weights, run_local_epochs,
)
from fedsim.orchestrator import (
    CSV_HEADER, ExperimentConfig, MetricsRecord, _Run, config_from_file,
    parse_config_text, read_metrics, run_experiment, write_metrics,
)

SMALL_DATA = "synthetic:classes=2,dim=6"


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
        run.weights = [run.weights[0].copy() for _ in range(3)]
        tables = [average_logits(run.weights[k], run.shards[k],
                                 len(run.shards[k]),
                                 streams.derive_rng(0, streams.LOGITS, k, 1),
                                 run.arch) for k in range(3)]
        for t in tables[1:]:
            np.testing.assert_allclose(t.values, tables[0].values)
        run.exchange_distillation(tables, None, None)
        for k in range(3):
            np.testing.assert_allclose(run.targets[k], tables[k].values,
                                       atol=1e-12)


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

    def test_analog_fd_needs_room_for_the_table(self):
        with pytest.raises(ConfigurationError):
            run_experiment(small_config(
                protocol="fd", uplink_mode="analog",
                data="synthetic:classes=7,dim=4", channel_uses=20,
                model="linear"))

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

    def test_field_order_fixed(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([self.rec()], path)
        header = path.read_text().splitlines()[0]
        assert header == ("iteration,protocol,uplink,downlink,T,pu_db,pd_db,"
                          "seed,scope,accuracy,bits_up,bits_down")


class TestConfigParsing:
    def test_key_value_text(self):
        values = parse_config_text(
            "# comment\nprotocol = fd\nchannel_uses=123\n\n"
            "pu_db = -2.5\nnoise_enabled = false\nfl_analog_q = none\n")
        assert values == dict(protocol="fd", channel_uses=123, pu_db=-2.5,
                              noise_enabled=False, fl_analog_q=None)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("frobnicate = 3\n")

    def test_file_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("protocol = fd\nchannel_uses = 99\nmaster_seed = 5\n")
        config = config_from_file(path, master_seed=11, protocol=None)
        assert config.protocol == "fd"
        assert config.channel_uses == 99
        assert config.master_seed == 11

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(protocol="bogus")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(reg_weight=1.5)

    @pytest.mark.parametrize("key,value", [
        ("logit_sample_size", 0), ("fl_analog_q", -5), ("num_devices", 2.5),
        ("alpha", float("nan")), ("alpha", float("inf")),
        ("pu_db", "3"), ("pu_db", True), ("pd_db", None),
        ("reg_weight", "0.5"), ("alpha", "0.1"),
        ("noise_enabled", "no"), ("ideal_exchange", "false"),
        ("ideal_exchange", 1),
    ])
    def test_invalid_value_names_its_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig(**{key: value})

    def test_numeric_and_numpy_values_accepted(self):
        config = ExperimentConfig(pu_db=3, pd_db=np.float64(7.5), alpha=1,
                                  reg_weight=np.float32(0.25),
                                  ideal_exchange=np.bool_(True))
        assert config.uplink_power == pytest.approx(10 ** 0.3)

    @pytest.mark.parametrize("text,pattern", [
        ("protocol = fd\nchannel_uses = abc\n", "line 2: channel_uses"),
        ("\nchannel_uses = 1.5\n", "line 2: channel_uses"),
        ("alpha = 0.1\n# c\nalpha = 0.2\n", "line 3: duplicate key 'alpha'"),
    ])
    def test_bad_line_names_key_and_line(self, text, pattern):
        with pytest.raises(ConfigurationError, match=pattern):
            parse_config_text(text)


class TestMetricsCsvErrors:
    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(run_experiment(small_config()), path)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:5])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4: expected 12 fields"):
            read_metrics(path)

    def test_bad_value_names_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(CSV_HEADER + "\n\nx,il,digital,digital,1,0,0,0,avg,"
                        "0.5,0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_metrics(path)


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
