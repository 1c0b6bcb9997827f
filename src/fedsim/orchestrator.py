"""Experiment orchestration: four training protocols over four link modes.

One experiment runs a fixed number of global iterations. Each iteration is
a local training phase on every device followed by an information exchange
through the configured uplink and downlink pipelines (independent learning
skips the exchange). Weight-update protocols keep error-feedback
accumulators on both sides; distillation protocols exchange per-label logit
tables and train against leave-one-out targets formed from the broadcast
average. Everything is deterministic given the master seed.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import streams
from .analog_link import (
    ProjectionMatrix, fd_analog_downlink, fd_analog_uplink,
    fl_analog_downlink, fl_analog_uplink,
)
from .channel import sample_channel
from .compression import ErrorAccumulator
from .datasets import LabeledDataset, load_dataset, partition_shards
from .digital_link import (
    downlink_budget, fd_digital_decode, fd_digital_encode, fl_digital_decode,
    fl_digital_encode, uplink_budget,
)
from .errors import ConfigurationError
from .learning import (
    CovariateTable, LogitTable, MlpArchitecture, average_logits,
    evaluate_accuracy, forward_logits_batch, hfd_distill_step, init_weights,
    leave_one_out, local_covariate_means, run_local_epochs,
)

PROTOCOLS = ("il", "fl", "fd", "hfd")
LINK_MODES = ("digital", "analog")
_POSITIVE_INT = ("num_devices", "channel_uses", "global_iterations",
                 "quantizer_bits", "local_epochs", "batch_size",
                 "samples_per_device", "hfd_distill_steps", "test_samples")
_OPTIONAL_INT = ("fl_analog_q", "logit_sample_size")
_FLOAT_FIELDS = ("pu_db", "pd_db", "alpha", "reg_weight")
_BOOL_FIELDS = ("noise_enabled", "ideal_exchange")

CSV_HEADER = ("iteration,protocol,uplink,downlink,T,pu_db,pd_db,seed,scope,"
              "accuracy,bits_up,bits_down")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one run; field names double as config-file keys."""

    protocol: str = "il"
    uplink_mode: str = "digital"
    downlink_mode: str = "digital"
    num_devices: int = 10
    channel_uses: int = 2500
    pu_db: float = 0.0
    pd_db: float = 10.0
    global_iterations: int = 10
    alpha: float = 0.001
    quantizer_bits: int = 16
    fl_analog_q: int | None = None      # default: floor(4T/5), capped at W
    reg_weight: float = 0.5
    local_epochs: int = 1
    batch_size: int = 8
    samples_per_device: int = 64
    master_seed: int = 0
    data: str = "synthetic"
    model: str = "mlp:64,32"
    logit_sample_size: int | None = None  # default: the full local shard
    hfd_distill_steps: int = 5
    test_samples: int = 1000
    noise_enabled: bool = True
    ideal_exchange: bool = False        # test affordance: lossless links

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"protocol: unknown value {self.protocol!r}")
        for name in ("uplink_mode", "downlink_mode"):
            if getattr(self, name) not in LINK_MODES:
                raise ConfigurationError(f"{name} must be digital or analog")
        for name in _POSITIVE_INT + _OPTIONAL_INT + ("master_seed",):
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_INT:
                continue
            least = 0 if name == "master_seed" else 1
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral) \
                    or value < least:
                raise ConfigurationError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(
                    f"{name} must be a number, got {value!r}")
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ConfigurationError(
                    f"{name} must be True or False, got {value!r}")
        for name in ("pu_db", "pd_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a finite dB value")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigurationError("alpha must be a positive finite step size")
        if not 0.0 <= self.reg_weight <= 1.0:
            raise ConfigurationError("reg_weight must lie in [0, 1]")

    @property
    def uplink_power(self) -> float:
        return 10.0 ** (self.pu_db / 10.0)

    @property
    def downlink_power(self) -> float:
        return 10.0 ** (self.pd_db / 10.0)


@dataclass(frozen=True)
class MetricsRecord:
    iteration: int
    protocol: str
    uplink_mode: str
    downlink_mode: str
    channel_uses: int
    pu_db: float
    pd_db: float
    seed: int
    device_scope: str  # "avg" or the device index as text
    test_accuracy: float
    bits_sent_uplink: float
    bits_sent_downlink: float

    def __post_init__(self):
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if self.bits_sent_uplink < 0 or self.bits_sent_downlink < 0:
            raise ValueError("bit counters must be non-negative")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def write_metrics(records, path) -> None:
    """CSV with a fixed schema: UTF-8, LF endings, 6 significant digits."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (
            r.iteration, r.protocol, r.uplink_mode, r.downlink_mode,
            r.channel_uses, r.pu_db, r.pd_db, r.seed, r.device_scope,
            r.test_accuracy, r.bits_sent_uplink, r.bits_sent_downlink)))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_metrics(path) -> list[MetricsRecord]:
    """Parse a CSV produced by write_metrics back into records."""
    with open(path, "r", encoding="utf-8") as f:
        rows = [(number, line.rstrip("\n"))
                for number, line in enumerate(f, start=1) if line.strip()]
    if not rows or rows[0][1] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected metrics header")
    width = CSV_HEADER.count(",") + 1
    records = []
    for number, line in rows[1:]:
        parts = line.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"expected {width} fields, got {len(parts)}")
            records.append(MetricsRecord(
                iteration=int(parts[0]), protocol=parts[1],
                uplink_mode=parts[2], downlink_mode=parts[3],
                channel_uses=int(parts[4]), pu_db=float(parts[5]),
                pd_db=float(parts[6]), seed=int(parts[7]),
                device_scope=parts[8], test_accuracy=float(parts[9]),
                bits_sent_uplink=float(parts[10]),
                bits_sent_downlink=float(parts[11])))
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from exc
    return records


class _Run:
    """Mutable state for one experiment; built once, advanced per iteration."""

    def __init__(self, config: ExperimentConfig):
        cfg = config
        self.cfg = cfg
        seed = cfg.master_seed
        data_rng = streams.derive_rng(seed, streams.DATA)
        pool_needed = cfg.num_devices * cfg.samples_per_device + cfg.test_samples
        pool = load_dataset(cfg.data, pool_needed, data_rng)
        self.shards, remainder = partition_shards(
            pool, cfg.num_devices, cfg.samples_per_device, data_rng)
        if len(remainder) < 1:
            raise ConfigurationError("no samples left over for the test set")
        take = min(cfg.test_samples, len(remainder))
        self.test = remainder.subset(np.arange(take))
        self.num_labels = pool.num_classes
        self.arch = MlpArchitecture.from_descriptor(cfg.model, pool.dim,
                                                    self.num_labels)
        self.dim = self.arch.param_count

        uses_analog = "analog" in (cfg.uplink_mode, cfg.downlink_mode)
        if cfg.protocol in ("fd", "hfd") and uses_analog \
                and not cfg.ideal_exchange \
                and 2 * cfg.channel_uses < self.num_labels ** 2:
            raise ConfigurationError(
                f"analog logit exchange needs 2T >= L^2; got T="
                f"{cfg.channel_uses}, L={self.num_labels}")

        if cfg.protocol == "fl":
            # Update semantics need one common reference point; share the
            # first device's seeded initialization.
            shared = init_weights(self.arch,
                                  streams.derive_rng(seed, streams.INIT, 0))
            self.weights = [shared.copy() for _ in range(cfg.num_devices)]
        else:
            self.weights = [init_weights(self.arch,
                                         streams.derive_rng(seed, streams.INIT, k))
                            for k in range(cfg.num_devices)]

        self.fl_q = cfg.fl_analog_q
        if self.fl_q is None:
            self.fl_q = (4 * cfg.channel_uses) // 5
        self.fl_q = max(1, min(self.fl_q, self.dim))

        self.up_accs = [ErrorAccumulator.zeros(self.dim)
                        for _ in range(cfg.num_devices)]
        self.down_acc = ErrorAccumulator.zeros(self.dim)
        self.proj_up = ProjectionMatrix(
            rows=2 * cfg.channel_uses, cols=self.dim,
            seed=streams.derive_seed(seed, streams.PROJECTION, 0))
        self.proj_down = ProjectionMatrix(
            rows=2 * cfg.channel_uses, cols=self.dim,
            seed=streams.derive_seed(seed, streams.PROJECTION, 1))

        self.targets = [None] * cfg.num_devices   # logit-row targets (L, L)
        self.loo_covs = None                      # HFD leave-one-out tables
        if cfg.protocol == "hfd":
            self._offline_covariate_exchange()

    # -- HFD offline phase: covariate tables travel over an ideal channel --

    def _offline_covariate_exchange(self):
        cfg = self.cfg
        local = [local_covariate_means(self.shards[k], self.num_labels)
                 for k in range(cfg.num_devices)]
        counts = np.sum([t.present for t in local], axis=0)
        dim = self.shards[0].dim
        global_mean = np.zeros((self.num_labels, dim))
        for t in range(self.num_labels):
            if counts[t]:
                global_mean[t] = np.mean(
                    [tab.values[t] for tab in local if tab.present[t]], axis=0)
        self.loo_covs = []
        for k in range(cfg.num_devices):
            values = np.zeros((self.num_labels, dim))
            present = np.zeros(self.num_labels, dtype=bool)
            for t in range(self.num_labels):
                if counts[t] == 0:
                    continue
                if local[k].present[t]:
                    if counts[t] >= 2:
                        values[t] = leave_one_out(global_mean[t],
                                                  local[k].values[t],
                                                  int(counts[t]))
                        present[t] = True
                    # sole contributor: nothing to learn from, stays masked
                else:
                    values[t] = global_mean[t]
                    present[t] = True
            self.loo_covs.append(CovariateTable(values=values, present=present))

    # -- per-iteration phases --

    def local_phase(self, iteration: int):
        cfg = self.cfg
        for k in range(cfg.num_devices):
            rng = streams.derive_rng(cfg.master_seed, streams.TRAIN, k,
                                     iteration)
            if cfg.protocol == "hfd" and self.targets[k] is not None:
                for _ in range(cfg.hfd_distill_steps):
                    self.weights[k] = hfd_distill_step(
                        self.weights[k], self.loo_covs[k],
                        LogitTable(values=self.targets[k],
                                   present=np.ones(self.num_labels, bool)),
                        cfg.alpha, self.arch, reg_weight=cfg.reg_weight)
            target = None
            reg = 0.0
            if cfg.protocol == "fd" and self.targets[k] is not None:
                target = self.targets[k]
                reg = cfg.reg_weight
            self.weights[k] = run_local_epochs(
                self.weights[k], self.shards[k], cfg.alpha, cfg.local_epochs,
                cfg.batch_size, rng, self.arch, target_table=target,
                reg_weight=reg)

    def logit_tables(self, iteration: int) -> list[LogitTable]:
        cfg = self.cfg
        tables = []
        for k in range(cfg.num_devices):
            if cfg.protocol == "fd":
                sample = cfg.logit_sample_size
                if sample is None:
                    sample = len(self.shards[k])
                rng = streams.derive_rng(cfg.master_seed, streams.LOGITS, k,
                                         iteration)
                tables.append(average_logits(self.weights[k], self.shards[k],
                                             sample, rng, self.arch))
            else:  # hfd: logits at the leave-one-out covariates
                cov = self.loo_covs[k]
                values = np.zeros((self.num_labels, self.num_labels))
                if cov.present.any():
                    values[cov.present] = forward_logits_batch(
                        self.weights[k], cov.values[cov.present], self.arch)
                tables.append(LogitTable(values=values,
                                         present=cov.present.copy()))
        return tables

    # -- exchanges --

    def _uplink_budget(self, state, device: int):
        cfg = self.cfg
        return uplink_budget(cfg.channel_uses, cfg.num_devices,
                             state.uplink_gains[device], cfg.uplink_power,
                             device=device)

    def _downlink_budget(self, state):
        cfg = self.cfg
        return downlink_budget(cfg.channel_uses, state.downlink_gains,
                               cfg.downlink_power)

    def exchange_fl(self, updates, state, noise_rng):
        """Move weight updates up, average, broadcast back.

        Returns (per-device receipts, per-device uplink bits, downlink bits);
        the caller adds each receipt to that device's pre-update weights.
        """
        cfg = self.cfg
        k_dev = cfg.num_devices
        bits_up = np.zeros(k_dev)

        if cfg.ideal_exchange:
            average = np.mean(updates, axis=0)
            receipts = [average] * k_dev
            bits_down = 0.0
        else:
            if cfg.uplink_mode == "digital":
                decoded = []
                for k in range(k_dev):
                    payload, self.up_accs[k] = fl_digital_encode(
                        updates[k], self.up_accs[k],
                        self._uplink_budget(state, k), cfg.quantizer_bits)
                    bits_up[k] = payload.bit_count
                    if not payload.is_empty:
                        decoded.append(fl_digital_decode(payload, self.dim))
                average = (np.mean(decoded, axis=0) if decoded
                           else np.zeros(self.dim))
            else:
                estimate, self.up_accs = fl_analog_uplink(
                    updates, self.up_accs, self.fl_q, self.proj_up, state,
                    cfg.uplink_power, cfg.channel_uses, noise_rng)
                average = estimate / k_dev

            if cfg.downlink_mode == "digital":
                payload, self.down_acc = fl_digital_encode(
                    average, self.down_acc, self._downlink_budget(state),
                    cfg.quantizer_bits)
                bits_down = payload.bit_count
                receipt = fl_digital_decode(payload, self.dim)
                receipts = [receipt] * k_dev
            else:
                receipts, self.down_acc = fl_analog_downlink(
                    average, self.down_acc, self.fl_q, self.proj_down, state,
                    cfg.downlink_power, cfg.channel_uses, noise_rng)
                bits_down = 0.0

        return receipts, bits_up, bits_down

    def exchange_distillation(self, tables, state, noise_rng):
        """Move logit tables up, average, broadcast, form new targets.

        Devices whose payload did not fit (digital dropouts) are left out of
        the average and take the broadcast itself as their target; everyone
        else removes its own contribution. When nothing flows in either
        direction the previous targets are kept.
        """
        cfg = self.cfg
        k_dev = cfg.num_devices
        bits_up = np.zeros(k_dev)
        bits_down = 0.0

        if cfg.ideal_exchange:
            average = np.mean([t.values for t in tables], axis=0)
            contributed = [True] * k_dev
            k_eff = k_dev
            received = [average] * k_dev
        else:
            if cfg.uplink_mode == "digital":
                decoded, contributed = [], []
                for k in range(k_dev):
                    payload = fd_digital_encode(tables[k].values,
                                                self._uplink_budget(state, k),
                                                cfg.quantizer_bits)
                    bits_up[k] = payload.bit_count
                    contributed.append(not payload.is_empty)
                    if not payload.is_empty:
                        decoded.append(fd_digital_decode(payload,
                                                         self.num_labels))
                k_eff = len(decoded)
                if k_eff == 0:
                    return bits_up, bits_down  # keep previous targets
                average = np.mean(decoded, axis=0)
            else:
                estimate = fd_analog_uplink([t.values for t in tables], state,
                                            cfg.uplink_power,
                                            cfg.channel_uses, noise_rng)
                average = estimate / k_dev
                contributed = [True] * k_dev
                k_eff = k_dev

            if cfg.downlink_mode == "digital":
                payload = fd_digital_encode(average,
                                            self._downlink_budget(state),
                                            cfg.quantizer_bits)
                bits_down = payload.bit_count
                if payload.is_empty:
                    return bits_up, bits_down  # keep previous targets
                received = [fd_digital_decode(payload, self.num_labels)] * k_dev
            else:
                received = fd_analog_downlink(average, state,
                                              cfg.downlink_power,
                                              cfg.channel_uses, noise_rng)

        for k in range(k_dev):
            if contributed[k]:
                if k_eff >= 2:
                    self.targets[k] = leave_one_out(received[k],
                                                    tables[k].values, k_eff)
                # sole contributor: the average holds only its own rows
            else:
                self.targets[k] = received[k]
        return bits_up, bits_down

    def step(self, iteration: int):
        cfg = self.cfg
        if cfg.protocol == "il":
            self.local_phase(iteration)
            return np.zeros(cfg.num_devices), 0.0
        state = None
        noise_rng = None
        if not cfg.ideal_exchange:
            state = sample_channel(
                streams.derive_rng(cfg.master_seed, streams.CHANNEL, iteration),
                cfg.num_devices, iteration=iteration)
            if cfg.noise_enabled:
                noise_rng = streams.derive_rng(cfg.master_seed, streams.NOISE,
                                               iteration)
        if cfg.protocol == "fl":
            base = [w.copy() for w in self.weights]
            self.local_phase(iteration)
            updates = [self.weights[k] - base[k]
                       for k in range(cfg.num_devices)]
            receipts, bits_up, bits_down = self.exchange_fl(updates, state,
                                                            noise_rng)
            for k in range(cfg.num_devices):
                self.weights[k] = base[k] + receipts[k]
            return bits_up, bits_down
        self.local_phase(iteration)
        tables = self.logit_tables(iteration)
        return self.exchange_distillation(tables, state, noise_rng)


def run_experiment(config: ExperimentConfig) -> list[MetricsRecord]:
    """Execute one configured run and return its per-iteration metrics."""
    run = _Run(config)
    cfg = config
    records = []
    for iteration in range(1, cfg.global_iterations + 1):
        bits_up, bits_down = run.step(iteration)
        accuracies = [evaluate_accuracy(w, run.test, run.arch)
                      for w in run.weights]
        common = dict(iteration=iteration, protocol=cfg.protocol,
                      uplink_mode=cfg.uplink_mode,
                      downlink_mode=cfg.downlink_mode,
                      channel_uses=cfg.channel_uses, pu_db=cfg.pu_db,
                      pd_db=cfg.pd_db, seed=cfg.master_seed)
        records.append(MetricsRecord(device_scope="avg",
                                     test_accuracy=float(np.mean(accuracies)),
                                     bits_sent_uplink=float(np.mean(bits_up)),
                                     bits_sent_downlink=float(bits_down),
                                     **common))
        for k in range(cfg.num_devices):
            records.append(MetricsRecord(device_scope=str(k),
                                         test_accuracy=accuracies[k],
                                         bits_sent_uplink=float(bits_up[k]),
                                         bits_sent_downlink=float(bits_down),
                                         **common))
    return records


# -- configuration files -------------------------------------------------

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config_value(key: str, raw: str):
    if key not in _CONFIG_TYPES:
        raise ConfigurationError(f"unknown config key {key!r}")
    raw = raw.strip()
    if key in _OPTIONAL_INT and raw.lower() in ("none", ""):
        return None
    if key in _BOOL_FIELDS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"{key} expects a boolean, got {raw!r}")
    if key in ("protocol", "uplink_mode", "downlink_mode", "data", "model"):
        return raw
    kind = float if key in _FLOAT_FIELDS else int
    try:
        return kind(raw)
    except ValueError:
        raise ConfigurationError(
            f"{key} expects {'a number' if kind is float else 'an integer'}, "
            f"got {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped."""
    values = {}
    seen = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {number}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigurationError(
                f"line {number}: duplicate key {key!r} (first set on line "
                f"{seen[key]})")
        seen[key] = number
        try:
            values[key] = parse_config_value(key, raw)
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {number}: {exc}") from None
    return values


def config_from_file(path, **overrides) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        values = parse_config_text(f.read())
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    return replace(config, **{k: v for k, v in overrides.items()
                              if v is not None})
