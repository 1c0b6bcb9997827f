"""Experiment orchestration: four training protocols over nine link pairs.

One experiment runs a fixed number of global iterations. Each iteration is
a local training phase on every device followed by one exchange (IL skips
it): each device sends a payload up the uplink, the server averages what
arrived, and the average is broadcast back down. Each direction is in one
of three modes, digital, analog or ideal (exact, for 0 bits: the lossless
reference beside a real direction). FL sends weight updates, with error
feedback on both sides; FD and HFD send (L, L) logit tables.
`_Run.exchange` moves both kinds, and `_Run._codec` is the one place that
picks the link calls for a kind. An empty weight payload is a zero update;
a table exchange that delivers nothing keeps the previous targets.

Per-device state carries the device axis first: `_Run.weights` is (K, W),
`_Run.targets` is (K, L, L) with the (K,) mask `has_target`, and payloads
and what comes back down are (K, ...) blocks.

One rule, `_target`, says what a distillation device learns toward: a
contributor takes the leave-one-out average of the others, a sole
contributor keeps what it had, and a device left out of the average (its
digital payload dropped out, or it does not hold the label) takes the
average whole. It is one array call over all devices, for FD's logit
targets and for HFD's offline per-label covariates; a label without a
target is a zero logit row in FD and no pseudo-sample in HFD. An FD
device learns toward the soft label that `learning._pass` builds from its
target row, so a zero row is a uniform target: with weight reg_weight it
pulls the prediction for that label toward 1/L. Everything is
deterministic given the master seed."""

import itertools
import numbers
import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import streams
from .analog_link import (
    ProjectionMatrix, fd_analog_downlink, fd_analog_uplink, fl_analog_downlink,
    fl_analog_uplink,
)
from .channel import sample_channel
from .compression import MAX_QUANTIZER_BITS, ErrorAccumulator
from .datasets import load_dataset, parse_source, partition_shards
from .digital_link import (
    downlink_budget, fd_digital_decode, fd_digital_encode, fl_digital_decode,
    fl_digital_encode, uplink_budget,
)
from .errors import ConfigurationError, DivergenceError
from .learning import (
    MlpArchitecture, average_logits, evaluate_accuracy, forward_logits_batch,
    hfd_distill_step, init_weights, label_means, run_local_epochs,
)

PROTOCOLS = ("il", "fl", "fd", "hfd")
LINK_MODES = ("digital", "analog", "ideal")
# A `link` settings value, the uplink's and the downlink's initials: `ai`.
LINK_CODES = {u[0] + d[0]: (u, d) for u in LINK_MODES for d in LINK_MODES}
# pu_db and pd_db lie within this many dB of 0. Every protocol and link
# pair runs clean there; from about 3000 dB the link arithmetic overflows
# float64 (the MMSE factors first, then the 10^(dB/10) power itself).
MAX_ABS_DB = 300.0

CSV_HEADER = ("iteration,protocol,uplink,downlink,T,pu_db,pd_db,seed,scope,"
              "accuracy,bits_up,bits_down")


def _check_kind(name: str, kind, value) -> None:
    """Raise unless `value` is of `kind`, the annotation of field `name`."""
    if kind is int:
        least = 0 if name == "master_seed" else 1
        wanted = f"an integer >= {least}"
        ok = isinstance(value, numbers.Integral) \
            and not isinstance(value, bool) and value >= least
    elif kind is float:
        wanted = "a number"
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    elif kind is bool:
        wanted = "True or False"
        ok = isinstance(value, (bool, np.bool_))
    else:
        wanted = "a string"
        ok = isinstance(value, str)
    if not ok:
        raise ConfigurationError(f"{name} must be {wanted}, got {value!r}")


def _check_logit_room(cfg, num_labels: int) -> None:
    """An analog logit exchange repeats the L x L table over the 2T reals."""
    uses_analog = "analog" in (cfg.uplink_mode, cfg.downlink_mode)
    if cfg.protocol in ("fd", "hfd") and uses_analog \
            and 2 * cfg.channel_uses < num_labels ** 2:
        raise ConfigurationError(
            f"channel_uses: analog logit exchange needs 2T >= L^2; got T="
            f"{cfg.channel_uses}, L={num_labels}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one run; field names double as config-file keys.

    A field's annotation is its kind, which `__post_init__` checks and
    `parse_settings` reads: `int` (>= 1; `master_seed` >= 0), `float`,
    `bool` or `str`.
    """

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
    reg_weight: float = 0.5
    local_epochs: int = 1
    batch_size: int = 8
    samples_per_device: int = 64
    master_seed: int = 0
    data: str = "synthetic"
    model: str = "mlp:64,32"
    hfd_distill_steps: int = 5
    test_samples: int = 1000
    noise_enabled: bool = True

    def __post_init__(self):
        for field in fields(self):
            _check_kind(field.name, field.type, getattr(self, field.name))
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"protocol: unknown value {self.protocol!r}")
        for name in ("uplink_mode", "downlink_mode"):
            if getattr(self, name) not in LINK_MODES:
                raise ConfigurationError(f"{name} must be digital/analog/"
                                         f"ideal, got {getattr(self, name)!r}")
        if self.quantizer_bits > MAX_QUANTIZER_BITS:
            raise ConfigurationError(
                f"quantizer_bits must be at most {MAX_QUANTIZER_BITS} (the "
                f"significand of a float64), got {self.quantizer_bits}")
        for name in ("pu_db", "pd_db"):
            value = getattr(self, name)
            if not abs(value) <= MAX_ABS_DB:  # also true for NaN
                raise ConfigurationError(
                    f"{name} must be a finite dB value in [-{MAX_ABS_DB:g}, "
                    f"{MAX_ABS_DB:g}], got {value!r}")
        # Compared as given: an int too large for a float must not reach a
        # float conversion.
        if not 0 < self.alpha <= sys.float_info.max:  # also false for NaN
            raise ConfigurationError("alpha must be a positive finite step size")
        if not 0.0 <= self.reg_weight <= 1.0:
            raise ConfigurationError("reg_weight must lie in [0, 1]")
        # The model's input and output widths come from the data.
        parsers = {"data": parse_source,
                   "model": lambda d: MlpArchitecture.from_descriptor(d, 1, 1)}
        parsed = {}
        for name, parse in parsers.items():
            value = getattr(self, name)
            try:
                parsed[name] = parse(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{name}: bad descriptor {value!r} ({exc})") from None
        # Synthetic data names its class count; an IDX pair's is checked by
        # _Run once the labels are loaded.
        source = parsed["data"]
        if source["kind"] == "synthetic":
            _check_logit_room(self, source["classes"])

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


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def write_metrics(records, path) -> None:
    """CSV with a fixed schema: UTF-8, LF endings, 6 significant digits.

    The columns follow MetricsRecord's field order, under CSV_HEADER's names.
    """
    lines = [CSV_HEADER] + [",".join(map(_fmt, astuple(r))) for r in records]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _target(average, own, contributed, count):
    """What each device learns toward from an average of `count` payloads.

    Returns (values, has). A contributor takes the leave-one-out average of
    the others, `(count * average - own) / (count - 1)`; a device left out
    of the average takes it whole. `has` is False where no one else is in
    the average (a sole contributor, or a count of 0), and `values` means
    nothing there. `contributed` and `count` broadcast against the leading
    axes of `own`, and `has` has their shape.
    """
    has = np.asarray(count) > contributed
    trailing = (1,) * (np.ndim(own) - np.ndim(contributed))
    contributed = np.reshape(contributed, np.shape(contributed) + trailing)
    count = np.reshape(count, np.shape(count) + trailing)
    others = (count * average - own) / np.maximum(count - 1, 1)
    return np.where(contributed, others, average), has


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
        self.test = remainder.subset(np.arange(cfg.test_samples))
        self.num_labels = pool.num_classes
        self.arch = MlpArchitecture.from_descriptor(cfg.model, pool.dim,
                                                    self.num_labels)
        self.dim = self.arch.param_count

        _check_logit_room(cfg, self.num_labels)

        # Row k holds device k's weights, drawn from device k's seed; FL's
        # update semantics need one common reference point, so every FL
        # device draws the first device's.
        fl = cfg.protocol == "fl"
        self.weights = np.array([
            init_weights(self.arch,
                         streams.derive_rng(seed, streams.INIT, 0 if fl else k))
            for k in range(cfg.num_devices)])

        # Analog FL keeps the floor(4T/5) largest entries, 1 to W of them.
        self.fl_q = max(1, min((4 * cfg.channel_uses) // 5, self.dim))

        # Error feedback: weight updates only; tables carry none.
        self.up_accs = [ErrorAccumulator.zeros(self.dim) if fl else None
                        for _ in range(cfg.num_devices)]
        self.down_acc = ErrorAccumulator.zeros(self.dim) if fl else None
        # One projection per direction in which FL sends weights over an
        # analog link, up (key 0) and down (key 1); None where none is sent.
        self.proj_up, self.proj_down = (
            ProjectionMatrix(2 * cfg.channel_uses, self.dim,
                             streams.derive_seed(seed, streams.PROJECTION, d))
            if fl and mode == "analog" else None
            for d, mode in enumerate((cfg.uplink_mode, cfg.downlink_mode)))

        # Device k's (L, L) logit-row target, once has_target[k] is set.
        self.targets = np.zeros((cfg.num_devices, self.num_labels,
                                 self.num_labels))
        self.has_target = np.zeros(cfg.num_devices, dtype=bool)
        self.pseudo_batches = None                # HFD (covariates, labels)
        if cfg.protocol == "hfd":
            self._offline_covariate_exchange()

    # -- HFD offline phase: covariate means over an ideal channel --

    def _offline_covariate_exchange(self):
        """Give device k its pseudo-batch `pseudo_batches[k]`, a pair
        (covariates, labels): its `_target` of each label's average
        covariate, one row per label that has one, labels ascending."""
        means, present = map(np.array, zip(*(
            label_means(shard.covariates, shard.labels, self.num_labels)
            for shard in self.shards)))
        counts = present.sum(axis=0)
        # An absent label's mean is a zero row, so the sum over devices is
        # the sum over its holders, added in device order.
        averages = means.sum(axis=0) / np.maximum(counts, 1)[:, None]
        targets, has = _target(averages, means, present, counts)
        self.pseudo_batches = [(rows[mask], np.flatnonzero(mask))
                               for rows, mask in zip(targets, has)]

    # -- per-iteration phases --

    def local_phase(self, iteration: int):
        cfg = self.cfg
        for k in range(cfg.num_devices):
            rng = streams.derive_rng(cfg.master_seed, streams.TRAIN, k,
                                     iteration)
            if cfg.protocol == "hfd" and self.has_target[k]:
                self.weights[k] = hfd_distill_step(
                    self.weights[k], *self.pseudo_batches[k],
                    self.targets[k], cfg.alpha, self.arch,
                    cfg.hfd_distill_steps, reg_weight=cfg.reg_weight)
            fd = cfg.protocol == "fd" and self.has_target[k]
            self.weights[k] = run_local_epochs(
                self.weights[k], self.shards[k], cfg.alpha, cfg.local_epochs,
                cfg.batch_size, rng, self.arch,
                target_table=self.targets[k] if fd else None,
                reg_weight=cfg.reg_weight if fd else 0.0)

    def logit_tables(self) -> np.ndarray:
        """The (K, L, L) block of the devices' tables: FD's per-label mean
        logits over each shard, HFD's logits at each device's
        pseudo-samples; a label with no row in either is a zero row.

        Weights large enough to overflow the logits raise DivergenceError
        here, before any link or target sees the table.
        """
        cfg = self.cfg
        tables = np.zeros((cfg.num_devices, self.num_labels, self.num_labels))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (w, shard) in enumerate(zip(self.weights, self.shards)):
                if cfg.protocol == "fd":
                    tables[k] = average_logits(w, shard, self.arch)
                else:
                    covariates, labels = self.pseudo_batches[k]
                    tables[k, labels] = forward_logits_batch(w, covariates,
                                                             self.arch)
        if not np.all(np.isfinite(tables)):
            raise DivergenceError("non-finite logit table")
        return tables

    # -- the exchange --

    def _codec(self, state, noise_rng):
        """The link calls for this run's payload kind, one signature each.

        Returns (encode, decode, air_up, air_down):
        encode(x, acc, budget) -> (payload, acc); decode(payload) -> x;
        air_up(xs, accs) -> (sum estimate, accs);
        air_down(x, acc) -> (per-device estimates, acc).
        Weight updates carry their error feedback in `acc`; tables carry
        none and pass it through. Each link function is looked up by its
        name in this module when it runs; an ideal direction calls none.
        """
        cfg = self.cfg
        bits = cfg.quantizer_bits
        up = (state, cfg.uplink_power, cfg.channel_uses, noise_rng)
        down = (state, cfg.downlink_power, cfg.channel_uses, noise_rng)
        if cfg.protocol == "fl":
            q = self.fl_q
            return (
                lambda x, acc, budget: fl_digital_encode(x, acc, budget, bits),
                lambda payload: fl_digital_decode(payload, self.dim),
                lambda xs, accs: fl_analog_uplink(xs, accs, q, self.proj_up,
                                                  *up),
                lambda x, acc: fl_analog_downlink(x, acc, q, self.proj_down,
                                                  *down))
        return (
            lambda x, acc, budget: (fd_digital_encode(x, budget, bits), acc),
            lambda payload: fd_digital_decode(payload, self.num_labels),
            lambda xs, accs: (fd_analog_uplink(xs, *up), accs),
            lambda x, acc: (fd_analog_downlink(x, *down), acc))

    def exchange(self, payloads, state, noise_rng):
        """One round for either payload kind: up, average, broadcast back.

        `payloads` is the (K, ...) block of the devices' payloads. Returns
        (received, contributed, bits_up, bits_down): row k of the block
        `received` is the average as device k got it, and contributed[k]
        says whether device k's payload reached that average (a digital
        payload that does not fit its budget drops out). An ideal direction
        is exact, sends 0 bits and leaves FL's error feedback on its side
        at zero. An empty weight payload is a zero update: a weight average
        that no payload reached still goes down as zeros, since sending it
        moves `down_acc`. An empty table payload carries nothing: a table
        exchange with no uplink survivor or an empty broadcast delivers
        nothing, and received is None.
        """
        cfg = self.cfg
        k_dev = cfg.num_devices
        weights = cfg.protocol == "fl"
        bits_up, bits_down = np.zeros(k_dev), 0.0
        contributed = np.ones(k_dev, dtype=bool)
        encode, decode, air_up, air_down = self._codec(state, noise_rng)

        average = None
        if cfg.uplink_mode == "ideal":
            average = np.mean(payloads, axis=0)
        elif cfg.uplink_mode == "analog":
            estimate, self.up_accs = air_up(payloads, self.up_accs)
            average = estimate / k_dev
        else:
            decoded = []
            for k in range(k_dev):
                budget = uplink_budget(cfg.channel_uses, k_dev,
                                       state.uplink_gains[k], cfg.uplink_power)
                payload, self.up_accs[k] = encode(payloads[k],
                                                  self.up_accs[k], budget)
                bits_up[k] = payload.bit_count
                contributed[k] = not payload.is_empty
                if contributed[k]:
                    decoded.append(decode(payload))
            if decoded:
                average = np.mean(decoded, axis=0)
            elif weights:
                average = np.zeros(self.dim)

        received = None
        if average is not None and cfg.downlink_mode == "ideal":
            received = np.broadcast_to(average, payloads.shape)
        elif average is not None and cfg.downlink_mode == "analog":
            received, self.down_acc = air_down(average, self.down_acc)
        elif average is not None:
            budget = downlink_budget(cfg.channel_uses, state.downlink_gains,
                                     cfg.downlink_power)
            payload, self.down_acc = encode(average, self.down_acc, budget)
            bits_down = payload.bit_count
            if weights or not payload.is_empty:
                received = np.broadcast_to(decode(payload), payloads.shape)
        return received, contributed, bits_up, bits_down

    def step(self, iteration: int):
        """Local training, then (but for IL) one exchange.

        Returns (per-device uplink bits, downlink bits). FL devices send
        their weight update and add the received average to the weights
        they started the round with; FD and HFD devices send logit tables
        and take their `_target` of the received average as the new target.
        Every round draws its channel, which an ideal direction never reads.
        """
        cfg = self.cfg
        k_dev = cfg.num_devices
        weights = cfg.protocol == "fl"
        start = self.weights.copy() if weights else None
        self.local_phase(iteration)
        if cfg.protocol == "il":
            return np.zeros(k_dev), 0.0
        state = sample_channel(
            streams.derive_rng(cfg.master_seed, streams.CHANNEL, iteration),
            k_dev)
        noise_rng = (streams.derive_rng(cfg.master_seed, streams.NOISE,
                                        iteration)
                     if cfg.noise_enabled else None)
        payloads = self.weights - start if weights else self.logit_tables()
        received, contributed, bits_up, bits_down = self.exchange(
            payloads, state, noise_rng)
        if weights:
            self.weights = start + received
        elif received is not None:
            targets, has = _target(received, payloads, contributed,
                                   contributed.sum())
            self.targets[has] = targets[has]
            self.has_target |= has
        return bits_up, bits_down


def run_experiment(config: ExperimentConfig) -> list[MetricsRecord]:
    """Execute one configured run and return its per-iteration metrics."""
    run = _Run(config)
    cfg = config
    records = []
    for iteration in range(1, cfg.global_iterations + 1):
        # Every divergence, in training, on a link or in evaluation, names
        # the step size here.
        try:
            bits_up, bits_down = run.step(iteration)
            accuracies = [evaluate_accuracy(w, run.test, run.arch)
                          for w in run.weights]
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} at step size {cfg.alpha:g}") from None
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


# -- settings files ------------------------------------------------------

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


@dataclass(frozen=True)
class PuOffset:
    """A `pd_db = pu+<offset>` value: the uplink SNR plus `db`."""

    db: float


def parse_value(key: str, raw: str):
    """Read one settings value of `key` (a field name or `link`) from text."""
    if key == "link":
        if raw not in LINK_CODES:
            raise ConfigurationError(f"unknown link code {raw!r}; pick one of "
                                     f"{'/'.join(LINK_CODES)}")
        return LINK_CODES[raw]
    if key not in _CONFIG_TYPES:
        raise ConfigurationError(f"unknown config key {key!r}")
    kind = _CONFIG_TYPES[key]
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"{key} expects a boolean, got {raw!r}")
    if kind is str:
        value = raw
    else:
        number = float if kind is float else int
        expects = "a number" if kind is float else "an integer"
        offset = key == "pd_db" and raw.startswith("pu")
        try:
            value = PuOffset(float(raw[2:] or 0)) if offset else number(raw)
        except ValueError:
            if key == "pd_db":
                expects += " or pu+<offset>"
            raise ConfigurationError(
                f"{key} expects {expects}, got {raw!r}") from None
    # Every ExperimentConfig check but the 2T >= L^2 one reads one field, and
    # that one needs an analog distillation protocol, which the default is
    # not; so a default config with this one value set checks it while its
    # line is known.
    ExperimentConfig(**{key: value.db if isinstance(value, PuOffset)
                        else value})
    return value


def parse_settings(text: str) -> dict:
    """Read the settings of `fedsim run --config` and `fedsim sweep --grid`.

    Returns {key: [values]}. Each line is `key = v1, v2, ...` with an
    ExperimentConfig field as key, and the field's annotation is the kind
    its values are read as; a sweep crosses the values and a config file
    gives one per key. Blank lines and # comments are skipped. `data` and
    `model` take the rest of the line as one value (`model = mlp:8,4`).
    `link = dd, ai, ...` sets uplink_mode and downlink_mode together;
    `pd_db = pu+<offset>` follows each point's pu_db. A key may appear
    once (`link` sets both modes), and every value is checked here, so an
    error names its line.
    """
    settings = {}
    seen = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {number}: expected key = values")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        names = ("uplink_mode", "downlink_mode") if key == "link" else (key,)
        for name in names:
            if name in seen:
                raise ConfigurationError(
                    f"line {number}: duplicate key {name!r} (first set on "
                    f"line {seen[name]})")
            seen[name] = number
        pieces = [raw] if key in ("data", "model") else raw.split(",")
        try:
            settings[key] = [parse_value(key, p.strip()) for p in pieces]
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {number}: {exc}") from None
    return settings


def expand_settings(settings: dict) -> list[ExperimentConfig]:
    """The ExperimentConfig of every point of the settings' cross product.

    A `link` value, an (uplink_mode, downlink_mode) pair, wins over either
    mode. Every config is built, and so validated, before the list is
    returned.
    """
    configs = []
    for combo in itertools.product(*settings.values()):
        point = dict(zip(settings, combo))
        if "link" in point:
            point["uplink_mode"], point["downlink_mode"] = point.pop("link")
        pd = point.get("pd_db")
        if isinstance(pd, PuOffset):
            point["pd_db"] = point.get("pu_db", ExperimentConfig.pu_db) + pd.db
        configs.append(ExperimentConfig(**point))
    return configs
