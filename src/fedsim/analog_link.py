"""Over-the-air computation: analog joint source-channel coding.

Weight updates are magnitude-top-q sparsified, passed through a shared
Gaussian random projection, packed two reals per complex channel use, and
sent simultaneously at full power with transmit-side phase rotation so the
superposition arrives coherently. The receiver applies a scalar
minimum-mean-square-error factor and a soft-threshold message-passing
decoder to recover the sum. Logit tables are small enough to skip the
projection; they use integer-redundancy repetition coding instead.

The device axis is an array axis: the uplinks take the (K, W) or
(K, L, L) block of the devices' payloads, the downlinks return the block of
their copies, and the frames of one transmission are the rows of one
(K, T) block, each its payload read as complex (`.view(np.complex128)`).

Precision: the projection matrix is stored in float32 and its two products
(`ProjectionMatrix.project` and `backproject`) run in single precision, so
each decoder sweep reads half the bytes. Everything else, the decoder's
iterate, residual and threshold, the power scaling and the channel, stays
float64. Where the decode is well posed (2T well above the number of
nonzeros) it agrees with an all-float64 decode of the same inputs to a
relative squared error below 1e-12 (8e-15 to 7e-14 over the decodes of
one T=2500, W=1362 round). Past the message-passing phase transition
(small T) the iteration path is chaotic and no per-decode bound holds: at
T=100 the same comparison gave up to 0.16.

BLAS threads: the products go to the BLAS, and a BLAS that threads a call
(OpenBLAS does unless told otherwise) splits it at cuts that depend on its
thread count. At large projections the products' last bits, and so an
analog-FL run's weights and accuracies, then depend on that count: three
FL iterations at T=2500, W=1362 ended in different weights under one and
two OpenBLAS threads. The goldens and weight digests of `tests/golden/` use
projections too small to be threaded, and results reproduce across hosts
only under one BLAS thread (`OPENBLAS_NUM_THREADS=1`).

Second core: `_map` is the one place fedsim uses one. It serves two uses,
each a map over items that read no shared state: `draw_projections`, which
draws an FL run's uplink and downlink projections at its first exchange,
and `fl_analog_downlink`, whose K decodes depend only on their own
receptions. From `_PARALLEL_BYTES` (8 MiB of float32 projection) up, it
maps them in a pool of min(items, workers) threads when that is more than
one; otherwise in the calling thread, importing no thread module. The
draws call no BLAS and take one worker per usable CPU. Each decode's
products run on `_blas_threads()` CPUs, so the decodes take one worker per
that many: under one BLAS thread as many as the draws, under OpenBLAS's
default of one thread per CPU a single one, and they run one after
another. The bits do not depend on the pool: each matrix comes from its
own seeded generator in `draw_projection`, and each decode is the one
`cs_decode` call it would be alone (`ProjectionMatrix` says why `matrix`
is no `cached_property`). numpy's generator and its products release the
GIL, so the items overlap on two cores. With one BLAS thread
on a 2-core host, a pair of draws took 8.2 ms pooled against 13.3 ms one
after the other at 1 MiB (T=100), 55 against 97 ms at 8 MiB and 164
against 318 ms at 26 MiB (T=2500). The 10 downlink decodes of one FL round
at W=1362 took 1.02 times as long pooled as one after another at 1 and
2.6 MiB (T=100 and 250), 0.76 at 3.1 MiB, 0.57 to 0.63 at 4.2 to 6.2 MiB,
0.61 at 8 MiB and 0.54 to 0.58 at 10 to 26 MiB (T=1000 to 2500); medians
of 10 rounds, the same bits throughout. With two OpenBLAS threads per call
the decode pool lost at every size: 1.56 to 1.62 times as long at 2.6 to
6.2 MiB, 1.74 at 10 MiB and 1.86 at 26 MiB (10 decodes at T=2500: 1.78 to
2.12 s pooled, 0.86 to 0.99 s one after another), hence the BLAS count. So
the pool starts at 8 MiB, past the one-thread break-even of the decodes,
and draws of 1 to 8 MiB give up to about 40 ms a run to that shared gate.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, check_frame_power, downlink_bc, uplink_mac
from .compression import ErrorAccumulator, accumulate_error, top_k_sparsify
from .errors import ConfigurationError, DivergenceError

# Message-passing decoder: threshold multiplier on the noise estimate, the
# iteration cap, and the relative residual change that counts as a stall.
AMP_KAPPA = 1.5
AMP_MAX_ITER = 50
AMP_TOL = 1e-6

# The projection is drawn in row blocks of about this many bytes of float64
# draws, so no full-size float64 temporary is ever allocated.
_DRAW_BLOCK_BYTES = 1 << 18

# From a projection of this many bytes up, `_map` takes a pool (see "Second
# core" above).
_PARALLEL_BYTES = 8 << 20


def draw_projection(rows: int, cols: int, seed: int) -> np.ndarray:
    """The float32 projection of (rows, cols, seed), freshly drawn.

    Bit for bit `(default_rng(seed).standard_normal((rows, cols)) /
    sqrt(rows))` rounded to single precision, filled in row blocks so no
    full-size float64 temporary is allocated. It reads no shared state, so
    two draws may run at once in two threads.
    """
    rng = np.random.default_rng(seed)
    scale = math.sqrt(rows)
    out = np.empty((rows, cols), dtype=np.float32)
    step = max(1, _DRAW_BLOCK_BYTES // (8 * cols))
    for start in range(0, rows, step):
        block = out[start:start + step]
        block[...] = rng.standard_normal(block.shape) / scale
    return out


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    """The threads the BLAS gives one call, read as OpenBLAS reads them: the
    first positive count of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, else every usable CPU, and at most that many."""
    cpus = _usable_cpus()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), cpus)
    return cpus


def _map(fn, items, nbytes: int, workers: int) -> list:
    """`[fn(x) for x in items]`, in a pool of min(len(items), workers)
    threads when `nbytes` (the projection each call reads or draws) is at
    least `_PARALLEL_BYTES` and that pool has more than one thread. The
    pool is joined before this returns, and an error raised in a worker is
    raised here.
    """
    workers = min(len(items), workers)
    if nbytes < _PARALLEL_BYTES or workers < 2:
        return [fn(x) for x in items]
    # Imported here, not at `import fedsim`: it costs every worker 5-9 ms.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ProjectionMatrix:
    """Seeded Gaussian projection shared verbatim by transmitter and receiver.

    Entries are i.i.d. zero-mean with variance 1/rows, so projecting a
    vector roughly preserves its squared norm. Regenerating from the same
    (rows, cols, seed) triple is bit-exact.

    `matrix` is `draw_projection(rows, cols, seed)`, drawn on first use (or
    by `draw_projections`) and kept. It is not a `functools.cached_property`:
    on Python 3.11 that holds one lock for the whole class while it
    computes, so two pooled draws would run one after the other. Multiply
    through `project` and `backproject`, which take and return float64
    vectors; a float64 vector on the right of the float32 matrix would
    silently copy the whole matrix to float64. Each product is one float32
    call.
    """

    rows: int
    cols: int
    seed: int

    @property
    def matrix(self) -> np.ndarray:
        drawn = self.__dict__.get("_drawn")
        if drawn is None:
            drawn = draw_projection(self.rows, self.cols, self.seed)
            object.__setattr__(self, "_drawn", drawn)
        return drawn

    @property
    def nbytes(self) -> int:
        """The size of `matrix` (float32), known without drawing it."""
        return 4 * self.rows * self.cols

    def project(self, v: np.ndarray) -> np.ndarray:
        """A @ v in single precision, returned as float64."""
        return (self.matrix @ np.asarray(v, dtype=np.float32)).astype(
            np.float64)

    def backproject(self, z: np.ndarray) -> np.ndarray:
        """A.T @ z in single precision, returned as float64."""
        return (self.matrix.T @ np.asarray(z, dtype=np.float32)).astype(
            np.float64)


def draw_projections(projections: list) -> None:
    """Draw the matrix of each projection, through `_map` on the size of the
    largest, so that from `_PARALLEL_BYTES` up they are drawn at once."""
    _map(lambda p: p.matrix, projections,
         max((p.nbytes for p in projections), default=0), _usable_cpus())


def full_power_gain(x: np.ndarray, power: float, channel_uses: int) -> float:
    """Transmit scale sqrt(P*T)/||x||; zero for an all-zero payload, and
    DivergenceError for a norm that overflows (not a frame of zeros)."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return 0.0
    if not math.isfinite(norm):
        raise DivergenceError("payload norm overflows the analog link")
    return math.sqrt(power * channel_uses) / norm


def _derotation(gain: complex) -> complex:
    """The unit phasor that undoes a known channel phase (1 for a null gain)."""
    return 1.0 if gain == 0 else np.conj(gain) / abs(gain)


def precompensate(xs: np.ndarray, gains, power: float, channel_uses: int):
    """Scale each row to full power and pre-rotate away its channel phase.

    Takes the (K, n) block of complex payloads and the K gains; returns the
    (K, T) frame block and the (K,) transmit scales. A payload occupies the
    leading entries of its frame; unused channel uses (when the payload is
    shorter than T) carry zeros, so the whole energy budget P*T is spent on
    the payload. The frames pass `check_frame_power` before they return.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.shape[1] > channel_uses:
        raise ConfigurationError(f"payload of {xs.shape[1]} samples exceeds "
                                 f"{channel_uses} channel uses")
    # One norm per row: np.linalg.norm(xs, axis=1) differs in the last bit.
    scales = np.array([full_power_gain(x, power, channel_uses) for x in xs])
    frames = np.zeros((len(xs), channel_uses), dtype=np.complex128)
    for frame, x, scale, gain in zip(frames, xs, scales, gains):
        if scale > 0.0:
            frame[:x.size] = scale * _derotation(gain) * x
    check_frame_power(frames, power)
    return frames, scales


def mmse_factor_uplink(gammas: np.ndarray, habs: np.ndarray) -> float:
    """Scalar MMSE factor for the coherent multi-access superposition."""
    amps = np.asarray(gammas, dtype=np.float64) * np.asarray(habs, dtype=np.float64)
    if amps.size < 1:
        raise ValueError("need at least one transmitter")
    return float(amps.sum() / (0.5 + np.sum(amps ** 2)))


def mmse_factor_downlink(gamma: float, gabs: float) -> float:
    """Scalar MMSE factor at one device for the broadcast signal."""
    amp = gamma * gabs
    return amp / (0.5 + amp ** 2)


def _soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def cs_decode(projection: ProjectionMatrix, y_est: np.ndarray) -> np.ndarray:
    """Approximate message passing with a soft-threshold denoiser.

    The threshold tracks AMP_KAPPA times a robust noise estimate (median
    absolute deviation of the residual). Iterations stop after AMP_MAX_ITER,
    when the residual norm stalls (relative change below AMP_TOL), or when
    it grows past ten times its running minimum; the best-residual iterate
    is returned, which makes divergence a graceful fallback. It runs in the
    calling thread, each product one float32 call; `fl_analog_downlink`
    may run several of these decodes at once through `_map`.
    """
    m, n = projection.rows, projection.cols
    y = np.asarray(y_est, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match {m} rows")
    # The median of |z| is the mean of its middle order statistics (two, as
    # m = 2T is even on a link), and the norm is sqrt(z.z): both equal
    # np.median and np.linalg.norm bit for bit, with less overhead.
    middle = ((m - 1) // 2, m // 2)
    x = np.zeros(n)
    z = y.copy()
    best_x = x
    best_res = math.sqrt(float(z @ z))
    prev_res = best_res
    if best_res == 0.0:
        return best_x
    for _ in range(AMP_MAX_ITER):
        magnitudes = np.abs(z)
        magnitudes.partition(middle)
        sigma = float((magnitudes[middle[0]] + magnitudes[middle[1]]) / 2) \
            / 0.6745
        r = x + projection.backproject(z)
        x = _soft_threshold(r, AMP_KAPPA * sigma)
        onsager = (np.count_nonzero(x) / m) * z
        z = y - projection.project(x) + onsager
        res = math.sqrt(float(z @ z))
        if res < best_res:
            best_res = res
            best_x = x
        if res > 10.0 * best_res:
            break
        if abs(res - prev_res) <= AMP_TOL * max(prev_res, 1e-300):
            break
        prev_res = res
    return best_x


def _check_projection(projection: ProjectionMatrix, dim: int,
                      channel_uses: int) -> None:
    if projection.cols != dim or projection.rows != 2 * channel_uses:
        raise ConfigurationError("projection shape does not match link")


def _uplink(payloads: np.ndarray, state: ChannelState, power: float,
            channel_uses: int, noise_rng) -> np.ndarray:
    """Superpose the (K, n) block of the devices' real payloads over the MAC.

    Every device reads its payload as n/2 complex channel uses (an odd n
    raises ValueError) and transmits at full power, pre-rotated against its
    own channel phase. Returns the n reals of the MMSE-scaled sum.
    """
    xs = np.ascontiguousarray(payloads, dtype=np.float64).view(np.complex128)
    frames, gammas = precompensate(xs, state.uplink_gains, power,
                                   channel_uses)
    received = uplink_mac(frames, state, noise_rng)[:xs.shape[1]]
    factor = mmse_factor_uplink(gammas, np.abs(state.uplink_gains))
    return (factor * received).view(np.float64)


def _downlink(payload: np.ndarray, state: ChannelState, power: float,
              channel_uses: int, noise_rng) -> np.ndarray:
    """Broadcast one real payload of n reals; returns the (K, n) block of the
    devices' MMSE-scaled copies.

    Devices know their own downlink channel, so each one undoes its phase
    before scaling by its own MMSE factor. Each magnitude is Python's `abs`
    of one gain: `np.abs` of the gain array differs from it in the last bit.
    """
    x = np.ascontiguousarray(payload, dtype=np.float64).view(np.complex128)
    frames, (gamma,) = precompensate(x[None], [1.0 + 0j], power,
                                     channel_uses)
    received = downlink_bc(frames[0], state, noise_rng)[:, :x.size]
    for y, gain in zip(received, state.downlink_gains):
        y *= _derotation(gain)
        y *= mmse_factor_downlink(gamma, abs(gain))
    return received.view(np.float64)


def _project_sent(projection: ProjectionMatrix, sparse: np.ndarray):
    """`projection.project(sparse)`; a diverged update, too large for the
    single-precision product, raises DivergenceError instead of numpy's
    warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        sent = projection.project(sparse)
    if not np.all(np.isfinite(sent)):
        raise DivergenceError("weight update too large for the "
                              "single-precision analog link")
    return sent


def _repeat_table(tables: np.ndarray, channel_uses: int):
    """Repetition-code the tables of a (..., L, L) block into the 2T reals of
    the link: returns (rho, the (..., n) payload block).

    Each table, flattened, is repeated rho = floor(2T / L^2) times; a
    trailing zero pads the payload to the even length of a complex frame.
    """
    size = tables.shape[-2] * tables.shape[-1]
    rho = (2 * channel_uses) // size
    if rho < 1:
        raise ConfigurationError(
            "redundancy must be at least 1; the payload does not fit the "
            "channel (reduce the block or raise the channel uses)")
    n = rho * size
    payloads = np.zeros(tables.shape[:-2] + (n + n % 2,))
    payloads[..., :n] = np.tile(tables.reshape(tables.shape[:-2] + (size,)),
                                rho)
    return rho, payloads


def _mean_table(reals: np.ndarray, rho: int, shape) -> np.ndarray:
    """Inverse of _repeat_table over the last axis of `reals`: drop the
    padding and average the rho copies, dividing the noise variance by rho;
    each copy comes back as a table of `shape`."""
    lead, size = reals.shape[:-1], math.prod(shape)
    copies = reals[..., :rho * size].reshape(lead + (rho, size))
    return copies.mean(axis=-2).reshape(lead + tuple(shape))


def fl_analog_uplink(updates, accs, q: int, projection: ProjectionMatrix,
                     state: ChannelState, power: float, channel_uses: int,
                     noise_rng):
    """One over-the-air round for the (K, W) block of weight updates:
    returns (sum estimate, accs).

    Each device sparsifies its pending vector (update plus residual) and
    projects it; the receiver recovers the superposed sum by message
    passing. Residuals are advanced by exactly what was put on the air (the
    sparsified vector), not by what the receiver recovered.
    """
    updates = np.asarray(updates, dtype=np.float64)
    _check_projection(projection, updates.shape[1], channel_uses)
    sparse = [top_k_sparsify(u + acc.residual, q)
              for u, acc in zip(updates, accs)]
    new_accs = [accumulate_error(acc, u, s)
                for u, acc, s in zip(updates, accs, sparse)]
    received = _uplink(np.array([_project_sent(projection, s)
                                 for s in sparse]),
                       state, power, channel_uses, noise_rng)
    estimate = cs_decode(projection, received)
    return estimate, new_accs


def fd_analog_uplink(tables, state: ChannelState, power: float,
                     channel_uses: int, noise_rng) -> np.ndarray:
    """One over-the-air round for the (K, L, L) block of logit tables:
    returns the table-sum estimate."""
    tables = np.asarray(tables, dtype=np.float64)
    rho, payloads = _repeat_table(tables, channel_uses)
    received = _uplink(payloads, state, power, channel_uses, noise_rng)
    return _mean_table(received, rho, tables.shape[1:])


def fl_analog_downlink(update: np.ndarray, acc: ErrorAccumulator, q: int,
                       projection: ProjectionMatrix, state: ChannelState,
                       power: float, channel_uses: int, noise_rng):
    """Broadcast a weight vector analogically; returns (the (K, W) block of
    the devices' estimates, acc).

    Each device recovers the broadcast from its own reception with one
    `cs_decode` call. The K calls go through `_map`, so from
    `_PARALLEL_BYTES` up they run in a pool of min(K, CPUs // BLAS threads)
    threads when that is more than one; the estimates come back in device
    order either way (see "Second core" in the module docstring).
    """
    update = np.asarray(update, dtype=np.float64)
    _check_projection(projection, update.size, channel_uses)
    sparse = top_k_sparsify(update + acc.residual, q)
    new_acc = accumulate_error(acc, update, sparse)
    receptions = _downlink(_project_sent(projection, sparse), state, power,
                           channel_uses, noise_rng)
    # `cs_decode` is looked up when each call runs, so a wrapper patched
    # into this module sees every decode.
    return np.array(_map(lambda y: cs_decode(projection, y), receptions,
                         projection.nbytes,
                         _usable_cpus() // _blas_threads())), new_acc


def fd_analog_downlink(table: np.ndarray, state: ChannelState, power: float,
                       channel_uses: int, noise_rng) -> np.ndarray:
    """Broadcast a logit table analogically; returns the (K, L, L) block of
    the devices' table estimates."""
    table = np.asarray(table, dtype=np.float64)
    rho, payload = _repeat_table(table, channel_uses)
    return _mean_table(_downlink(payload, state, power, channel_uses,
                                 noise_rng), rho, table.shape)
