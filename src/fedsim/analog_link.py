"""Over-the-air computation: analog joint source-channel coding.

Weight updates are magnitude-top-q sparsified, passed through a shared
Gaussian random projection, packed two reals per complex channel use, and
sent simultaneously at full power with transmit-side phase rotation so the
superposition arrives coherently. The receiver applies a scalar
minimum-mean-square-error factor and a soft-threshold message-passing
decoder to recover the sum. Logit tables are small enough to skip the
projection; they use integer-redundancy repetition coding instead.

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

Drawing: an FL run over two analog links draws its uplink and downlink
projections at once, one in a short-lived helper thread (see
`orchestrator._Run._draw_projections`). That is still bit-exact: each
matrix comes from its own seeded generator and is filled by
`draw_projection`, which reads no shared state, and numpy's generator
releases the GIL while it fills, so the two draws overlap on two cores.
`ProjectionMatrix.matrix` calls that function and keeps the result itself
rather than being a `functools.cached_property`: on Python 3.11 that
descriptor holds one lock for the whole class while it computes, so two
threads reading `.matrix` of two different instances would draw one after
the other.

Products: inside `cs_decode`, a projection of at least `_PARALLEL_BYTES`
(8 MiB of float32) takes each product as two blocks, one computed by a
helper thread while the caller computes the other (or after it, when the
helper has not started by then). `project` (A @ v) splits A's rows at
`_row_cut`, and `backproject` (A.T @ z) splits A's columns at
`_column_cut`, so each block writes its own slice of the output.
Elsewhere (the encode-side `project` calls), and when the process may use
only one CPU, each product is one call. Whether two blocks give the single
call's bits depends on the BLAS kernel and its thread count, so
`ProjectionMatrix.cuts` takes each cut only once one probe product split
there has equalled the single call byte for byte on that matrix, and keeps
one call otherwise: the results are the single call's on any core count.
Checked: on OpenBLAS 0.3.31's SkylakeX kernels with one thread per call,
the blocks equal the single call at every 256-row cut leaving 16 rows or
more (272 to 559 rows and seven counts up to 9000; 97, 1362 and 7850
columns) and at the `_column_cut` of every width from 32 to 4199 and of 11
widths up to 25450, 5000x1362 among them. With two BLAS threads the row
cuts still match, but the column cut at 5000x1362 does not, so there
`backproject` keeps one call. Threshold: with one BLAS thread on a 2-core
host, a 1 MB product pair took 3 to 4 times as long split, and a whole
`cs_decode` at W=1362 took 1.11 times as long at 3.1 MiB, 0.74 to 0.87 at
4 to 5 MiB, 0.70 to 0.76 at 7 to 8 MiB, 0.56 at 10 MiB and 0.63 at 26 MiB
(T=2500); 8 MiB keeps a margin over the break-even and keeps FL at T=100
(1 MB) on one call. Under a BLAS that threads each call itself the helper
competes with its threads for the cores: with two OpenBLAS threads on 2
cores, an `amp_T2500` iteration took 0.71 s against 0.56 s at one call per
product (medians of 8 passes; same bits).

Decodes: the K downlink decodes of `fl_analog_downlink` depend only on
their own receptions, so from the same `_PARALLEL_BYTES` up, when the
process may use more than one CPU, they run concurrently in a pool of
min(K, CPUs) threads. A decode running beside another takes each product as
one call (the private `_split=False` of `cs_decode`), so no pool nests in
the pool and at most that many threads are busy; the lone uplink decode
keeps the split products. Each concurrent decode is thus the single-call
decode, which a split decode equals by its probe, so the bits need no probe
of their own. Threshold: with one BLAS thread on a 2-core host, the 10
downlink decodes of one FL round at W=1362 took 1.03 to 1.05 times as long
concurrently at 1 to 2.6 MiB (T=100 and 250), 0.59 to 0.69 at 3.1 to 6.2
MiB (one call per product either way) and 0.62 to 0.69 at 8 to 26 MiB
(against split products); medians of 10 to 12 rounds. With two OpenBLAS
threads per call the pool never won: 1.21 times as long at 2.6 MiB, 2.0 to
2.3 at 3.4 to 6.2 MiB, 0.98 at 10 MiB (a tie) and 1.27 at 26 MiB, with the
same bits. So the pool shares the split's 8 MiB, which keeps it off the
sizes where a threaded BLAS loses most.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import AnalogFrame, ChannelState, downlink_bc, uplink_mac
from .compression import ErrorAccumulator, accumulate_error, top_k_sparsify
from .errors import ConfigurationError

# Message-passing decoder: threshold multiplier on the noise estimate, the
# iteration cap, and the relative residual change that counts as a stall.
AMP_KAPPA = 1.5
AMP_MAX_ITER = 50
AMP_TOL = 1e-6

# The projection is drawn in row blocks of about this many bytes of float64
# draws, so no full-size float64 temporary is ever allocated.
_DRAW_BLOCK_BYTES = 1 << 18

# From a projection of this many bytes up, each product inside a lone decode
# is two blocks and the downlink decodes run concurrently (see "Products"
# and "Decodes" above).
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


def _row_cut(rows: int) -> int:
    """Where `project` splits A's rows: the multiple of 256 nearest the
    middle, or 0 (one block) when a block would keep fewer than 16 rows."""
    cut = 256 * round(rows / 512)
    return cut if 16 <= cut <= rows - 16 else 0


def _column_cut(cols: int) -> int:
    """Where `backproject` splits A's columns, or 0 for one block.

    OpenBLAS's kernel for A.T @ z walks the outputs in chunks of 4096. It
    runs the first (cols & -4) % 16 outputs of the last chunk apart from
    its 16-wide loop, and the last cols % 4 after it. A cut keeps every
    output on the path it takes in the single call when it falls on a
    chunk boundary, or at that head's offset mod 16 past the last chunk's
    start (anywhere, when there is no head). Of those, this is the one
    nearest the middle, unless a block would keep fewer than 16 columns.
    """
    body = cols & -4
    head = body % 16
    start = body - body % 4096 if head else 0
    aligned = max(start + head, head + 16 * round((cols / 2 - head) / 16))
    chunked = 4096 * round(cols / 8192)
    cut = min((aligned, chunked), key=lambda c: abs(c - cols / 2))
    return cut if 16 <= cut <= cols - 16 else 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _exact_cut(matrix: np.ndarray, cut: int) -> int:
    """`cut`, if matrix @ probe as two row blocks split there equals the
    single call byte for byte; else 0 (one call)."""
    if not cut:
        return 0
    probe = np.random.default_rng(0).standard_normal(
        matrix.shape[1]).astype(np.float32)
    out = np.empty(matrix.shape[0], dtype=np.float32)
    np.matmul(matrix[:cut], probe, out=out[:cut])
    np.matmul(matrix[cut:], probe, out=out[cut:])
    return cut if out.tobytes() == (matrix @ probe).tobytes() else 0


def _product(matrix: np.ndarray, v: np.ndarray, cut: int, pool) -> np.ndarray:
    """matrix @ v in single precision as float64: with a `pool` and a
    nonzero `cut`, two row blocks split at `cut`, the second computed in
    the pool; otherwise one call.

    When the pool has not started the second block by the time the first
    is done (its core is busy elsewhere), the caller computes it as well:
    a block is the same call in either thread, so the bits do not change.
    """
    v32 = np.asarray(v, dtype=np.float32)
    if pool is None or not cut:
        return (matrix @ v32).astype(np.float64)
    out = np.empty(matrix.shape[0], dtype=np.float32)
    second = pool.submit(np.matmul, matrix[cut:], v32, out=out[cut:])
    np.matmul(matrix[:cut], v32, out=out[:cut])
    if second.cancel():
        np.matmul(matrix[cut:], v32, out=out[cut:])
    else:
        second.result()
    return out.astype(np.float64)


@dataclass(frozen=True)
class ProjectionMatrix:
    """Seeded Gaussian projection shared verbatim by transmitter and receiver.

    Entries are i.i.d. zero-mean with variance 1/rows, so projecting a
    vector roughly preserves its squared norm. Regenerating from the same
    (rows, cols, seed) triple is bit-exact.

    `matrix` is `draw_projection(rows, cols, seed)`, drawn on first use and
    kept. Multiply through `project` and `backproject`, which take and
    return float64 vectors; a float64 vector on the right of the float32
    matrix would silently copy the whole matrix to float64. Given a `pool`
    (a one-worker `concurrent.futures` executor), each product is two
    blocks at `cuts`, the second computed in the pool (see "Products" in
    the module docstring).
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

    @property
    def cuts(self) -> tuple[int, int]:
        """(row cut of `project`, column cut of `backproject`), found and
        probed on first use, then kept; 0 is one call, as below
        `_PARALLEL_BYTES` or where the blocks would change the bits."""
        cuts = self.__dict__.get("_cuts")
        if cuts is None:
            cuts = (0, 0)
            if self.nbytes >= _PARALLEL_BYTES:
                cuts = (_exact_cut(self.matrix, _row_cut(self.rows)),
                        _exact_cut(self.matrix.T, _column_cut(self.cols)))
            object.__setattr__(self, "_cuts", cuts)
        return cuts

    def project(self, v: np.ndarray, pool=None) -> np.ndarray:
        """A @ v in single precision, returned as float64."""
        return _product(self.matrix, v, self.cuts[0] if pool else 0, pool)

    def backproject(self, z: np.ndarray, pool=None) -> np.ndarray:
        """A.T @ z in single precision, returned as float64."""
        return _product(self.matrix.T, z, self.cuts[1] if pool else 0, pool)


def pack_complex(v: np.ndarray) -> np.ndarray:
    """Fold an even-length real vector into complex samples, two per use."""
    v = np.asarray(v, dtype=np.float64)
    if v.size % 2:
        raise ValueError("pack_complex needs an even length; pad upstream")
    return v[0::2] + 1j * v[1::2]


def unpack_complex(x: np.ndarray) -> np.ndarray:
    """Inverse of pack_complex."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.empty(2 * x.size, dtype=np.float64)
    out[0::2] = x.real
    out[1::2] = x.imag
    return out


def full_power_gain(x: np.ndarray, power: float, channel_uses: int) -> float:
    """Transmit scale sqrt(P*T)/||x||; zero for an all-zero payload."""
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return 0.0
    return math.sqrt(power * channel_uses) / norm


def _derotation(gain: complex) -> complex:
    """The unit phasor that undoes a known channel phase (1 for a null gain)."""
    return 1.0 if gain == 0 else np.conj(gain) / abs(gain)


def precompensate(x: np.ndarray, gain: complex, power: float,
                  channel_uses: int) -> AnalogFrame:
    """Scale to full power and pre-rotate away the channel phase.

    The payload occupies the leading entries of the frame; unused channel
    uses (when the payload is shorter than T) carry zeros, so the whole
    energy budget P*T is spent on the payload.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size > channel_uses:
        raise ConfigurationError(
            f"payload of {x.size} samples exceeds {channel_uses} channel uses")
    samples = np.zeros(channel_uses, dtype=np.complex128)
    scale = full_power_gain(x, power, channel_uses)
    if scale > 0.0:
        samples[:x.size] = scale * _derotation(gain) * x
    return AnalogFrame(samples=samples, power_budget=power)


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


def repetition_encode(s: np.ndarray, rho: int) -> np.ndarray:
    """Stack the block rho times."""
    if rho < 1:
        raise ConfigurationError(
            "redundancy must be at least 1; the payload does not fit the "
            "channel (reduce the block or raise the channel uses)")
    return np.tile(np.asarray(s, dtype=np.float64), rho)


def repetition_decode(v: np.ndarray, rho: int) -> np.ndarray:
    """Average the rho repetitions; cuts noise variance by the redundancy."""
    v = np.asarray(v, dtype=np.float64)
    if rho < 1 or v.size % rho:
        raise ValueError(f"length {v.size} not divisible by redundancy {rho}")
    return v.reshape(rho, v.size // rho).mean(axis=0)


def _soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def cs_decode(projection: ProjectionMatrix, y_est: np.ndarray,
              _split: bool = True) -> np.ndarray:
    """Approximate message passing with a soft-threshold denoiser.

    The threshold tracks AMP_KAPPA times a robust noise estimate (median
    absolute deviation of the residual). Iterations stop after AMP_MAX_ITER,
    when the residual norm stalls (relative change below AMP_TOL), or when
    it grows past ten times its running minimum; the best-residual iterate
    is returned, which makes divergence a graceful fallback. A projection
    split into blocks (`ProjectionMatrix.cuts`) gets a one-worker pool for
    the call when the process may use more than one CPU, unless `_split`
    is false: a decode that runs beside other decodes (see
    `fl_analog_downlink`) takes every product as one call.
    """
    m = projection.rows
    y = np.asarray(y_est, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match {m} rows")
    if not _split or _usable_cpus() < 2 or not any(projection.cuts):
        return _amp(projection, y, None)
    # Imported here, not at `import fedsim`: it costs every worker 5-9 ms.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as pool:
        return _amp(projection, y, pool)


def _amp(projection: ProjectionMatrix, y: np.ndarray, pool) -> np.ndarray:
    """cs_decode's loop, its products taken with `pool`."""
    m, n = projection.rows, projection.cols
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
        r = x + projection.backproject(z, pool)
        x = _soft_threshold(r, AMP_KAPPA * sigma)
        onsager = (np.count_nonzero(x) / m) * z
        z = y - projection.project(x, pool) + onsager
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


def _uplink(payloads, state: ChannelState, power: float, channel_uses: int,
            noise_rng) -> np.ndarray:
    """Superpose the devices' real payloads over the MAC.

    Every device packs its payload two reals per channel use and transmits
    at full power, pre-rotated against its own channel phase. Returns the
    MMSE-scaled sum, unpacked and cut to the payload length.
    """
    xs = [pack_complex(p) for p in payloads]
    gammas = [full_power_gain(x, power, channel_uses) for x in xs]
    frames = np.stack([precompensate(x, gain, power, channel_uses).samples
                       for x, gain in zip(xs, state.uplink_gains)])
    received = uplink_mac(frames, state, noise_rng)[:xs[0].size]
    factor = mmse_factor_uplink(gammas, np.abs(state.uplink_gains))
    return unpack_complex(factor * received)


def _downlink(payload: np.ndarray, state: ChannelState, power: float,
              channel_uses: int, noise_rng) -> list[np.ndarray]:
    """Broadcast one real payload; returns each device's MMSE-scaled copy.

    Devices know their own downlink channel, so each one undoes its phase
    before scaling by its own MMSE factor.
    """
    x = pack_complex(payload)
    gamma = full_power_gain(x, power, channel_uses)
    frame = precompensate(x, 1.0 + 0j, power, channel_uses)
    return [unpack_complex(mmse_factor_downlink(gamma, abs(gain))
                           * (y[:x.size] * _derotation(gain)))
            for gain, y in zip(state.downlink_gains,
                               downlink_bc(frame.samples, state, noise_rng))]


def _repeat_table(table: np.ndarray, channel_uses: int):
    """Repetition-code a logit table into the 2T reals of the link.

    Returns (rho, payload) with rho = floor(2T / table size); a trailing
    zero pads the payload to the even length that packing needs.
    """
    rho = (2 * channel_uses) // table.size
    encoded = repetition_encode(table.ravel(), rho)
    if encoded.size % 2:
        encoded = np.append(encoded, 0.0)
    return rho, encoded


def _mean_table(reals: np.ndarray, rho: int, shape) -> np.ndarray:
    """Inverse of _repeat_table: drop the padding, average the copies."""
    return repetition_decode(reals[:rho * math.prod(shape)], rho).reshape(shape)


def fl_analog_uplink(updates, accs, q: int, projection: ProjectionMatrix,
                     state: ChannelState, power: float, channel_uses: int,
                     noise_rng):
    """One over-the-air round for weight updates: returns (sum estimate, accs).

    Each device sparsifies its pending vector (update plus residual) and
    projects it; the receiver recovers the superposed sum by message
    passing. Residuals are advanced by exactly what was put on the air (the
    sparsified vector), not by what the receiver recovered.
    """
    updates = [np.asarray(u, dtype=np.float64) for u in updates]
    dim = updates[0].size
    _check_projection(projection, dim, channel_uses)
    sparse = [top_k_sparsify(u + acc.residual, q)
              for u, acc in zip(updates, accs)]
    new_accs = [accumulate_error(acc, u, s)
                for u, acc, s in zip(updates, accs, sparse)]
    received = _uplink([projection.project(s) for s in sparse], state,
                       power, channel_uses, noise_rng)
    estimate = cs_decode(projection, received)
    return estimate, new_accs


def fd_analog_uplink(tables, state: ChannelState, power: float,
                     channel_uses: int, noise_rng) -> np.ndarray:
    """One over-the-air round for logit tables: returns the table-sum estimate."""
    tables = [np.asarray(t, dtype=np.float64) for t in tables]
    coded = [_repeat_table(t, channel_uses) for t in tables]
    rho = coded[0][0]
    received = _uplink([payload for _, payload in coded], state, power,
                       channel_uses, noise_rng)
    return _mean_table(received, rho, tables[0].shape)


def fl_analog_downlink(update: np.ndarray, acc: ErrorAccumulator, q: int,
                       projection: ProjectionMatrix, state: ChannelState,
                       power: float, channel_uses: int, noise_rng):
    """Broadcast a weight vector analogically; returns (per-device estimates, acc).

    Each device recovers the broadcast from its own reception with
    `cs_decode`. From `_PARALLEL_BYTES` up, with more than one usable CPU,
    the K decodes run concurrently in a pool of min(K, CPUs) threads, each
    taking its products as one call, and the estimates come back in device
    order (see "Decodes" in the module docstring).
    """
    update = np.asarray(update, dtype=np.float64)
    _check_projection(projection, update.size, channel_uses)
    sparse = top_k_sparsify(update + acc.residual, q)
    new_acc = accumulate_error(acc, update, sparse)
    receptions = _downlink(projection.project(sparse), state, power,
                           channel_uses, noise_rng)
    workers = min(len(receptions), _usable_cpus())
    if workers < 2 or projection.nbytes < _PARALLEL_BYTES:
        return [cs_decode(projection, y) for y in receptions], new_acc
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda y: cs_decode(projection, y, _split=False),
                             receptions)), new_acc


def fd_analog_downlink(table: np.ndarray, state: ChannelState, power: float,
                       channel_uses: int, noise_rng) -> list[np.ndarray]:
    """Broadcast a logit table analogically; returns per-device table estimates."""
    table = np.asarray(table, dtype=np.float64)
    rho, payload = _repeat_table(table, channel_uses)
    return [_mean_table(y, rho, table.shape)
            for y in _downlink(payload, state, power, channel_uses, noise_rng)]
