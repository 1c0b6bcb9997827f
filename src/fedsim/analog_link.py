"""Over-the-air computation: analog joint source-channel coding.

Weight updates are magnitude-top-q sparsified, passed through a shared
random projection, packed two reals per complex channel use, and sent
simultaneously at full power with transmit-side phase rotation so the
superposition arrives coherently. The receiver applies a scalar
minimum-mean-square-error factor and a soft-threshold message-passing
decoder to recover the sum. Logit tables are small enough to skip the
projection; they use integer-redundancy repetition coding instead.

The device axis is an array axis: the uplinks take the (K, W) or
(K, L, L) block of the devices' payloads, the downlinks return the block of
their copies, and the frames of one transmission are the rows of one
(K, T) block, each its payload read as complex (`.view(np.complex128)`).
Per-device Python stays only where an array form changes bits (one norm
per payload row, one `abs` per gain) and in the K `cs_decode` calls of an
analog-FL downlink, which `perfbench/test_tracing.py` counts.

The projection departs from Amiri and Gunduz's analog FL
(arXiv:1901.00844), whose A is an i.i.d. Gaussian matrix. Here A is a
structurally random matrix (Do, Gan, Nguyen and Tran, IEEE TSP 2012; the
fast Johnson-Lindenstrauss transform of Ailon and Chazelle, SIAM J.
Comput. 2009): random signs, an orthonormal real FFT and a random pick of
rows (`ProjectionMatrix`). The reasons are cost and noiseless recovery,
not FL accuracy. A product costs O(W log W) against O(TW), and the state
is a few hundred KB, where a dense 2T x W matrix per direction takes 2TW
floats (54 MB in float64 at T=2500, W=1362). With `cs_decode` at a 1e-6
stall tolerance, noiseless recovery of rho * 2T nonzeros out of W = 1362
from 2T = delta * W measurements (median relative squared error of 5
draws) was better than with a Gaussian A at every point with delta in
{0.3, 0.5, 0.8} and rho in {0.2, 0.3, 0.5} (at delta = 0.5, rho = 0.3:
7e-7 against 8e-3), and both were exact at rho = 0.1; at delta = 0.15 it
was worse (rho = 0.2: 9e-3 against 2e-3). All of it runs in float64, and
numpy's FFT calls no BLAS, so an analog-FL run's bits do not depend on the
host's BLAS thread count.
"""

import math

import numpy as np

from .channel import ChannelState, check_frame_power, downlink_bc, uplink_mac
from .compression import ErrorAccumulator, accumulate_error, top_k_sparsify
from .errors import ConfigurationError, DivergenceError

# Message-passing decoder: threshold multiplier on the noise estimate, the
# iteration cap, and the relative residual change that counts as a stall.
# A 0.1% stall ends a decode: 50 iterations that each lowered the residual by
# no more than that would lower it by under 5% in all. Noiseless recovery
# inside AMP's phase transition does not stall there, since its residual
# shrinks geometrically until rounding, and noisy decodes reach their floor
# in a few iterations (`cs_decode` gives what was measured).
AMP_KAPPA = 1.5
AMP_MAX_ITER = 50
AMP_TOL = 1e-3


def _fft_length(cols: int) -> int:
    """The smallest even length >= cols with no prime factor above 5.

    numpy's FFT is fastest at such lengths: at W = 1362 = 2 * 3 * 227 a
    real FFT takes about 4 times as long as at the padded length 1440.
    """
    n = cols + cols % 2
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 2


class ProjectionMatrix:
    """Seeded structurally random projection of `rows` x `cols`, shared
    verbatim by transmitter and receiver.

    A = c P [F D_1; ...; F D_B]. Each D_b flips the signs of x and
    zero-pads it to N = `_fft_length(cols)`. F is the orthonormal real DFT
    of length N, read as N reals: the real parts of the DC and Nyquist bins
    and the real and imaginary parts of the bins between, those scaled by
    sqrt(2), so F is orthogonal. P keeps `rows` of the B * N coordinates,
    picked without replacement and kept in ascending order, with
    B = ceil(rows / N) blocks, and c = sqrt(N / rows) makes each column's
    squared norm 1 in expectation. The signs are drawn from
    `default_rng(seed)` first, then the picks, so regenerating from the
    same (rows, cols, seed) is bit-exact.

    The plan is drawn when the projection is built: `signs` (B, W),
    `picks` (the 2T positions in the float view of B spectra) and the
    scales of each picked coordinate in A (`forward`) and in A.T
    (`backward`). The products work in buffers made with it, so they are
    not reentrant; each returns a new float64 vector.
    """

    def __init__(self, rows: int, cols: int, seed: int):
        for field, value in (("rows", rows), ("cols", cols)):
            if value < 1:
                raise ValueError(f"need {field} >= 1, got {value}")
        self.rows, self.cols, self.seed = rows, cols, seed
        n = _fft_length(cols)
        count = -(-rows // n)
        rng = np.random.default_rng(seed)
        self.signs = 1.0 - 2.0 * rng.integers(0, 2, size=(count, cols))
        picks = np.sort(rng.choice(count * n, size=rows, replace=False))
        # A block's spectrum, read as floats, holds its N reals at positions
        # 0 to N but for position 1, the DC bin's imaginary part. The DC and
        # Nyquist reals (coordinates 0 and N - 1) keep scale 1 and the rest
        # take sqrt(2). numpy's unscaled FFT pair leaves F's 1/sqrt(N) to
        # the scales: c / sqrt(N) = 1 / sqrt(rows).
        block, j = np.divmod(picks, n)
        root2 = np.where((j > 0) & (j < n - 1), math.sqrt(2.0), 1.0)
        self.picks = block * (n + 2) + j + (j > 0)
        self.forward = root2 / math.sqrt(rows)
        self.backward = 1.0 / (root2 * math.sqrt(rows))
        # The buffers, each with what the last product left in it: the
        # signed input, zero past column W (`signal`, written through
        # `signed`), its spectrum, the scattered input, zero but at the
        # picks (`adjoint`), and its inverse FFT (read through `unsigned`).
        self.signal, self.inverse = np.zeros((2, count, n))
        spectra = np.zeros((2, count, n // 2 + 1), dtype=np.complex128)
        self.spectrum, self.adjoint = spectra
        self.spectrum_reals, self.adjoint_reals = \
            spectra.view(np.float64).reshape(2, -1)
        self.signed = self.signal[:, :cols]
        self.unsigned = self.inverse[:, :cols]

    def project(self, v: np.ndarray) -> np.ndarray:
        """A @ v: the signs, one real FFT per block, the picks."""
        np.multiply(self.signs, v, out=self.signed)
        np.fft.rfft(self.signal, out=self.spectrum)
        return self.spectrum_reals[self.picks] * self.forward

    def backproject(self, z: np.ndarray) -> np.ndarray:
        """A.T @ z, the exact adjoint: one scatter into the zero spectrum,
        one inverse real FFT per block, the signs, a sum over blocks."""
        self.adjoint_reals[self.picks] = z * self.backward
        np.fft.irfft(self.adjoint, n=self.inverse.shape[1], norm="forward",
                     out=self.inverse)
        if len(self.signs) == 1:
            return self.unsigned[0] * self.signs[0]
        return (self.unsigned * self.signs).sum(axis=0)


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
    factors = scales * np.array([_derotation(gain) for gain in gains])
    frames = np.zeros((len(xs), channel_uses), dtype=np.complex128)
    np.multiply(factors[:, None], xs, out=frames[:, :xs.shape[1]])
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


def cs_decode(projection: ProjectionMatrix, y_est: np.ndarray) -> np.ndarray:
    """Approximate message passing with a soft-threshold denoiser.

    The threshold tracks AMP_KAPPA times a robust noise estimate (median
    absolute deviation of the residual). Iterations stop after AMP_MAX_ITER,
    when the residual norm stalls (relative change below AMP_TOL), or when
    it grows past ten times its running minimum; the best-residual iterate
    is returned, which makes divergence a graceful fallback.

    With receiver noise and 2T > W the stall rule seldom changes the
    estimate: by the time the residual moves by under 0.1%, the
    best-residual iterate has almost always been found. On the 264 decodes
    of amp_T2500 (2T = 5000, W = 1362, master seeds 0-7, 3 iterations each)
    every estimate was the one a 1e-6 stall returns, bit for bit, in 6.4
    products A @ x on average where 1e-6 took 14.7; of the golden tests'
    decodes at 2T = 800, W = 83, one stopped 0.17% away from it. At
    analog_mix's T = 100 (2T = 200 < W, past AMP's phase transition) a
    decode takes about 37 products against the cap's 50, and two thirds of
    those decodes return the estimate of a 1e-6 stall. Noiseless decodes
    close to the transition converge slowly enough to stop short: at
    delta = 0.15, rho = 0.2 the median error of 5 draws rose from 1e-2 to
    5e-2 (structured A) and from 2e-3 to 2e-2 (Gaussian A).
    """
    m, n = projection.rows, projection.cols
    y = np.asarray(y_est, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match {m} rows")
    # Two identities keep this np.median and np.sign's soft threshold bit for
    # bit: after partition(m // 2), the lower of the two middle values (m is
    # even, 2T, on a link) is the largest left of the upper; and
    # r - clip(r, -t, t) = sign(r) max(|r| - t, 0) up to a zero's sign. The
    # norm is sqrt(z.z), np.linalg.norm's value.
    half = m // 2
    magnitudes = np.empty(m)
    x = np.zeros(n)
    z = y.copy()
    best_x = x
    best_res = math.sqrt(float(z @ z))
    prev_res = best_res
    if best_res == 0.0:
        return best_x
    for _ in range(AMP_MAX_ITER):
        np.abs(z, out=magnitudes)
        magnitudes.partition(half)
        middle = magnitudes[half] if m % 2 else \
            (magnitudes[:half].max() + magnitudes[half]) / 2
        thresh = AMP_KAPPA * (float(middle) / 0.6745)
        r = projection.backproject(z)
        r += x
        x = r - np.minimum(np.maximum(r, -thresh), thresh)
        onsager = (np.count_nonzero(x) / m) * z
        z = y - projection.project(x)
        z += onsager
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

    Devices know their own downlink channel, so each one undoes its phase,
    then scales by its own MMSE factor: two columns in turn, as their
    product differs in the last bit, and so does `np.abs` of the gains.
    """
    x = np.ascontiguousarray(payload, dtype=np.float64).view(np.complex128)
    frames, (gamma,) = precompensate(x[None], [1.0 + 0j], power,
                                     channel_uses)
    received = downlink_bc(frames[0], state, noise_rng)[:, :x.size]
    gains = state.downlink_gains
    received *= np.array([_derotation(gain) for gain in gains])[:, None]
    received *= np.array([mmse_factor_downlink(gamma, abs(gain))
                          for gain in gains])[:, None]
    return received.view(np.float64)


def _send_sparse(projection: ProjectionMatrix, update: np.ndarray,
                 acc: ErrorAccumulator, q: int, channel_uses: int):
    """What one sender puts on the air for a weight update: returns (the
    projection of the top q of update plus residual, acc advanced by that
    sparse vector).

    An update whose projection overflows float64 raises DivergenceError
    instead of numpy's warnings.
    """
    if projection.cols != update.size or projection.rows != 2 * channel_uses:
        raise ConfigurationError("projection shape does not match link")
    sparse = top_k_sparsify(update + acc.residual, q)
    with np.errstate(over="ignore", invalid="ignore"):
        sent = projection.project(sparse)
    if not np.all(np.isfinite(sent)):
        raise DivergenceError("weight update overflows the analog link's "
                              "projection")
    return sent, accumulate_error(acc, update, sparse)


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
    sent, new_accs = zip(*(
        _send_sparse(projection, u, acc, q, channel_uses)
        for u, acc in zip(np.asarray(updates, dtype=np.float64), accs)))
    received = _uplink(np.array(sent), state, power, channel_uses, noise_rng)
    return cs_decode(projection, received), list(new_accs)


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
    `cs_decode` call, in device order.
    """
    sent, new_acc = _send_sparse(projection,
                                 np.asarray(update, dtype=np.float64), acc, q,
                                 channel_uses)
    receptions = _downlink(sent, state, power, channel_uses, noise_rng)
    # `cs_decode` is looked up when each call runs, so a wrapper patched
    # into this module sees every decode.
    return np.array([cs_decode(projection, y) for y in receptions]), new_acc


def fd_analog_downlink(table: np.ndarray, state: ChannelState, power: float,
                       channel_uses: int, noise_rng) -> np.ndarray:
    """Broadcast a logit table analogically; returns the (K, L, L) block of
    the devices' table estimates."""
    table = np.asarray(table, dtype=np.float64)
    rho, payload = _repeat_table(table, channel_uses)
    return _mean_table(_downlink(payload, state, power, channel_uses,
                                 noise_rng), rho, table.shape)
