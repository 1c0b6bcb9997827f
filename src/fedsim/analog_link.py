"""Over-the-air computation: analog joint source-channel coding.

Weight updates are magnitude-top-q sparsified, passed through a shared
random projection, packed two reals per complex channel use, and sent
simultaneously at full power with transmit-side phase rotation so the
superposition arrives coherently. The receiver applies a scalar
minimum-mean-square-error factor and recovers the sum with `cs_decode`, in
one of two regimes. Where the link carries at least as many reals as there
are weights (2T >= W), the sum is overdetermined, and least squares by
conjugate gradients recovers it. Below that, soft-threshold approximate
message passing (AMP) recovers it as a sparse vector. Logit tables are small
enough to skip the projection; they use integer-redundancy repetition
coding instead.

The device axis is an array axis: the uplinks take the (K, W) or
(K, L, L) block of the devices' payloads, the downlinks return the block of
their copies, and each transmission is built once, in one zero (K, T)
complex frame block that the link function allocates (one row on a
downlink). The senders write their reals straight into the
block's float view, two per channel use: in FL each device's projection
lands in its row (`_send_sparse`), in FD the repetition-coded tables do
(`_repeat_table`). The zeros after a sender's payload pad its row to T
channel uses. `precompensate` then scales each row whole, in place: the
padding adds no energy and stays zero. `check_frame_power` reads the block,
`uplink_mac` sums its faded rows into one (T,) reception, and `downlink_bc`
returns its noise draw as the (K, T) reception block, the faded copies
added in place; the copies are derotated and scaled in that block. An
uplink round thus allocates one (K, T) array, the frame block, and a
downlink round one, the reception block; an analog-FL downlink also writes
its K decodes into one (K, W) block. Per-device Python stays only where an
array form changes bits (one `abs` per gain, one faded row at a time in the
channel) and in the K `cs_decode` calls of an analog-FL downlink, which
`perfbench/test_tracing.py` counts.

The projection departs from Amiri and Gunduz's analog FL
(arXiv:1901.00844), whose A is an i.i.d. Gaussian matrix. Here A is a
structurally random matrix (Do, Gan, Nguyen and Tran, IEEE TSP 2012; the
fast Johnson-Lindenstrauss transform of Ailon and Chazelle, SIAM J.
Comput. 2009): random signs, an orthonormal real FFT and a random pick of
rows (`ProjectionMatrix`). The reasons are cost and noiseless recovery,
not FL accuracy. A product costs O(W log W) against O(TW), and the state
is a few hundred KB, where a dense 2T x W matrix per direction takes 2TW
floats (54 MB in float64 at T=2500, W=1362). With AMP at a 1e-6 stall
tolerance, noiseless recovery of rho * 2T nonzeros out of W = 1362
from 2T = delta * W measurements (median relative squared error of 5
draws) was better than with a Gaussian A at every point with delta in
{0.3, 0.5, 0.8} and rho in {0.2, 0.3, 0.5} (at delta = 0.5, rho = 0.3:
7e-7 against 8e-3), and both were exact at rho = 0.1; at delta = 0.15 it
was worse (rho = 0.2: 9e-3 against 2e-3). All of it runs in float64.
No arithmetic of the link calls BLAS: the products are numpy's FFTs, and
the frame energies (`frame_energies`) and both decoders' dot products
(`_dot`) are einsum sums. So an analog run's bits do not depend on the
host's BLAS thread count, at any T.
"""

import math

import numpy as np

from .channel import (
    ChannelState, check_frame_power, downlink_bc, frame_energies, uplink_mac,
)
from .compression import ErrorAccumulator, top_k_sparsify
from .errors import DivergenceError

# AMP's threshold multiplier on the noise estimate, and both decoders'
# iteration cap and the relative residual change that counts as a stall.
# A 0.1% stall ends a decode: 50 iterations that each lowered the residual by
# no more than that would lower it by under 5% in all. Noiseless recovery
# (by CG well above 2T = W, or by AMP inside its phase transition) does not
# stall there, since its residual shrinks geometrically until rounding, and
# noisy decodes reach their floor in a few iterations (`cs_decode` gives
# what was measured).
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
    not reentrant; each returns a new float64 vector, or for `project`
    writes it into `out` if given.
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

    def project(self, v: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """A @ v: the signs, one real FFT per block, the picks."""
        np.multiply(self.signs, v, out=self.signed)
        np.fft.rfft(self.signal, out=self.spectrum)
        return np.multiply(self.spectrum_reals[self.picks], self.forward,
                           out=out)

    def backproject(self, z: np.ndarray) -> np.ndarray:
        """A.T @ z, the exact adjoint: one scatter into the zero spectrum,
        one inverse real FFT per block, the signs, a sum over blocks."""
        self.adjoint_reals[self.picks] = z * self.backward
        np.fft.irfft(self.adjoint, n=self.inverse.shape[1], norm="forward",
                     out=self.inverse)
        if len(self.signs) == 1:
            return self.unsigned[0] * self.signs[0]
        return (self.unsigned * self.signs).sum(axis=0)


def _derotation(gain: complex) -> complex:
    """The unit phasor that undoes a known channel phase (1 for a null gain)."""
    return 1.0 if gain == 0 else np.conj(gain) / abs(gain)


def precompensate(frames: np.ndarray, gains, power: float):
    """Scale each row to full power and pre-rotate away its channel phase,
    in place.

    Takes the (K, T) frame block a link function built and the K gains;
    returns the (K,) transmit scales, sqrt(P*T) over the root of each row's
    `frame_energies`: zero for an all-zero row, and DivergenceError for an
    energy that overflows. Each row is scaled whole. Its unused channel uses
    hold zeros, which add no energy and stay zero, so the whole energy
    budget P*T is spent on the payload. The block passes `check_frame_power`
    before the scales return. A caller's array is never handed in: the
    link's senders write into a block of its own.
    """
    norms = np.sqrt(frame_energies(frames))
    if not np.all(np.isfinite(norms)):
        raise DivergenceError("payload norm overflows the analog link")
    scales = np.zeros(len(frames))
    np.divide(math.sqrt(power * frames.shape[1]), norms, out=scales,
              where=norms > 0.0)
    factors = scales * np.array([_derotation(gain) for gain in gains])
    np.multiply(factors[:, None], frames, out=frames)
    check_frame_power(frames, power)
    return scales


def mmse_factor_uplink(gammas: np.ndarray, habs: np.ndarray) -> float:
    """Scalar MMSE factor for the coherent multi-access superposition."""
    amps = gammas * habs
    return float(amps.sum() / (0.5 + np.sum(amps ** 2)))


def mmse_factor_downlink(gamma: float, gabs: float) -> float:
    """Scalar MMSE factor at one device for the broadcast signal."""
    amp = gamma * gabs
    return amp / (0.5 + amp ** 2)


def cs_decode(projection: ProjectionMatrix, y_est: np.ndarray) -> np.ndarray:
    """Recover x from y_est = A x + noise, A being `projection`.

    Where A has at least as many rows as columns (2T >= W on a link), the
    link measures more reals than there are weights, and the sum it carries
    is dense: at T = 2500 top-q keeps all W = 1362 weights. Least squares is
    the unbiased estimate there, and `_least_squares` finds it by conjugate
    gradients. With fewer rows, `_amp` runs soft-threshold AMP, which
    assumes a sparse x. A step of either takes one A @ v and one A.T @ z.
    Either stops when the residual norm ||y - A x|| moves by at most AMP_TOL
    of itself, or after AMP_MAX_ITER steps; AMP also stops on a residual
    that diverges.

    Measured on FL over analog links in the benchmark's configuration
    (`perfbench/workloads.py`: W = 1362, K = 10, pu 0 dB, pd 10 dB), master
    seeds 0-1, iterations 1-3, both decoders run on the same receptions:
    the median NMSE of a decode against the noiseless sum the receiver
    sees, and the mean products A @ v a decode (the uplink's 6 decodes and
    the downlink's 60 per cell).

        T     link   CG NMSE  AMP NMSE  CG products  AMP products
        2500  up     0.0044   0.0106     5.0          9.5
        2500  down   0.063    0.100      3.9          6.3
        1000  up     0.017    0.063     10.8         11.3
        1000  down   0.240    0.219      8.2          7.3
         700  up     0.028    0.095     12.2         12.0
         700  down   0.536    0.257     11.8          9.1

    CG's median NMSE is exact least squares' to the digits shown at
    T = 2500 and on the T = 1000 uplink; elsewhere its early stop
    regularises (exact least squares: 0.244 on the T = 1000 downlink, 0.033
    and 0.74 at T = 700). On the downlink at T <= 1000 a device in a deep
    fade gets a least-squares estimate noisier than zero (NMSE up to 22 at
    T = 700), where AMP's threshold shrinks it towards zero. The mean final
    accuracy of 10 iterations over seeds 0-2 still rises with CG: 0.4873 to
    0.5734 at T = 700, 0.5035 to 0.5739 at T = 1000 and 0.5315 to 0.5742 at
    T = 2500, where digital FL reads 0.5207, 0.5287 and 0.5300.
    """
    m = projection.rows
    y = np.asarray(y_est, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match {m} rows")
    if m >= projection.cols:
        return _least_squares(projection, y)
    return _amp(projection, y)


def _least_squares(projection: ProjectionMatrix, y: np.ndarray) -> np.ndarray:
    """The least-squares x of y = A x, by conjugate gradients on
    A.T A x = A.T y from x = 0 (CGLS: Hestenes and Stiefel, J. Res. NBS
    1952; Paige and Saunders, ACM TOMS 1982).

    CGLS carries the residual r = y - A x by recurrence, and its norm falls
    at every step. A noisy residual reaches its floor, the noise outside A's
    range, within a few steps, where the stall rule stops the decode near
    the least-squares x. A noiseless one shrinks geometrically until
    rounding, so recovery is exact: at 5000 x 1362 to a relative squared
    error of about 1e-31, in 27 steps. Close to square, A.T A has
    eigenvalues near zero and the residual falls slower: at 2000 x 1362 the
    cap ends noiseless decodes at about 1e-21, and at 1400 x 1362 one of
    three draws stalled at 4e-4. A step whose A p is zero (after a zero
    A.T y, or once A.T r = 0 at the exact solution) or whose norms are not
    finite ends the decode at the last iterate with a finite residual: y = 0
    and a y whose norm overflows give x = 0.
    """
    x = np.zeros(projection.cols)
    r = y
    s = projection.backproject(r)
    gamma = _dot(s, s)
    prev_res = math.sqrt(_dot(r, r))
    p = s
    for _ in range(AMP_MAX_ITER):
        q = projection.project(p)
        qq = _dot(q, q)
        if not 0.0 < qq < math.inf:
            break
        alpha = gamma / qq
        r_next = r - alpha * q
        res = math.sqrt(_dot(r_next, r_next))
        if not res < math.inf:
            break
        x = x + alpha * p
        r = r_next
        if prev_res - res <= AMP_TOL * prev_res:
            break
        prev_res = res
        s = projection.backproject(r)
        gamma_next = _dot(s, s)
        p = s + (gamma_next / gamma) * p
        gamma = gamma_next
    return x


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v without BLAS. OpenBLAS's ddot splits vectors longer than 10000
    over its threads, and the sum's last bits then change with the thread
    count (checked at 20000 under one and two threads); einsum's loop is
    the same under any."""
    return float(np.einsum("i,i", u, v))


def _amp(projection: ProjectionMatrix, y: np.ndarray) -> np.ndarray:
    """Approximate message passing with a soft-threshold denoiser.

    The threshold tracks AMP_KAPPA times a robust noise estimate (median
    absolute deviation of the residual). Iterations stop after AMP_MAX_ITER,
    when the residual norm stalls (relative change below AMP_TOL), or when
    it grows past ten times its running minimum; the best-residual iterate
    is returned, which makes divergence a graceful fallback.

    On analog_mix's FL scenario at T = 100 (2T = 200 < W = 1362, past AMP's
    phase transition), master seeds 0-7 at 6 iterations, a decode takes
    38.3 products on average: of the 528 decodes, 240 stall at AMP_TOL
    (after 24.3 products on average), 288 reach the cap of 50 and none
    diverges.
    Noiseless decodes close to the transition converge slowly enough to
    stop short: at delta = 0.15, rho = 0.2 the median error of 5 draws rose
    from 1e-2 to 5e-2 (structured A) and from 2e-3 to 2e-2 (Gaussian A).
    """
    m, n = projection.rows, projection.cols
    # Two identities keep this np.median and np.sign's soft threshold bit for
    # bit: after partition(m // 2), the lower of the two middle values (m is
    # even, 2T, on a link) is the largest left of the upper; and
    # r - clip(r, -t, t) = sign(r) max(|r| - t, 0) up to a zero's sign. The
    # residual norm is sqrt(z.z) by `_dot`, as in `_least_squares`.
    half = m // 2
    magnitudes = np.empty(m)
    x = np.zeros(n)
    z = y.copy()
    best_x = x
    best_res = math.sqrt(_dot(z, z))
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
        res = math.sqrt(_dot(z, z))
        if res < best_res:
            best_res = res
            best_x = x
        if res > 10.0 * best_res:
            break
        if abs(res - prev_res) <= AMP_TOL * max(prev_res, 1e-300):
            break
        prev_res = res
    return best_x


def _uplink(frames: np.ndarray, state: ChannelState, power: float,
            noise_rng) -> np.ndarray:
    """Superpose the (K, T) frame block over the MAC, one device a row.

    Every device transmits at full power, pre-rotated against its own
    channel phase (`precompensate`, in place). Returns the 2T reals of the
    MMSE-scaled sum.
    """
    gammas = precompensate(frames, state.uplink_gains, power)
    received = uplink_mac(frames, state, noise_rng)
    factor = mmse_factor_uplink(gammas, np.abs(state.uplink_gains))
    return (factor * received).view(np.float64)


def _downlink(frames: np.ndarray, state: ChannelState, power: float,
              noise_rng) -> np.ndarray:
    """Broadcast the one-row (1, T) frame block; returns the (K, 2T) block
    of the devices' MMSE-scaled copies, a view of the reception block.

    Devices know their own downlink channel, so each one undoes its phase,
    then scales by its own MMSE factor: two columns in turn, in place, as
    their product differs in the last bit, and so does `np.abs` of the
    gains.
    """
    (gamma,) = precompensate(frames, [1.0 + 0j], power)
    received = downlink_bc(frames[0], state, noise_rng)
    gains = state.downlink_gains
    received *= np.array([_derotation(gain) for gain in gains])[:, None]
    received *= np.array([mmse_factor_downlink(gamma, abs(gain))
                          for gain in gains])[:, None]
    return received.view(np.float64)


def _send_sparse(projection: ProjectionMatrix, update: np.ndarray,
                 acc: ErrorAccumulator, q: int, out: np.ndarray):
    """Put one sender's weight update on the air: writes the projection of
    the top q of the pending vector, update plus residual, into `out`, the
    2T reals of the sender's frame, and returns the new residual, pending
    minus that sparse vector.

    An update whose pending vector or projection overflows float64 raises
    DivergenceError instead of numpy's warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pending = update + acc.residual
        sparse = top_k_sparsify(pending, q)
        projection.project(sparse, out=out)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("weight update overflows the analog link's "
                              "projection")
    return ErrorAccumulator(pending - sparse)


def _repeat_table(tables: np.ndarray, frames: np.ndarray):
    """Repetition-code the tables of a (..., L, L) block into the (..., T)
    frame block `frames`, one table a row: returns rho.

    Each table, flattened, is written rho = floor(2T / L^2) times into the
    frame's float view; the frame's zeros after it pad the payload to T
    channel uses. A run's configuration guarantees rho >= 1
    (`_check_logit_room` in the orchestrator).
    """
    size = tables.shape[-2] * tables.shape[-1]
    rho = (2 * frames.shape[-1]) // size
    lead, n = tables.shape[:-2], rho * size
    # Splitting the last axis of the float view is a view, never a copy.
    copies = frames.view(np.float64)[..., :n].reshape(lead + (rho, size))
    copies[...] = tables.reshape(lead + (1, size))
    return rho


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
    projects it into its row of the frame block; the receiver recovers the
    superposed sum with `cs_decode`: least squares by conjugate gradients
    where 2T >= W, message passing below that. Residuals are advanced by
    exactly what was put on the air (the sparsified vector), not by what
    the receiver recovered.
    """
    frames = np.zeros((len(updates), channel_uses), dtype=np.complex128)
    new_accs = [_send_sparse(projection, u, acc, q, row)
                for u, acc, row in zip(updates, accs,
                                       frames.view(np.float64))]
    received = _uplink(frames, state, power, noise_rng)
    return cs_decode(projection, received), new_accs


def fd_analog_uplink(tables, state: ChannelState, power: float,
                     channel_uses: int, noise_rng) -> np.ndarray:
    """One over-the-air round for the (K, L, L) block of logit tables:
    returns the table-sum estimate."""
    frames = np.zeros((len(tables), channel_uses), dtype=np.complex128)
    rho = _repeat_table(tables, frames)
    received = _uplink(frames, state, power, noise_rng)
    return _mean_table(received, rho, tables.shape[1:])


def fl_analog_downlink(update: np.ndarray, acc: ErrorAccumulator, q: int,
                       projection: ProjectionMatrix, state: ChannelState,
                       power: float, channel_uses: int, noise_rng):
    """Broadcast a weight vector analogically; returns (the (K, W) block of
    the devices' estimates, acc).

    Each device recovers the broadcast from its own reception with one
    `cs_decode` call, in device order, into its row of the estimate block.
    """
    frames = np.zeros((1, channel_uses), dtype=np.complex128)
    new_acc = _send_sparse(projection, update, acc, q,
                           frames.view(np.float64)[0])
    receptions = _downlink(frames, state, power, noise_rng)
    estimates = np.empty((len(receptions), projection.cols))
    # `cs_decode` is looked up when each call runs, so a wrapper patched
    # into this module sees every decode.
    for estimate, y in zip(estimates, receptions):
        estimate[...] = cs_decode(projection, y)
    return estimates, new_acc


def fd_analog_downlink(table: np.ndarray, state: ChannelState, power: float,
                       channel_uses: int, noise_rng) -> np.ndarray:
    """Broadcast a logit table analogically; returns the (K, L, L) block of
    the devices' table estimates."""
    frames = np.zeros((1, channel_uses), dtype=np.complex128)
    rho = _repeat_table(table[None], frames)
    return _mean_table(_downlink(frames, state, power, noise_rng), rho,
                       table.shape)
