"""Over-the-air computation: analog joint source-channel coding.

Weight updates are magnitude-top-q sparsified, passed through a shared
Gaussian random projection, packed two reals per complex channel use, and
sent simultaneously at full power with transmit-side phase rotation so the
superposition arrives coherently. The receiver applies a scalar
minimum-mean-square-error factor and a soft-threshold message-passing
decoder to recover the sum. Logit tables are small enough to skip the
projection; they use integer-redundancy repetition coding instead.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (
    DOWNLINK, UPLINK, AnalogFrame, ChannelState, downlink_bc, uplink_mac,
)
from .compression import ErrorAccumulator, accumulate_error, top_k_sparsify
from .errors import ConfigurationError


@dataclass(frozen=True)
class ProjectionMatrix:
    """Seeded Gaussian projection shared verbatim by transmitter and receiver.

    Entries are i.i.d. zero-mean with variance 1/rows, so projecting a
    vector roughly preserves its squared norm. Regenerating from the same
    (rows, cols, seed) triple is bit-exact.
    """

    rows: int
    cols: int
    seed: int

    @cached_property
    def matrix(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal((self.rows, self.cols)) / math.sqrt(self.rows)


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
                  channel_uses: int, direction: str = UPLINK) -> AnalogFrame:
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
    return AnalogFrame(samples=samples, direction=direction,
                       power_budget=power)


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


def cs_decode(projection: ProjectionMatrix, y_est: np.ndarray, q: int,
              kappa: float = 1.5, max_iter: int = 50,
              tol: float = 1e-6) -> np.ndarray:
    """Approximate message passing with a soft-threshold denoiser.

    The threshold tracks kappa times a robust noise estimate (median
    absolute deviation of the residual). Iterations stop at max_iter, when
    the residual norm stalls (relative change below tol), or when it grows
    past ten times its running minimum; the best-residual iterate is
    returned, which makes divergence a graceful fallback.
    """
    A = projection.matrix
    m, n = A.shape
    y = np.asarray(y_est, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match {m} rows")
    if not 0 <= q <= n:
        raise ValueError(f"sparsity hint {q} out of range for dimension {n}")

    x = np.zeros(n)
    z = y.copy()
    best_x = x
    best_res = float(np.linalg.norm(z))
    prev_res = best_res
    if best_res == 0.0:
        return best_x
    for _ in range(max_iter):
        sigma = float(np.median(np.abs(z))) / 0.6745
        r = x + A.T @ z
        x = _soft_threshold(r, kappa * sigma)
        z = y - A @ x + (np.count_nonzero(x) / m) * z  # Onsager correction
        res = float(np.linalg.norm(z))
        if res < best_res:
            best_res = res
            best_x = x
        if res > 10.0 * best_res:
            break
        if abs(res - prev_res) <= tol * max(prev_res, 1e-300):
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
    frames = [precompensate(x, gain, power, channel_uses, UPLINK)
              for x, gain in zip(xs, state.uplink_gains)]
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
    frame = precompensate(x, 1.0 + 0j, power, channel_uses, DOWNLINK)
    return [unpack_complex(mmse_factor_downlink(gamma, abs(gain))
                           * (y[:x.size] * _derotation(gain)))
            for gain, y in zip(state.downlink_gains,
                               downlink_bc(frame, state, noise_rng))]


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
                     noise_rng, kappa: float = 1.5, max_iter: int = 50):
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
    received = _uplink([projection.matrix @ s for s in sparse], state, power,
                       channel_uses, noise_rng)
    estimate = cs_decode(projection, received, min(dim, q * len(updates)),
                         kappa=kappa, max_iter=max_iter)
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
                       power: float, channel_uses: int, noise_rng,
                       kappa: float = 1.5, max_iter: int = 50):
    """Broadcast a weight vector analogically; returns (per-device estimates, acc)."""
    update = np.asarray(update, dtype=np.float64)
    _check_projection(projection, update.size, channel_uses)
    sparse = top_k_sparsify(update + acc.residual, q)
    new_acc = accumulate_error(acc, update, sparse)
    receptions = _downlink(projection.matrix @ sparse, state, power,
                           channel_uses, noise_rng)
    return [cs_decode(projection, y, min(update.size, q), kappa=kappa,
                      max_iter=max_iter) for y in receptions], new_acc


def fd_analog_downlink(table: np.ndarray, state: ChannelState, power: float,
                       channel_uses: int, noise_rng) -> list[np.ndarray]:
    """Broadcast a logit table analogically; returns per-device table estimates."""
    table = np.asarray(table, dtype=np.float64)
    rho, payload = _repeat_table(table, channel_uses)
    return [_mean_table(y, rho, table.shape)
            for y in _downlink(payload, state, power, channel_uses, noise_rng)]
