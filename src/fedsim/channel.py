"""Quasi-static fading uplink MAC and downlink broadcast channel.

Gains are Rayleigh: circularly-symmetric complex Gaussian, unit variance,
i.i.d. across devices, directions, and global iterations. Receiver noise is
complex Gaussian with unit variance per entry. The channel moves sample
arrays with the device axis first: the uplink takes the (K, T) block of
the device frames, the downlink returns the (K, T) block of receptions.
Neither makes another (K, T) array: the uplink sums the faded rows into one
(T,) reception, and the downlink draws its noise as the reception block and
adds each device's faded copy to its row. Transmit power is checked on each
frame block as it is built (`check_frame_power`): no row's mean squared
magnitude may exceed the declared budget.
"""

from dataclasses import dataclass

import numpy as np

from . import audit
from .errors import ConfigurationError

# Relative slack for the frame-power check; frames are built to hit the
# budget exactly, so anything above this is a genuine violation.
POWER_RTOL = 1e-9


@dataclass(frozen=True)
class ChannelState:
    """Per-iteration fading gains for all K devices, both directions."""

    uplink_gains: np.ndarray
    downlink_gains: np.ndarray

    def __post_init__(self):
        up = np.asarray(self.uplink_gains, dtype=np.complex128)
        down = np.asarray(self.downlink_gains, dtype=np.complex128)
        if up.ndim != 1 or down.ndim != 1 or up.shape != down.shape:
            raise ConfigurationError("gain vectors must be 1-d with equal length")
        if not (np.all(np.isfinite(up)) and np.all(np.isfinite(down))):
            raise ConfigurationError("channel gains must be finite")
        object.__setattr__(self, "uplink_gains", up)
        object.__setattr__(self, "downlink_gains", down)


def check_frame_power(frames: np.ndarray, power_budget: float) -> None:
    """Check each row of a (K, T) frame block against the power budget.

    Counts one power check per frame; raises ValueError, counting one
    violation, if any frame's mean squared magnitude exceeds the budget.
    A row's energy is the sum of squares of its 2T reals, read through the
    block's float view, so the check makes no (K, T) temporary.
    """
    frames = np.ascontiguousarray(frames, dtype=np.complex128)
    if frames.ndim != 2 or frames.shape[1] == 0:
        raise ConfigurationError(
            f"a frame block of shape {frames.shape}; need (K, T), T >= 1")
    audit.count_power_check(len(frames))
    reals = frames.view(np.float64)
    mean_power = np.einsum("ij,ij->i", reals, reals) / frames.shape[1]
    worst = float(np.max(mean_power, initial=0.0))
    if worst > power_budget * (1.0 + POWER_RTOL):
        audit.count_violation()
        raise ValueError(
            f"frame power {worst:.6g} exceeds budget {power_budget:.6g}")


def sample_channel(rng: np.random.Generator, num_devices: int) -> ChannelState:
    """Draw fresh unit-variance complex Gaussian gains for both directions."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    gains = _complex_gaussian(rng, (2, num_devices))
    return ChannelState(uplink_gains=gains[0], downlink_gains=gains[1])


def _complex_gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Unit-variance circular complex Gaussians: per entry, the next two
    standard normal draws times 1/sqrt(2), read in place as re and im. Bit
    for bit `(re + 1j * im) / sqrt(2)` (numpy divides by a real as a product
    with its reciprocal) without that form's three temporaries."""
    draws = rng.standard_normal(shape + (2,))
    draws *= 1.0 / np.sqrt(2.0)
    return draws.view(np.complex128)[..., 0]


def uplink_mac(frames: np.ndarray, state: ChannelState,
               noise_rng: np.random.Generator | None) -> np.ndarray:
    """Superpose the (K, T) frame block through the fading gains, add noise.

    The faded rows are summed in device order into one (T,) reception, each
    `gain * frame` through one (T,) buffer: bit for bit `np.sum(gains[:,
    None] * frames, axis=0)` without its (K, T) product; `gains @ frames`
    is not. The frame block is only read. Pass noise_rng=None to disable
    the additive noise (deterministic round-trip testing only; real links
    always carry noise).
    """
    gains = state.uplink_gains
    if np.ndim(frames) != 2 or not len(frames) or len(frames) != len(gains):
        raise ConfigurationError(f"a frame block of shape {np.shape(frames)} "
                                 f"for {len(gains)} devices")
    received = gains[0] * frames[0]
    faded = np.empty_like(received)
    for gain, frame in zip(gains[1:], frames[1:]):
        received += np.multiply(gain, frame, out=faded)
    if noise_rng is not None:
        received += _complex_gaussian(noise_rng, received.shape)
    return received


def downlink_bc(frame: np.ndarray, state: ChannelState,
                noise_rng: np.random.Generator | None) -> np.ndarray:
    """Broadcast one frame of T samples; row k of the (K, T) block returned
    is what device k sees, through its own gain and with its own noise.

    The noise is one (K, T) draw, bit for bit K draws of T in device order,
    and it is the block returned: each device's `gain * frame` is added to
    its row in place, through one (T,) buffer. IEEE addition commutes, so
    noise + faded copy is faded copy + noise bit for bit. Anything but one
    row of T >= 1 samples raises ConfigurationError.
    """
    gains = state.downlink_gains
    if np.ndim(frame) != 1 or not np.size(frame):
        raise ConfigurationError(f"a frame of shape {np.shape(frame)}; need "
                                 "one row of T >= 1 samples")
    if noise_rng is None:
        return gains[:, None] * frame
    received = _complex_gaussian(noise_rng, (len(gains), len(frame)))
    faded = np.empty(len(frame), dtype=np.complex128)
    for gain, row in zip(gains, received):
        row += np.multiply(gain, frame, out=faded)
    return received
