"""Quasi-static fading uplink MAC and downlink broadcast channel.

Gains are Rayleigh: circularly-symmetric complex Gaussian, unit variance,
i.i.d. across devices, directions, and global iterations. Receiver noise is
complex Gaussian with unit variance per entry. Transmit power is accounted
per frame: mean squared magnitude over the frame length must not exceed the
declared budget.
"""

from dataclasses import dataclass, field

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
        if not (np.all(np.isfinite(up.view(np.float64)))
                and np.all(np.isfinite(down.view(np.float64)))):
            raise ConfigurationError("channel gains must be finite")
        object.__setattr__(self, "uplink_gains", up)
        object.__setattr__(self, "downlink_gains", down)

    @property
    def num_devices(self) -> int:
        return self.uplink_gains.shape[0]


@dataclass(frozen=True)
class AnalogFrame:
    """One transmitted baseband block with its declared power budget."""

    samples: np.ndarray
    power_budget: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigurationError("frame must be a non-empty 1-d complex vector")
        object.__setattr__(self, "samples", samples)
        audit.count_power_check()
        mean_power = float(np.sum(np.abs(samples) ** 2)) / samples.size
        if mean_power > self.power_budget * (1.0 + POWER_RTOL):
            audit.count_violation()
            raise ValueError(
                f"frame power {mean_power:.6g} exceeds budget {self.power_budget:.6g}")

    def __len__(self) -> int:
        return self.samples.size


def sample_channel(rng: np.random.Generator, num_devices: int) -> ChannelState:
    """Draw fresh unit-variance complex Gaussian gains for both directions."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    draws = rng.standard_normal((2, num_devices, 2))
    gains = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
    return ChannelState(uplink_gains=gains[0], downlink_gains=gains[1])


def _complex_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    draws = rng.standard_normal((n, 2))
    return (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)


def uplink_mac(frames, state: ChannelState,
               noise_rng: np.random.Generator | None) -> np.ndarray:
    """Superpose all device frames through their fading gains, add noise.

    Pass noise_rng=None to disable the additive noise (deterministic
    round-trip testing only; real links always carry noise).
    """
    frames = list(frames)
    if len(frames) != state.num_devices:
        raise ConfigurationError(
            f"{len(frames)} frames for {state.num_devices} devices")
    length = len(frames[0])
    if any(len(f) != length for f in frames):
        raise ConfigurationError("uplink frames must share one length")
    received = np.zeros(length, dtype=np.complex128)
    for gain, frame in zip(state.uplink_gains, frames):
        received += gain * frame.samples
    if noise_rng is not None:
        received += _complex_noise(noise_rng, length)
    return received


def downlink_bc(frame: AnalogFrame, state: ChannelState,
                noise_rng: np.random.Generator | None) -> list[np.ndarray]:
    """Broadcast one frame; device k sees its own gain and its own noise."""
    receptions = []
    for gain in state.downlink_gains:
        r = gain * frame.samples
        if noise_rng is not None:
            r = r + _complex_noise(noise_rng, len(frame))
        receptions.append(r)
    return receptions
