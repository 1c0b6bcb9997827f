import re

import numpy as np
import pytest

from fedsim import audit
from fedsim.channel import (
    ChannelState, check_frame_power, downlink_bc, sample_channel, uplink_mac,
)
from fedsim.errors import ConfigurationError


def rng(seed=0):
    return np.random.default_rng(seed)


def block(*frames):
    """The (K, T) block of K frames of T samples."""
    return np.array(frames, dtype=np.complex128)


# The benchmark's link: K = 10 devices, T = 2500 channel uses. A (T,) complex
# row takes 40 KB and the (K, T) block 400 KB.
K, T = 10, 2500
ROW_BYTES = 16 * T


class TestChannelState:
    @pytest.mark.parametrize("up,down", [
        (np.ones(2, complex), np.ones(3, complex)),
        (np.array([1 + 0j, np.nan]), np.ones(2, complex)),
        (np.ones(1, complex), np.array([complex(0.0, np.inf)])),
    ], ids=["unequal_lengths", "nan_uplink", "inf_downlink"])
    def test_rejected(self, up, down):
        with pytest.raises(ConfigurationError):
            ChannelState(up, down)


class TestSampleChannel:
    def test_same_seed_same_state(self):
        a = sample_channel(rng(7), 5)
        b = sample_channel(rng(7), 5)
        np.testing.assert_array_equal(a.uplink_gains, b.uplink_gains)
        np.testing.assert_array_equal(a.downlink_gains, b.downlink_gains)

    def test_cardinality(self):
        state = sample_channel(rng(1), 10)
        assert state.uplink_gains.shape == (10,)
        assert state.downlink_gains.shape == (10,)

    def test_unit_mean_square_gain(self):
        # Monte-Carlo estimate of E|h|^2 for unit-variance Rayleigh fading.
        state = sample_channel(rng(123), 100_000)
        for gains in (state.uplink_gains, state.downlink_gains):
            assert abs(np.mean(np.abs(gains) ** 2) - 1.0) < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_channel(rng(0), 0)


class TestUplinkMac:
    def test_identity_channel(self):
        state = ChannelState(np.array([1 + 0j]), np.array([1 + 0j]))
        y = uplink_mac(block([1 + 0j]), state, None)
        np.testing.assert_allclose(y, [1 + 0j])

    def test_superposition(self):
        state = ChannelState(np.array([1 + 0j, 1 + 0j]), np.ones(2, complex))
        y = uplink_mac(block([1 + 0j], [2 + 0j]), state, None)
        np.testing.assert_allclose(y, [3 + 0j])

    def test_complex_rotation(self):
        state = ChannelState(np.array([1j]), np.array([1 + 0j]))
        y = uplink_mac(block([1 + 0j]), state, None)
        np.testing.assert_allclose(y, [1j])

    def test_linear_in_each_frame(self):
        gen = rng(5)
        for _ in range(10):
            k, t = 3, 8
            state = sample_channel(gen, k)
            base = (gen.standard_normal((k, t))
                    + 1j * gen.standard_normal((k, t)))
            scale = gen.standard_normal()
            y1 = uplink_mac(base, state, None)
            scaled = base.copy()
            scaled[0] *= scale
            y2 = uplink_mac(scaled, state, None)
            only0 = np.zeros_like(base)
            only0[0] = base[0]
            y_only0 = uplink_mac(only0, state, None)
            np.testing.assert_allclose(y2, y1 + (scale - 1) * y_only0,
                                       atol=1e-10)

    def test_bit_for_bit_the_running_sum_over_devices(self):
        gen = rng(6)
        for k, t in ((2, 16), (3, 400), (10, 2500)):
            state = sample_channel(gen, k)
            frames = (gen.standard_normal((k, t))
                      + 1j * gen.standard_normal((k, t)))
            running = np.zeros(t, dtype=complex)
            for gain, samples in zip(state.uplink_gains, frames):
                running += gain * samples
            assert uplink_mac(frames, state, None).tobytes() \
                == running.tobytes()

    def test_noise_unit_variance(self):
        t = 100_000
        state = ChannelState(np.array([1 + 0j]), np.array([1 + 0j]))
        y = uplink_mac(np.zeros((1, t), complex), state, rng(99))
        var = np.mean(np.abs(y) ** 2)
        assert 0.98 <= var <= 1.02

    def test_mismatched_lengths_rejected(self):
        # One frame in the block for two devices.
        state = ChannelState(np.ones(2, complex), np.ones(2, complex))
        with pytest.raises(ConfigurationError):
            uplink_mac(block([1 + 0j, 2 + 0j]), state, None)

    def test_sums_without_a_block_of_products(self, traced_peak):
        # The reception, one faded row and the noise draw: 3 rows, where a
        # (K, T) product alone takes K.
        state = sample_channel(rng(15), K)
        frames = rng(16).standard_normal((K, T)) + 0j
        assert traced_peak(uplink_mac, frames, state, rng(17)) \
            <= 3.5 * ROW_BYTES


class TestDownlinkBc:
    def test_identity(self):
        state = ChannelState(np.ones(3, complex), np.ones(3, complex))
        received = downlink_bc(np.array([2 + 0j]), state, None)
        assert received.shape == (3, 1)
        for r in received:
            np.testing.assert_allclose(r, [2 + 0j])

    def test_zero_gain_pure_noise(self):
        state = ChannelState(np.ones(2, complex),
                             np.array([0 + 0j, 1 + 0j]))
        received = downlink_bc(np.array([5 + 0j]), state, rng(3))
        assert abs(received[0][0]) > 0           # noise only, almost surely
        assert abs(received[0][0] - 5) > 1e-6    # signal fully suppressed

    def test_per_device_scaling(self):
        state = ChannelState(np.ones(2, complex),
                             np.array([1 + 0j, 2 + 0j]))
        received = downlink_bc(np.array([1 + 0j]), state, None)
        np.testing.assert_allclose(received[0], [1 + 0j])
        np.testing.assert_allclose(received[1], [2 + 0j])

    def test_independent_noise_per_device(self):
        state = ChannelState(np.ones(2, complex), np.ones(2, complex))
        received = downlink_bc(np.zeros(64, complex), state, rng(11))
        assert not np.allclose(received[0], received[1])

    def test_one_noise_draw_is_the_per_device_draws(self):
        # Device k's noise is the k-th of K consecutive draws of T.
        state = sample_channel(rng(12), 4)
        frame = rng(13).standard_normal(50) + 0j
        received = downlink_bc(frame, state, rng(14))
        gen = rng(14)
        for gain, r in zip(state.downlink_gains, received):
            draws = gen.standard_normal((50, 2))
            noise = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
            assert r.tobytes() == (gain * frame + noise).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (), (0,)])
    def test_frame_must_be_one_row_of_samples(self, shape):
        # A (K, T) frame would broadcast against the K gains and go out as
        # per-device frames; a 0-d one as a frame of one sample.
        state = ChannelState(np.ones(2, complex), np.ones(2, complex))
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"a frame of shape {shape}")):
            downlink_bc(np.ones(shape, complex), state, rng(18))

    def test_the_noise_draw_is_the_reception_block(self, traced_peak):
        # The (K, T) block returned and one faded row, where adding the
        # noise to a (K, T) product takes two blocks.
        state = sample_channel(rng(19), K)
        frame = rng(20).standard_normal(T) + 0j
        assert traced_peak(downlink_bc, frame, state, rng(21)) \
            <= (K + 1.5) * ROW_BYTES


class TestFramePower:
    def test_over_budget_rejected(self):
        with pytest.raises(ValueError):
            check_frame_power(block([2 + 0j]), power_budget=1.0)

    def test_at_budget_accepted(self):
        check_frame_power(block([1 + 0j, 1j], [1j, -1 + 0j]), power_budget=1.0)

    def test_each_row_is_checked_alone(self):
        # Mean power 2.5 over the block, but row 1 alone is at 4.
        frames = block([1 + 0j, 1j], [2 + 0j, 2j])
        check_frame_power(frames[:1], power_budget=1.0)
        violations = audit.violations
        with pytest.raises(ValueError, match="frame power 4 exceeds"):
            check_frame_power(frames, power_budget=3.0)
        assert audit.violations == violations + 1

    def test_counts_one_power_check_per_row(self):
        before = audit.power_checks
        check_frame_power(np.zeros((3, 5), complex), power_budget=1.0)
        assert audit.power_checks == before + 3

    @pytest.mark.parametrize("shape", [(4,), (2, 0), (1, 2, 3)])
    def test_block_without_frames_rejected(self, shape):
        with pytest.raises(ConfigurationError):
            check_frame_power(np.zeros(shape, complex), power_budget=1.0)

    def test_reads_the_block_without_temporaries(self, traced_peak):
        # np.abs(frames) ** 2 would take two (K, T) float arrays, one block.
        frames = np.full((K, T), 0.6 + 0.8j)
        assert traced_peak(check_frame_power, frames, 1.0) <= 0.25 * ROW_BYTES
