import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedsim import analog_link, audit
from fedsim.analog_link import (
    AMP_KAPPA, AMP_MAX_ITER, AMP_TOL, ProjectionMatrix, _downlink,
    _fft_length, _mean_table, _repeat_table, _uplink, cs_decode,
    fd_analog_downlink, fd_analog_uplink, fl_analog_downlink,
    fl_analog_uplink, mmse_factor_downlink, mmse_factor_uplink,
    precompensate,
)
from fedsim.channel import (
    POWER_RTOL, ChannelState, check_frame_power, downlink_bc, sample_channel,
)
from fedsim.compression import ErrorAccumulator, top_k_sparsify
from fedsim.errors import DivergenceError


def unit_state(k):
    return ChannelState(np.ones(k, complex), np.ones(k, complex))


def frame_block(xs, uses):
    """A (K, uses) frame block with the (K, n) complex payloads xs in its
    first n channel uses, as the link's senders leave it."""
    xs = np.asarray(xs, dtype=complex)
    frames = np.zeros((len(xs), uses), complex)
    frames[:, :xs.shape[1]] = xs
    return frames


def precompensated(xs, gains, power, uses):
    """(frames, scales) of `precompensate` on a frame block of xs."""
    frames = frame_block(xs, uses)
    return frames, precompensate(frames, gains, power)


def reference_scale(reals, power, uses):
    """The full-power transmit scale sqrt(P*T) / sqrt(sum of reals^2) of a
    frame row of `uses` channel uses, given as its 2 * uses reals."""
    return math.sqrt(power * uses) / math.sqrt(np.einsum("i,i", reals, reals))


def repeated(tables, uses):
    """(rho, frame reals) `_repeat_table` writes into a zero frame block of
    T = uses per table, the padding included."""
    frames = np.zeros(np.shape(tables)[:-2] + (uses,), complex)
    rho = _repeat_table(np.asarray(tables), frames)
    return rho, frames.view(np.float64)


# What `ProjectionMatrix` draws from its seed, the products' buffers aside.
DRAWN = ("signs", "picks", "forward", "backward")


class TestComplexFrames:
    """A real payload goes on the air two reals per complex channel use."""

    def test_uplink_sends_reals_in_pairs(self, monkeypatch):
        sent = []

        def noiseless_sum(frames, state, noise_rng):
            sent.append(frames.copy())
            return frames.sum(axis=0)

        monkeypatch.setattr(analog_link, "uplink_mac", noiseless_sum)
        payload = np.array([[3.0, -4.0, 0.0, 1.0, 0.0, 0.0]])
        frames = payload.copy().view(np.complex128)
        estimate = _uplink(frames, unit_state(1), 1.0, None)
        scale = reference_scale(payload[0], 1.0, 3)
        np.testing.assert_allclose(sent[0], [[scale * (3 - 4j), scale * 1j,
                                              0j]], rtol=1e-12)
        factor = mmse_factor_uplink(np.array([scale]), np.array([1.0]))
        np.testing.assert_allclose(estimate, factor * scale * payload[0],
                                   rtol=1e-12)


class TestPrecompensate:
    def test_full_power_scale(self):
        frames, scales = precompensated(np.array([[2.0 + 0j]]), [1.0 + 0j],
                                        power=1.0, uses=1)
        assert abs(np.sum(np.abs(frames) ** 2) - 1.0) < 1e-12
        assert scales.tolist() == [0.5]

    def test_real_positive_gain_no_rotation(self):
        x = np.array([[1 + 1j, 2 - 1j]])
        frames, _ = precompensated(x, [3.0 + 0j], power=1.0, uses=2)
        ratio = frames / x
        np.testing.assert_allclose(ratio.imag, 0.0, atol=1e-12)
        assert np.all(ratio.real > 0)

    def test_phase_cancellation(self):
        gen = np.random.default_rng(1)
        xs = gen.standard_normal((10, 6)) + 1j * gen.standard_normal((10, 6))
        gains = gen.standard_normal(10) + 1j * gen.standard_normal(10)
        frames, scales = precompensated(xs, gains, power=2.0, uses=6)
        for x, h, frame, scale in zip(xs, gains, frames, scales):
            ratio = h * frame / x
            np.testing.assert_allclose(ratio.imag, 0.0, atol=1e-9)
            np.testing.assert_allclose(ratio.real, abs(h) * scale, rtol=1e-9)
            assert scale == reference_scale(x.view(np.float64), 2.0, 6)

    def test_zero_payload_is_zero_frame(self):
        xs = np.array([[0j, 0j, 0j], [1j, 0j, 0j]])
        frames, scales = precompensated(xs, [1j, 1j], 1.0, 4)
        np.testing.assert_array_equal(frames[0], np.zeros(4, complex))
        assert scales[0] == 0.0 and scales[1] == 2.0
        np.testing.assert_array_equal(frames[1], [2, 0, 0, 0])

    def test_frame_power_exact(self):
        gen = np.random.default_rng(2)
        xs = gen.standard_normal((3, 10)) + 1j * gen.standard_normal((3, 10))
        frames, _ = precompensated(xs, [0.5 - 0.7j, 1j, -2.0], power=3.0,
                                    uses=16)
        energy = np.sum(np.abs(frames) ** 2, axis=1)
        np.testing.assert_allclose(energy, 3.0 * 16, rtol=1e-9)

    def test_rows_are_the_lone_frames(self):
        gen = np.random.default_rng(3)
        xs = gen.standard_normal((4, 7)) + 1j * gen.standard_normal((4, 7))
        gains = np.array([0.3 - 1.1j, 0j, 2.0 + 0j, -0.4 + 0.9j])
        frames, scales = precompensated(xs, gains, 1.5, 9)
        for x, gain, frame, scale in zip(xs, gains, frames, scales):
            alone, (alone_scale,) = precompensated(x[None], [gain], 1.5, 9)
            assert frame.tobytes() == alone[0].tobytes()
            assert scale == alone_scale

    def test_counts_one_power_check_per_device(self):
        before = audit.power_checks
        precompensated(np.ones((5, 2), complex), np.ones(5, complex), 1.0, 3)
        assert audit.power_checks == before + 5

    def test_an_energy_that_overflows_is_one_error(self):
        frames = frame_block([[1.0 + 0j], [1e200 + 0j]], 2)
        with pytest.raises(DivergenceError,
                           match="^payload norm overflows the analog link$"):
            precompensate(frames, [1.0 + 0j, 1.0 + 0j], 1.0)

    @settings(max_examples=150, deadline=None)
    @given(devices=st.integers(1, 12), uses=st.integers(1, 300),
           data=st.data())
    def test_every_frame_meets_the_power_budget(self, devices, uses, data):
        # Rows of payload reals at magnitudes from 1e-150 to 1e150, or all
        # zero (None), written into a frame block as the senders do.
        samples = data.draw(st.integers(1, uses), label="samples")
        power = data.draw(st.floats(1e-3, 1e3), label="power")
        exponents = data.draw(st.lists(st.none() | st.floats(-150.0, 150.0),
                                       min_size=devices, max_size=devices),
                              label="exponents")
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        frames = np.zeros((devices, uses), complex)
        for row, exponent in zip(frames.view(np.float64), exponents):
            if exponent is not None:
                row[:2 * samples] = gen.uniform(0.5, 1.0, 2 * samples) \
                    * gen.choice([-1.0, 1.0], 2 * samples) * 10.0 ** exponent
        gains = gen.standard_normal(devices) + 1j * gen.standard_normal(devices)
        scales = precompensate(frames, gains, power)
        check_frame_power(frames, power)
        assert not np.any(frames[:, samples:])
        mean_power = np.sum(np.abs(frames) ** 2, axis=1) / uses
        for frame, scale, row_power, exponent in zip(frames, scales,
                                                      mean_power, exponents):
            if exponent is None:
                assert scale == 0.0 and not np.any(frame)
            else:
                assert row_power == pytest.approx(power, rel=POWER_RTOL)


class TestMmseScaling:
    def test_single_device_factor(self):
        assert abs(mmse_factor_uplink(np.array([1.0]), np.array([1.0]))
                   - 2.0 / 3.0) < 1e-12

    def test_noiseless_limit(self):
        amp = 1e6
        nu = mmse_factor_uplink(np.array([amp]), np.array([1.0]))
        assert abs(nu * amp - 1.0) < 1e-9

    def test_downlink_factor(self):
        assert abs(mmse_factor_downlink(1.0, 1.0) - 2.0 / 3.0) < 1e-12
        assert mmse_factor_downlink(1.0, 0.0) == 0.0
        assert abs(mmse_factor_downlink(1e6, 1.0) * 1e6 - 1.0) < 1e-9

    def test_factor_minimizes_monte_carlo_mse(self):
        # Independent oracle: empirical MSE over a grid of candidate scalars.
        gen = np.random.default_rng(3)
        n = 2_000_000
        amps = np.array([0.7, 1.3, 0.4])
        signals = gen.standard_normal((3, n))
        noise = gen.standard_normal(n) * np.sqrt(0.5)
        y = amps @ signals + noise
        target = signals.sum(axis=0)
        grid = np.arange(0.0, 1.2, 1e-3)
        # mean((nu*y - t)^2) = nu^2 E[y^2] - 2 nu E[y t] + E[t^2]
        yy, yt, tt = np.mean(y * y), np.mean(y * target), np.mean(target ** 2)
        mses = grid ** 2 * yy - 2.0 * grid * yt + tt
        best = grid[int(np.argmin(mses))]
        formula = mmse_factor_uplink(np.ones(3), amps)
        assert abs(best - formula) <= 1e-3

    def test_scale_applies_factor(self):
        # Noiseless links, one 2x2 table per device and T=2 (redundancy 1):
        # what arrives is each device's full-power amplitude times its table,
        # phase-aligned, and the receiver scales the sum by the MMSE factor.
        tables = np.array([[[1.0, -2.0], [0.5, 3.0]], np.full((2, 2), -0.5)])
        gains = np.array([2j, 0.3 - 0.4j])
        gammas = [reference_scale(t.ravel(), 2.0, 2) for t in tables]
        state = ChannelState(gains, np.array([0.6 + 0.8j, 0.0]))
        estimate = fd_analog_uplink(tables, state, 2.0, 2, None)
        nu = mmse_factor_uplink(gammas, np.abs(gains))
        expected = nu * sum(g * abs(h) * t
                            for g, h, t in zip(gammas, gains, tables))
        np.testing.assert_allclose(estimate, expected, rtol=1e-12)
        received = fd_analog_downlink(tables[0], state, 2.0, 2, None)
        nu_d = mmse_factor_downlink(gammas[0], 1.0)
        np.testing.assert_allclose(received[0], nu_d * gammas[0] * tables[0],
                                   rtol=1e-12)
        # A null downlink gain gets a zero factor, not a division by zero.
        np.testing.assert_array_equal(received[1], np.zeros((2, 2)))


class TestRepetition:
    def test_encode_basic(self):
        rho, payload = repeated(np.array([[1.0, 2.0], [3.0, 4.0]]), 4)
        assert rho == 2
        np.testing.assert_array_equal(payload, [1, 2, 3, 4, 1, 2, 3, 4])

    def test_odd_length_padded_with_a_zero(self):
        table = np.arange(9.0).reshape(3, 3)
        rho, payload = repeated(table, 7)
        assert rho == 1
        np.testing.assert_array_equal(payload, list(range(9)) + [0] * 5)

    def test_rho_one_identity(self):
        table = np.array([[3.0, -1.0]])
        rho, payload = repeated(table, 1)
        assert rho == 1
        np.testing.assert_array_equal(payload, table.ravel())
        np.testing.assert_array_equal(_mean_table(payload, 1, (1, 2)), table)

    def test_decode_mean(self):
        np.testing.assert_array_equal(
            _mean_table(np.array([1.0, 3.0]), 2, (1, 1)), [[2.0]])

    def test_roundtrip(self):
        gen = np.random.default_rng(4)
        tables = gen.standard_normal((2, 3, 3))
        rho, payloads = repeated(tables, 23)
        assert rho == 5 and payloads.shape == (2, 46)
        np.testing.assert_allclose(_mean_table(payloads, rho, (3, 3)), tables)

    def test_block_rows_are_the_lone_tables(self):
        gen = np.random.default_rng(6)
        tables = gen.standard_normal((3, 4, 4))
        rho, payloads = repeated(tables, 37)
        noisy = payloads + gen.standard_normal(payloads.shape)
        means = _mean_table(noisy, rho, (4, 4))
        for table, payload, reals, mean in zip(tables, payloads, noisy, means):
            lone_rho, lone_payload = repeated(table, 37)
            assert lone_rho == rho
            assert lone_payload.tobytes() == payload.tobytes()
            assert _mean_table(reals, rho, (4, 4)).tobytes() == mean.tobytes()

    def test_noise_variance_reduction(self):
        gen = np.random.default_rng(5)
        sigma2 = 0.8
        for rho in (1, 2, 4):
            trials = 10_000 // 16 + 1
            noise = gen.standard_normal((trials, rho * 16)) * np.sqrt(sigma2)
            var = np.var(_mean_table(noise, rho, (4, 4)))
            assert abs(var - sigma2 / rho) / (sigma2 / rho) < 0.10


class TestCsDecode:
    @staticmethod
    def sparse_instance(dim, rows, sparsity, seed, operator=ProjectionMatrix):
        gen = np.random.default_rng(seed)
        proj = operator(rows, dim, seed + 1000)
        truth = np.zeros(dim)
        support = gen.choice(dim, sparsity, replace=False)
        truth[support] = gen.standard_normal(sparsity)
        return proj, proj.project(truth), truth

    def test_zero_measurement_zero_estimate(self):
        proj = ProjectionMatrix(rows=20, cols=50, seed=0)
        np.testing.assert_array_equal(cs_decode(proj, np.zeros(20)),
                                      np.zeros(50))

    def test_noiseless_sparse_recovery(self):
        hits = 0
        for seed in range(20):
            proj, y, truth = self.sparse_instance(2000, 600, 50, seed)
            estimate = cs_decode(proj, y)
            nmse = np.sum((estimate - truth) ** 2) / np.sum(truth ** 2)
            hits += nmse <= 1e-3
        assert hits >= 18

    def test_overdetermined_sparse_exact(self):
        proj, y, truth = self.sparse_instance(100, 200, 30, 7)
        estimate = cs_decode(proj, y)
        assert np.sum((estimate - truth) ** 2) / np.sum(truth ** 2) <= 1e-6

    def test_overdetermined_dense_exact(self):
        gen = np.random.default_rng(8)
        dim = 100
        proj = ProjectionMatrix(rows=6 * dim, cols=dim, seed=9)
        truth = gen.standard_normal(dim)
        estimate = cs_decode(proj, proj.project(truth))
        assert np.sum((estimate - truth) ** 2) / np.sum(truth ** 2) <= 1e-6

    def test_nmse_non_increasing_in_measurements(self):
        means = []
        for rows in (300, 600, 1200):
            vals = []
            for seed in range(10):
                proj, y, truth = self.sparse_instance(2000, rows, 50, seed)
                estimate = cs_decode(proj, y)
                vals.append(np.sum((estimate - truth) ** 2)
                            / np.sum(truth ** 2))
            means.append(np.mean(vals))
        assert means[0] >= means[1] >= means[2]

    # Donoho-Maleki-Montanari's l1 phase transition: noiseless AMP recovers
    # a k-sparse vector from m = delta * n measurements when rho = k / m
    # lies under their curve rho(delta), near 0.38 at delta = 0.5, and
    # fails above it. n is the benchmark model's weight count.
    PHASE_DIM, PHASE_DRAWS = 1362, 5

    def phase_errors(self, delta, rho, operator=ProjectionMatrix):
        """Relative squared errors of noiseless decodes at (delta, rho),
        one per seeded draw of a Gaussian vector on a random support."""
        rows = round(delta * self.PHASE_DIM)
        errors = []
        for seed in range(self.PHASE_DRAWS):
            proj, y, truth = self.sparse_instance(
                self.PHASE_DIM, rows, round(rho * rows), seed, operator)
            estimate = cs_decode(proj, y)
            errors.append(np.sum((estimate - truth) ** 2)
                          / np.sum(truth ** 2))
        return errors

    @pytest.mark.parametrize("delta", [0.3, 0.5])
    @pytest.mark.parametrize("rho", [0.05, 0.10])
    def test_recovers_well_inside_the_phase_transition(self, delta, rho):
        assert max(self.phase_errors(delta, rho)) < 1e-9

    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_fails_well_past_the_phase_transition(self, delta):
        assert min(self.phase_errors(delta, 0.5)) > 1e-2

    def test_projection_regeneration_bit_exact(self):
        a = ProjectionMatrix(rows=64, cols=128, seed=42)
        b = ProjectionMatrix(rows=64, cols=128, seed=42)
        v = np.random.default_rng(0).standard_normal(128)
        assert a.project(v).tobytes() == b.project(v).tobytes()
        for drawn in DRAWN:
            assert getattr(a, drawn).tobytes() == getattr(b, drawn).tobytes()

    @pytest.mark.parametrize("rows,cols", [(20, 30), (5000, 1362)])
    def test_products_leave_the_drawn_arrays_untouched(self, rows, cols):
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=5)
        drawn = {name: getattr(proj, name) for name in DRAWN}
        copies = {name: array.copy() for name, array in drawn.items()}
        gen = np.random.default_rng(5)
        for _ in range(2):
            proj.project(gen.standard_normal(cols))
            proj.backproject(gen.standard_normal(rows))
        for name, array in drawn.items():
            assert getattr(proj, name) is array
            assert array.tobytes() == copies[name].tobytes()

    # AMP runs where rows < cols (2T < W on a link), so always on one FFT
    # block: analog_mix's T = 100 and T = 500 at W = 1362, odd row counts
    # (the median of two middle values) and one row short of square.
    @pytest.mark.parametrize("rows,cols", [(200, 1362), (1000, 1362),
                                           (61, 150), (1, 4), (199, 200)])
    def test_decode_is_the_median_and_norm_loop_bit_for_bit(self, rows, cols):
        for seed in range(3):
            proj = ProjectionMatrix(rows=rows, cols=cols, seed=seed + 50)
            gen = np.random.default_rng(seed)
            truth = gen.standard_normal(cols) * (gen.random(cols) < 0.3)
            y = proj.project(truth) + 0.05 * gen.standard_normal(rows)
            assert np.array_equal(
                cs_decode(proj, y),
                reference_amp(y, proj.project, proj.backproject))

    @settings(max_examples=40, deadline=None)
    @given(shape=st.integers(2, 400).flatmap(lambda cols: st.tuples(
               st.integers(1, cols - 1), st.just(cols))),
           density=st.floats(0, 1), noise=st.floats(0, 1),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(61, 150), density=0.3, noise=0.05, seed=0)
    @example(shape=(199, 200), density=0.3, noise=0.05, seed=0)
    def test_decode_is_the_reference_on_drawn_instances(self, shape, density,
                                                        noise, seed):
        rows, cols = shape
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=seed)
        gen = np.random.default_rng(seed)
        truth = gen.standard_normal(cols) * (gen.random(cols) < density)
        y = proj.project(truth) + noise * gen.standard_normal(rows)
        assert np.array_equal(
            cs_decode(proj, y),
            reference_amp(y, proj.project, proj.backproject))

    # Where rows >= cols (2T >= W on a link), cs_decode is least squares by
    # conjugate gradients.

    @staticmethod
    def dense_instance(rows, cols, seed, noise):
        """(projection, y, x) for a dense Gaussian x and y = A x plus noise
        at `noise` times the rms of A x."""
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=seed + 70)
        gen = np.random.default_rng(seed)
        truth = gen.standard_normal(cols)
        clean = proj.project(truth)
        y = clean + (noise * np.sqrt(np.mean(clean ** 2))
                     * gen.standard_normal(rows))
        return proj, y, truth

    # One FFT block (60, 56) and several (7, 5), (200, 60); odd W (78, 77);
    # W = 1 (3, 1); and square: (1, 1), (56, 56) and (60, 60), whose A is
    # orthogonal. The stall rule stops short of the exact solution by a
    # relative squared distance of at most 2.4e-6 (at (200, 60), over
    # seeds 0-19); elsewhere the two agree to rounding.
    @pytest.mark.parametrize("rows,cols", [(60, 56), (7, 5), (200, 60),
                                           (78, 77), (3, 1), (1, 1),
                                           (56, 56), (60, 60)])
    def test_decode_is_lstsq_on_small_shapes(self, rows, cols):
        for seed in range(3):
            proj, y, _ = self.dense_instance(rows, cols, seed, noise=0.2)
            want = np.linalg.lstsq(dense(proj), y, rcond=None)[0]
            got = cs_decode(proj, y)
            assert np.sum((got - want) ** 2) <= 1e-5 * np.sum(want ** 2)

    # amp_T2500's 5000 x 1362 (four FFT blocks), 2T = 2000 at the same W,
    # and the goldens' T = 400 at W = 83. Most decodes end at rounding
    # (about 1e-31); at 2000 x 1362 the cap ends them near 1e-21.
    @pytest.mark.parametrize("rows,cols", [(5000, 1362), (2000, 1362),
                                           (800, 83), (200, 100)])
    def test_noiseless_overdetermined_recovery_is_exact(self, rows, cols):
        for seed in range(3):
            proj, y, truth = self.dense_instance(rows, cols, seed, noise=0.0)
            error = np.sum((cs_decode(proj, y) - truth) ** 2)
            assert error <= 1e-18 * np.sum(truth ** 2)

    # amp_T2500's W = 1362 at 2T = 5000 and 2T = 2000, with noise at a fifth
    # of the measurements' rms: the residual reaches its floor within a few
    # steps (4-5 at 5000, 9-10 at 2000), near the least-squares x.
    @pytest.mark.parametrize("rows,steps", [(2000, 12), (5000, 6)])
    def test_noisy_overdetermined_decodes_are_least_squares(self, rows,
                                                            steps):
        for seed in range(3):
            proj, y, _ = self.dense_instance(rows, 1362, seed, noise=0.2)
            counted = CountedProducts(proj)
            estimate = cs_decode(counted, y)
            assert counted.products <= steps
            want = np.linalg.lstsq(dense(proj), y, rcond=None)[0]
            assert np.sum((estimate - want) ** 2) <= 1e-3 * np.sum(want ** 2)

    # A dense x where 2T >= W: AMP's threshold shrinks every entry, least
    # squares is unbiased. AMP is reached as cs_decode reaches it below
    # 2T = W.
    @pytest.mark.parametrize("rows", [1400, 2000, 5000])
    def test_least_squares_beats_amp_where_overdetermined(self, rows):
        for seed in range(3):
            proj, y, truth = self.dense_instance(rows, 1362, seed, noise=0.2)
            amp_error = np.sum((analog_link._amp(proj, y) - truth) ** 2)
            assert np.sum((cs_decode(proj, y) - truth) ** 2) < amp_error

    # CGLS's residual falls at every step, so the estimate never fits y
    # worse than x = 0 does (up to rounding in recomputing A x).
    @settings(max_examples=40, deadline=None)
    @given(shape=st.integers(1, 300).flatmap(lambda cols: st.tuples(
               st.integers(cols, 600), st.just(cols))),
           density=st.floats(0, 1), noise=st.floats(0, 1),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(1, 1), density=0.0, noise=1.0, seed=0)
    @example(shape=(600, 1), density=1.0, noise=1.0, seed=0)
    def test_least_squares_is_finite_and_fits_y(self, shape, density, noise,
                                                seed):
        rows, cols = shape
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=seed)
        gen = np.random.default_rng(seed)
        truth = gen.standard_normal(cols) * (gen.random(cols) < density)
        y = proj.project(truth) + noise * gen.standard_normal(rows)
        estimate = cs_decode(proj, y)
        assert np.all(np.isfinite(estimate))
        misfit = np.linalg.norm(y - proj.project(estimate))
        assert misfit <= (1 + 1e-12) * np.linalg.norm(y)

    def test_least_squares_guards(self):
        proj = ProjectionMatrix(rows=200, cols=100, seed=3)
        zeros = np.zeros(100)
        # A zero A.T y, and a norm of y that overflows: no step is taken.
        assert np.array_equal(cs_decode(proj, np.zeros(200)), zeros)
        assert np.array_equal(cs_decode(proj, np.full(200, 1e200)), zeros)
        # y outside A's range: A.T y is rounding, and so is the estimate.
        a = dense(proj)
        z = np.random.default_rng(3).standard_normal(200)
        y = z - a @ np.linalg.lstsq(a, z, rcond=None)[0]
        assert np.linalg.norm(cs_decode(proj, y)) <= 1e-12 * np.linalg.norm(y)

    # OpenBLAS's ddot splits vectors longer than 10000 over its threads,
    # which changes a sum's last bits, and CG's step sizes are such sums:
    # a decode at 2T = 20000 must not see the thread count.
    def test_least_squares_bits_do_not_depend_on_blas_threads(self):
        script = ("import hashlib, numpy as np\n"
                  "from fedsim.analog_link import ProjectionMatrix, cs_decode\n"
                  "for seed in range(3):\n"
                  "    proj = ProjectionMatrix(20000, 1362, seed)\n"
                  "    gen = np.random.default_rng(seed)\n"
                  "    y = (proj.project(gen.standard_normal(1362))\n"
                  "         + 0.2 * gen.standard_normal(20000))\n"
                  "    x = cs_decode(proj, y)\n"
                  "    print(hashlib.sha256(x.tobytes()).hexdigest())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = {
            subprocess.run(
                [sys.executable, "-c", script], check=True,
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src,
                         OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")}
        assert len(digests) == 1

    # Noiseless state evolution (Donoho, Maleki and Montanari; Bayati and
    # Montanari prove it tracks AMP on Gaussian matrices as W grows): at
    # (delta, rho) = (0.5, 0.2) AMP converges, at (0.5, 0.3) it stalls at a
    # nonzero error. Either way a decode must not stop short of where the
    # recursion says it is after AMP_MAX_ITER steps. Converging errors fall
    # geometrically at a rate that varies from draw to draw (here from 7e-10
    # to 3e-7 after 50 steps), so the mean of their logs, which averages
    # the rates, is compared, not their median. Only the upper side is a
    # bound: at (0.5, 0.3) decodes at W = 1362 settle below the asymptotic
    # prediction (0.4 times it, the median of 40 draws).
    @pytest.mark.parametrize("rho", [0.2, 0.3])
    def test_gaussian_decodes_follow_state_evolution(self, rho):
        errors = self.phase_errors(0.5, rho, GaussianOperator)
        predicted = state_evolution_error(0.5, rho, AMP_MAX_ITER)
        assert np.exp(np.mean(np.log(errors))) <= 3 * predicted


def reference_amp(y, project, backproject, tol=AMP_TOL):
    """cs_decode's loop written with np.median (it takes the median by
    partition) and the residual norm as the root of einsum's z.z, the sum
    its `_dot` takes, its products A @ x and A.T @ z taken by `project` and
    `backproject`, and its stall tolerance `tol` (AMP_TOL by default)."""
    rows = y.size
    z = y.copy()
    x = np.zeros_like(backproject(z))  # one entry per column of A
    best_x = x
    best_res = prev_res = math.sqrt(np.einsum("i,i", z, z))
    for _ in range(AMP_MAX_ITER):
        sigma = float(np.median(np.abs(z))) / 0.6745
        r = x + backproject(z)
        x = soft_threshold(r, AMP_KAPPA * sigma)
        z = y - project(x) + (np.count_nonzero(x) / rows) * z
        res = math.sqrt(np.einsum("i,i", z, z))
        if res < best_res:
            best_res, best_x = res, x
        if res > 10.0 * best_res \
                or abs(res - prev_res) <= tol * max(prev_res, 1e-300):
            break
        prev_res = res
    return best_x


class CountedProducts:
    """A projection whose A @ x products are counted."""

    def __init__(self, projection):
        self.projection, self.products = projection, 0
        self.rows, self.cols = projection.rows, projection.cols

    def project(self, v):
        self.products += 1
        return self.projection.project(v)

    def backproject(self, z):
        return self.projection.backproject(z)


class GaussianOperator:
    """A seeded i.i.d. N(0, 1/rows) rows x cols matrix, the A of AMP's
    state evolution, with the products `cs_decode` takes."""

    def __init__(self, rows, cols, seed):
        self.rows, self.cols = rows, cols
        self.matrix = (np.random.default_rng(seed).standard_normal((rows, cols))
                       / np.sqrt(rows))

    def project(self, v):
        return self.matrix @ v

    def backproject(self, z):
        return self.matrix.T @ z


def state_evolution_error(delta, rho, steps):
    """Noiseless state evolution of soft-threshold AMP at AMP_KAPPA: the
    relative squared error of the estimate after `steps` iterations.

    The prior is Bernoulli(eps = rho * delta)-Gaussian and tau^2 starts at
    E[X^2] / delta; each step sets tau^2 = E[(eta(X + tau Z; kappa tau) -
    X)^2] / delta, the expectations over standard normals taken by 80-point
    Gauss-Hermite quadrature.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    normal, weights = np.sqrt(2.0) * nodes, weights / np.sqrt(np.pi)
    signal, noise = normal[:, None], normal[None, :]
    eps = rho * delta
    tau2 = eps / delta
    for _ in range(steps):
        tau = np.sqrt(tau2)
        thresh = AMP_KAPPA * tau
        at_zero = weights @ soft_threshold(tau * normal, thresh) ** 2
        at_signal = weights @ (soft_threshold(signal + tau * noise, thresh)
                               - signal) ** 2 @ weights
        mse = (1 - eps) * at_zero + eps * at_signal
        tau2 = mse / delta
    return mse / eps


def soft_threshold(u, thresh):
    return np.sign(u) * np.maximum(np.abs(u) - thresh, 0.0)


def dense(proj):
    """The rows x cols matrix of `proj`, one product per column."""
    return np.array([proj.project(e) for e in np.eye(proj.cols)]).T


class TestProjectionMatrix:
    """A = c P [F D_1; ...; F D_B]: signs, an orthonormal real FFT of the
    5-smooth length N, and a pick of rows out of B blocks."""

    # (rows, cols, N, B): B = 1 and B > 1, even and odd W, and W = 1.
    SHAPES = [(1, 4, 4, 1), (20, 56, 60, 1), (200, 1362, 1440, 1),
              (5000, 1362, 1440, 4), (7, 5, 6, 2), (50, 77, 80, 1),
              (3, 1, 2, 2)]

    @pytest.mark.parametrize("rows,cols,n,blocks", SHAPES)
    def test_adjoint(self, rows, cols, n, blocks):
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=rows + cols)
        assert _fft_length(cols) == n
        assert proj.signs.shape == (blocks, cols)
        gen = np.random.default_rng(cols)
        for _ in range(3):
            x, z = gen.standard_normal(cols), gen.standard_normal(rows)
            ax_z, x_atz = proj.project(x) @ z, x @ proj.backproject(z)
            assert abs(ax_z - x_atz) <= 1e-12 * abs(x_atz)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 400), cols=st.integers(1, 400),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_backproject_is_the_transpose(self, rows, cols, seed):
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=seed)
        a = dense(proj)
        assert a.shape == (rows, cols)
        columns = np.array([proj.backproject(e) for e in np.eye(rows)]).T
        np.testing.assert_allclose(columns, a.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cols", [1, 56, 60, 77])
    def test_every_coordinate_picked_is_an_isometry(self, cols):
        # rows = N keeps all N coordinates of one block: c = 1 and A is
        # F D on the zero-padded x, whose columns are orthonormal.
        rows = _fft_length(cols)
        a = dense(ProjectionMatrix(rows=rows, cols=cols, seed=cols))
        np.testing.assert_allclose(a.T @ a, np.eye(cols), rtol=0,
                                   atol=1e-12)

    def test_column_norms_near_one_at_5000_rows(self):
        norms = np.linalg.norm(dense(ProjectionMatrix(5000, 1362, 9)),
                               axis=0)
        assert 0.98 <= norms.min() and norms.max() <= 1.02

    def test_plan_is_small(self):
        # Two dense 5000 x 1362 float32 matrices took 27 MB each.
        proj = ProjectionMatrix(5000, 1362, 0)
        arrays = [value for value in vars(proj).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 12  # 4 drawn, 4 buffers and 4 views of them
        owners = {id(owner): owner.nbytes for owner in (
            array if array.base is None else array.base for array in arrays)}
        assert sum(owners.values()) < 400_000

    @pytest.mark.parametrize("rows,cols,field", [
        (4, 0, "cols"), (4, -3, "cols"), (0, 4, "rows"), (-1, 4, "rows")])
    def test_rows_and_cols_must_be_positive(self, rows, cols, field):
        with pytest.raises(ValueError, match=f"need {field} >= 1"):
            ProjectionMatrix(rows=rows, cols=cols, seed=0)

    def test_products_return_new_float64_vectors(self):
        proj = ProjectionMatrix(rows=30, cols=40, seed=1)
        x, z = np.ones(40), np.ones(30)
        first, back = proj.project(x), proj.backproject(z)
        assert first.dtype == back.dtype == np.float64
        proj.project(-x)
        proj.backproject(-z)
        assert first.tobytes() == proj.project(x).tobytes()
        assert back.tobytes() == proj.backproject(z).tobytes()


class TestFlAnalogUplink:
    def test_noiseless_single_device_roundtrip(self):
        gen = np.random.default_rng(10)
        dim, uses, q = 120, 200, 40
        update = gen.standard_normal(dim)
        proj = ProjectionMatrix(rows=2 * uses, cols=dim, seed=11)
        estimate, accs = fl_analog_uplink(
            [update], [ErrorAccumulator.zeros(dim)], q, proj, unit_state(1),
            power=1e9, channel_uses=uses, noise_rng=None)
        truth = top_k_sparsify(update, q)
        nmse = np.sum((estimate - truth) ** 2) / np.sum(truth ** 2)
        assert nmse <= 1e-3
        np.testing.assert_allclose(accs[0].residual, update - truth)

    def test_zero_updates_zero_estimate(self):
        dim, uses = 40, 30
        proj = ProjectionMatrix(rows=60, cols=dim, seed=12)
        estimate, _ = fl_analog_uplink(
            [np.zeros(dim)] * 2, [ErrorAccumulator.zeros(dim)] * 2, 10, proj,
            unit_state(2), power=1.0, channel_uses=uses, noise_rng=None)
        np.testing.assert_array_equal(estimate, np.zeros(dim))

    def test_identical_devices_superpose(self):
        gen = np.random.default_rng(13)
        dim, uses, q, k = 80, 120, 20, 3
        update = gen.standard_normal(dim)
        proj = ProjectionMatrix(rows=2 * uses, cols=dim, seed=14)
        estimate, _ = fl_analog_uplink(
            [update.copy() for _ in range(k)],
            [ErrorAccumulator.zeros(dim) for _ in range(k)], q, proj,
            unit_state(k), power=1e9, channel_uses=uses, noise_rng=None)
        truth = k * top_k_sparsify(update, q)
        assert np.sum((estimate - truth) ** 2) / np.sum(truth ** 2) <= 1e-3


    @pytest.mark.parametrize("downlink", [False, True])
    def test_a_projection_that_overflows_is_one_error(self, downlink):
        # Under random signs the sums of 1362 entries of 1e306 stay finite;
        # at 1e307 the FFT overflows, and numpy warns of it unless told not
        # to, so a check of the sent norm alone would come too late.
        dim, uses = 1362, 100
        proj = ProjectionMatrix(rows=2 * uses, cols=dim, seed=3)
        assert np.all(np.isfinite(proj.project(np.full(dim, 1e306))))
        update = np.full(dim, 1e307)
        with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
            proj.project(update)
        with pytest.raises(DivergenceError, match="^weight update overflows "
                           "the analog link's projection$"):
            if downlink:
                fl_analog_downlink(update, ErrorAccumulator.zeros(dim), dim,
                                   proj, unit_state(2), 1.0, uses, None)
            else:
                fl_analog_uplink([update], [ErrorAccumulator.zeros(dim)],
                                 dim, proj, unit_state(1), 1.0, uses, None)


class TestFrameBlock:
    """A round at the benchmark's K = 10, T = 2500 allocates one (K, T)
    complex block, the frames on an uplink and the receptions on a
    downlink, and what it returns; its other temporaries are (T,) rows and
    (W,) vectors. A copy of the frames, a (K, T) product or a power check
    through `np.abs(frames) ** 2` would each add most of a block."""

    K, T, W, L = 10, 2500, 1362, 2
    BLOCK_BYTES = 16 * K * T

    @pytest.mark.parametrize("link", ["fl_up", "fl_down", "fd_up"])
    def test_a_round_allocates_one_block(self, link, monkeypatch,
                                         traced_peak):
        # The decode is left out: from the payloads in to the receptions.
        monkeypatch.setattr(analog_link, "cs_decode",
                            lambda projection, y: np.zeros(projection.cols))
        gen = np.random.default_rng(27)
        state = sample_channel(np.random.default_rng(28), self.K)
        proj = ProjectionMatrix(2 * self.T, self.W, seed=29)
        updates = gen.standard_normal((self.K, self.W))
        accs = [ErrorAccumulator.zeros(self.W) for _ in range(self.K)]
        rounds = {
            "fl_up": (fl_analog_uplink, updates, accs, self.W, proj),
            "fl_down": (fl_analog_downlink, updates[0], accs[0], self.W,
                        proj),
            "fd_up": (fd_analog_uplink,
                      gen.standard_normal((self.K, self.L, self.L))),
        }
        fn, *args = rounds[link]
        args += [state, 1.0, self.T, np.random.default_rng(30)]
        fn(*args)   # numpy's FFT caches its plan for a length on first use
        assert traced_peak(fn, *args) <= 1.75 * self.BLOCK_BYTES


class TestFdAnalog:
    def test_noiseless_bias_matches_closed_form(self):
        gen = np.random.default_rng(15)
        labels, uses = 4, 100
        table = gen.standard_normal((labels, labels))
        state = unit_state(1)
        estimate = fd_analog_uplink(table[None], state, power=2.0,
                                    channel_uses=uses, noise_rng=None)
        # Noiseless single device: output = (nu * gamma) * table exactly.
        gamma = reference_scale(repeated(table, uses)[1], 2.0, uses)
        shrink = gamma ** 2 / (0.5 + gamma ** 2)
        np.testing.assert_allclose(estimate, shrink * table, rtol=1e-9)
        bias = 1.0 - shrink
        assert bias <= 1.0 / (2.0 * gamma ** 2)

    def test_zero_tables_zero_estimate(self):
        state = unit_state(2)
        estimate = fd_analog_uplink(np.zeros((2, 3, 3)), state, 1.0, 50,
                                    None)
        np.testing.assert_array_equal(estimate, np.zeros((3, 3)))

    def test_redundancy_halves_residual_variance(self):
        gen = np.random.default_rng(16)
        labels = 3
        table = gen.standard_normal((labels, labels))
        power = 1e4  # high power so the MMSE shrinkage is negligible
        variances = {}
        for rho_target, uses in ((1, 5), (2, 9), (4, 18)):
            assert (2 * uses) // (labels ** 2) == rho_target
            errs = []
            for trial in range(400):
                state = unit_state(1)
                est = fd_analog_uplink(table[None], state, power, uses,
                                       np.random.default_rng(1000 + trial))
                errs.append((est - table).ravel())
            variances[rho_target] = np.var(np.concatenate(errs))
        assert abs(variances[2] / variances[1] - 0.5) < 0.15
        assert abs(variances[4] / variances[2] - 0.5) < 0.15


class TestAnalogDownlink:
    def test_fl_downlink_noiseless_roundtrip(self):
        gen = np.random.default_rng(17)
        dim, uses, q = 100, 160, 30
        update = gen.standard_normal(dim)
        proj = ProjectionMatrix(rows=2 * uses, cols=dim, seed=18)
        state = ChannelState(np.ones(2, complex),
                             np.array([0.8 + 0.6j, 2.0 - 1.0j]))
        estimates, acc = fl_analog_downlink(
            update, ErrorAccumulator.zeros(dim), q, proj, state,
            power=1e9, channel_uses=uses, noise_rng=None)
        truth = top_k_sparsify(update, q)
        for est in estimates:
            assert np.sum((est - truth) ** 2) / np.sum(truth ** 2) <= 1e-3
        np.testing.assert_allclose(acc.residual, update - truth)

    def test_fd_downlink_noiseless_shrunk_copy(self):
        gen = np.random.default_rng(19)
        labels, uses = 3, 40
        table = gen.standard_normal((labels, labels))
        state = ChannelState(np.ones(2, complex),
                             np.array([1.0 + 0j, 0.5 + 0.5j]))
        estimates = fd_analog_downlink(table, state, power=1e6,
                                       channel_uses=uses, noise_rng=None)
        gamma = reference_scale(repeated(table, uses)[1], 1e6, uses)
        for gain, est in zip(state.downlink_gains, estimates):
            amp = gamma * abs(gain)
            shrink = amp ** 2 / (0.5 + amp ** 2)
            np.testing.assert_allclose(est, shrink * table, rtol=1e-6)


class TestDownlinkIsPerDevice:
    """Device k scales its own reception y by the scalar expression
    mmse_factor_downlink(gamma, abs(g)) * (y * conj(g) / abs(g)), with
    Python's abs of its own gain g: np.abs over the gain array differs from
    it in the last bit for some gains, and so would the copies."""

    @staticmethod
    def gains(k):
        """k gains whose np.abs and abs differ."""
        draws = np.random.default_rng(22).standard_normal((400, 2)) @ [1, 1j]
        differ = draws[np.abs(draws) != np.array([abs(g) for g in draws])]
        assert differ.size >= k
        return differ[:k]

    @staticmethod
    def scalar_copies(payload, state, power, uses, noise_seed):
        """The (K, 2 * uses) block of the per-device scalar expressions."""
        x = payload.view(np.complex128)
        frames, (gamma,) = precompensated(x[None], [1.0 + 0j], power, uses)
        receptions = downlink_bc(frames[0], state,
                                 np.random.default_rng(noise_seed))
        return np.array([
            (mmse_factor_downlink(gamma, abs(g))
             * (y * (np.conj(g) / abs(g)))).view(np.float64)
            for g, y in zip(state.downlink_gains, receptions)])

    def test_downlink_rows_bit_for_bit(self):
        gains = self.gains(4)
        state = ChannelState(gains, gains)
        payload = np.random.default_rng(23).standard_normal(30)
        want = self.scalar_copies(payload, state, 3.0, 20, 24)
        frames = frame_block(payload.view(np.complex128)[None], 20)
        got = _downlink(frames, state, 3.0, np.random.default_rng(24))
        assert got.shape == (4, 40)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_fd_downlink_tables_bit_for_bit(self):
        gains = self.gains(3)
        state = ChannelState(gains, gains)
        table = np.random.default_rng(25).standard_normal((3, 3))
        rho, payload = repeated(table, 25)
        copies = self.scalar_copies(payload, state, 2.0, 25, 26)
        want = [np.mean(c[:rho * 9].reshape(rho, 9), axis=0).reshape(3, 3)
                for c in copies]
        got = fd_analog_downlink(table, state, 2.0, 25,
                                 np.random.default_rng(26))
        assert got.shape == (3, 3, 3)
        assert got.tobytes() == np.array(want).tobytes()
