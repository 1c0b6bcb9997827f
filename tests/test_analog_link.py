import ast
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fedsim
from fedsim import analog_link
from fedsim.analog_link import (
    AMP_KAPPA, AMP_MAX_ITER, AMP_TOL, ProjectionMatrix, cs_decode,
    draw_projection, fd_analog_downlink, fd_analog_uplink,
    fl_analog_downlink, fl_analog_uplink, full_power_gain,
    mmse_factor_downlink, mmse_factor_uplink, pack_complex, precompensate,
    repetition_decode, repetition_encode, unpack_complex,
)
from fedsim.channel import ChannelState
from fedsim.compression import ErrorAccumulator, top_k_sparsify
from fedsim.errors import ConfigurationError
from split_products import decode_is_the_loop, split_is_the_single_call


def unit_state(k):
    return ChannelState(np.ones(k, complex), np.ones(k, complex))


class TestPackComplex:
    def test_basic(self):
        np.testing.assert_array_equal(pack_complex([1.0, 2.0, 3.0, 4.0]),
                                      [1 + 2j, 3 + 4j])

    def test_zeros(self):
        np.testing.assert_array_equal(pack_complex([0.0, 0.0]), [0j])

    def test_roundtrip(self):
        gen = np.random.default_rng(0)
        v = gen.standard_normal(64)
        np.testing.assert_array_equal(unpack_complex(pack_complex(v)), v)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            pack_complex([1.0, 2.0, 3.0])


class TestPrecompensate:
    def test_full_power_scale(self):
        x = np.array([2.0 + 0j])
        frame = precompensate(x, 1.0 + 0j, power=1.0, channel_uses=1)
        assert abs(np.sum(np.abs(frame.samples) ** 2) - 1.0) < 1e-12

    def test_real_positive_gain_no_rotation(self):
        x = np.array([1 + 1j, 2 - 1j])
        frame = precompensate(x, 3.0 + 0j, power=1.0, channel_uses=2)
        ratio = frame.samples / x
        np.testing.assert_allclose(ratio.imag, 0.0, atol=1e-12)
        assert np.all(ratio.real > 0)

    def test_phase_cancellation(self):
        gen = np.random.default_rng(1)
        for _ in range(10):
            x = gen.standard_normal(6) + 1j * gen.standard_normal(6)
            h = gen.standard_normal() + 1j * gen.standard_normal()
            frame = precompensate(x, h, power=2.0, channel_uses=6)
            arrived = h * frame.samples
            ratio = arrived / x
            np.testing.assert_allclose(ratio.imag, 0.0, atol=1e-9)
            np.testing.assert_allclose(ratio.real, abs(h) * full_power_gain(
                x, 2.0, 6), rtol=1e-9)

    def test_zero_payload_is_zero_frame(self):
        frame = precompensate(np.zeros(3, complex), 1j, 1.0, 4)
        np.testing.assert_array_equal(frame.samples, np.zeros(4, complex))

    def test_frame_power_exact(self):
        gen = np.random.default_rng(2)
        x = gen.standard_normal(10) + 1j * gen.standard_normal(10)
        frame = precompensate(x, 0.5 - 0.7j, power=3.0, channel_uses=16)
        energy = np.sum(np.abs(frame.samples) ** 2)
        assert abs(energy - 3.0 * 16) / (3.0 * 16) < 1e-9


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
        tables = [np.array([[1.0, -2.0], [0.5, 3.0]]), np.full((2, 2), -0.5)]
        gains = np.array([2j, 0.3 - 0.4j])
        gammas = [full_power_gain(pack_complex(t.ravel()), 2.0, 2)
                  for t in tables]
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
        np.testing.assert_array_equal(repetition_encode([1.0, 2.0], 2),
                                      [1, 2, 1, 2])

    def test_rho_one_identity(self):
        s = np.array([3.0, -1.0])
        np.testing.assert_array_equal(repetition_encode(s, 1), s)
        np.testing.assert_array_equal(repetition_decode(s, 1), s)

    def test_decode_mean(self):
        np.testing.assert_array_equal(repetition_decode([1.0, 3.0], 2), [2.0])

    def test_roundtrip(self):
        gen = np.random.default_rng(4)
        s = gen.standard_normal(9)
        np.testing.assert_allclose(
            repetition_decode(repetition_encode(s, 5), 5), s)

    def test_noise_variance_reduction(self):
        gen = np.random.default_rng(5)
        sigma2 = 0.8
        block = 16
        for rho in (1, 2, 4):
            trials = 10_000 // block + 1
            residuals = []
            for _ in range(trials):
                noise = gen.standard_normal(rho * block) * np.sqrt(sigma2)
                residuals.append(repetition_decode(noise, rho))
            var = np.var(np.concatenate(residuals))
            assert abs(var - sigma2 / rho) / (sigma2 / rho) < 0.10

    def test_zero_redundancy_rejected(self):
        with pytest.raises(ConfigurationError):
            repetition_encode(np.ones(4), 0)


class TestCsDecode:
    @staticmethod
    def sparse_instance(dim, rows, sparsity, seed):
        gen = np.random.default_rng(seed)
        proj = ProjectionMatrix(rows=rows, cols=dim, seed=seed + 1000)
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

    def test_projection_regeneration_bit_exact(self):
        a = ProjectionMatrix(rows=64, cols=128, seed=42)
        b = ProjectionMatrix(rows=64, cols=128, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_matrix_is_drawn_once_and_kept(self):
        proj = ProjectionMatrix(rows=20, cols=30, seed=5)
        assert proj.matrix is proj.matrix
        assert np.array_equal(proj.matrix, draw_projection(20, 30, 5))


def float64_draw(rows, cols, seed):
    """The projection as drawn before rounding to float32."""
    return (np.random.default_rng(seed).standard_normal((rows, cols))
            / math.sqrt(rows))


def float64_amp(a, y):
    """cs_decode's loop with every product in float64, as a reference."""
    m, n = a.shape
    x = np.zeros(n)
    z = y.copy()
    best_x = x
    best_res = prev_res = float(np.linalg.norm(z))
    for _ in range(AMP_MAX_ITER):
        sigma = float(np.median(np.abs(z))) / 0.6745
        r = x + a.T @ z
        x = np.sign(r) * np.maximum(np.abs(r) - AMP_KAPPA * sigma, 0.0)
        z = y - a @ x + (np.count_nonzero(x) / m) * z
        res = float(np.linalg.norm(z))
        if res < best_res:
            best_res, best_x = res, x
        if res > 10.0 * best_res \
                or abs(res - prev_res) <= AMP_TOL * max(prev_res, 1e-300):
            break
        prev_res = res
    return best_x


def in_one_blas_thread(check, *args):
    """`check(*args)`, a function of split_products.py, run in a fresh
    interpreter whose OpenBLAS runs one thread per call, as perfbench's
    workers do; returns its result, which must be a literal."""
    path = [str(Path(fedsim.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent),
            os.environ.get("PYTHONPATH")]
    code = (f"from {check.__module__} import {check.__name__}; "
            f"print(repr({check.__name__}(*{args!r})))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


class TestProjectionPrecision:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 80), cols=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(rows=50, cols=1362, seed=0)  # blocks of 24 rows, the last short
    def test_matrix_is_the_rounded_float64_draw(self, rows, cols, seed):
        matrix = ProjectionMatrix(rows=rows, cols=cols, seed=seed).matrix
        assert matrix.dtype == np.float32 and matrix.shape == (rows, cols)
        rounded = float64_draw(rows, cols, seed).astype(np.float32)
        assert matrix.tobytes() == rounded.tobytes()

    def test_products_are_float64_near_the_float64_product(self):
        gen = np.random.default_rng(3)
        proj = ProjectionMatrix(rows=300, cols=120, seed=4)
        a = float64_draw(300, 120, 4)
        v, z = gen.standard_normal(120), gen.standard_normal(300)
        for got, want in ((proj.project(v), a @ v),
                          (proj.backproject(z), a.T @ z)):
            assert got.dtype == np.float64
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("rows,cols", [(200, 1362), (600, 200),
                                           (61, 150), (1, 4), (2048, 1024)])
    def test_decode_is_the_median_and_norm_loop_bit_for_bit(self, rows, cols):
        # 2048 x 1024 is 8 MiB, the smallest split size: one seed, one draw.
        split = 4 * rows * cols >= analog_link._PARALLEL_BYTES
        for seed in range(1 if split else 3):
            proj = ProjectionMatrix(rows=rows, cols=cols, seed=seed + 50)
            decode_is_the_loop(proj, seed)

    def test_split_products_are_the_single_call_bit_for_bit(self):
        # The amp_T2500 shape under one BLAS thread, as perfbench runs it:
        # both products, dense and sparse vectors, and one decode.
        cuts = in_one_blas_thread(split_is_the_single_call, 5000, 1362)
        if not all(cuts) or analog_link._usable_cpus() < 2:
            pytest.skip(f"cuts {cuts}: this host keeps some single calls")

    def test_decode_matches_float64_amp_when_overdetermined(self):
        # 2T = 600 measurements of 200 dense entries, with noise: the regime
        # of the T=2500 benchmark, where the decode is well posed.
        for seed in range(4):
            gen = np.random.default_rng(seed)
            proj = ProjectionMatrix(rows=600, cols=200, seed=seed + 100)
            a = float64_draw(600, 200, seed + 100)
            y = a @ gen.standard_normal(200) + 0.1 * gen.standard_normal(600)
            want = float64_amp(a, y)
            got = cs_decode(proj, y)
            assert np.sum((got - want) ** 2) <= 1e-10 * np.sum(want ** 2)


@pytest.fixture
def started(monkeypatch):
    """The threads started during the test, in start order."""
    threads = []

    class Counted(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return threads


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


class TestProductThreads:
    """From the split threshold up, cs_decode computes one block of each
    product in one helper thread, joined before it returns."""

    # 2048 x 1024 float32 is 8 MiB, the smallest split size.
    split = dict(rows=2048, cols=1024, seed=3)

    @pytest.fixture
    def blocks(self, monkeypatch):
        # Take the cuts unprobed: these tests compare the split with itself,
        # not with the single call.
        monkeypatch.setattr(analog_link, "_exact_cut", lambda matrix, cut: cut)

    @staticmethod
    def instance(rows, cols, seed):
        gen = np.random.default_rng(seed)
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=seed)
        truth = gen.standard_normal(cols) * (gen.random(cols) < 0.2)
        return proj, proj.project(truth) + 0.05 * gen.standard_normal(rows)

    def test_one_helper_above_the_threshold(self, blocks, started,
                                            monkeypatch):
        proj, y = self.instance(**self.split)
        assert all(proj.cuts)
        use_cpus(monkeypatch, 2)
        before = threading.active_count()
        cs_decode(proj, y)
        assert len(started) == 1
        assert not started[0].is_alive()
        assert threading.active_count() == before

    def test_no_thread_below_the_threshold(self, blocks, started,
                                           monkeypatch):
        # 2000 x 290 (2.3 MB), the projection of TestProjectionDraw.
        proj, y = self.instance(rows=2000, cols=290, seed=4)
        assert proj.cuts == (0, 0)
        use_cpus(monkeypatch, 2)
        cs_decode(proj, y)
        assert started == []

    def test_one_cpu_gives_the_same_bits_without_a_thread(self, started,
                                                          monkeypatch):
        # The cuts as probed on this BLAS: with them the bits are one call's.
        proj, y = self.instance(**self.split)
        use_cpus(monkeypatch, 2)
        helped = cs_decode(proj, y)
        assert len(started) == (1 if any(proj.cuts) else 0)
        count = len(started)
        use_cpus(monkeypatch, 1)
        assert cs_decode(proj, y).tobytes() == helped.tobytes()
        assert len(started) == count

    def test_a_failure_in_the_helper_is_raised_in_the_caller(
            self, blocks, started, monkeypatch):
        proj, y = self.instance(**self.split)
        use_cpus(monkeypatch, 2)
        matmul = np.matmul
        helper_ran = threading.Event()

        def fails_in_helper(*args, **kwargs):
            if threading.current_thread() in started:
                helper_ran.set()
                raise RuntimeError("helper block failed")
            # Hold the caller's block until the helper has taken its own, so
            # the caller cannot take that block over.
            helper_ran.wait(timeout=10)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", fails_in_helper)
        with pytest.raises(RuntimeError, match="helper block failed"):
            cs_decode(proj, y)
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_the_caller_takes_a_block_the_helper_has_not_started(
            self, blocks):
        class Idle:
            """A pool whose worker never reaches the job."""

            def submit(self, fn, *args, **kwargs):
                return Pending()

        class Pending(Future):
            def result(self, timeout=None):
                return super().result(timeout=0)  # never waits

        proj, y = self.instance(**self.split)
        gen = np.random.default_rng(5)
        v, z = gen.standard_normal(proj.cols), gen.standard_normal(proj.rows)
        with ThreadPoolExecutor(1) as pool:
            helped = proj.project(v, pool), proj.backproject(z, pool)
        alone = proj.project(v, Idle()), proj.backproject(z, Idle())
        assert [a.tobytes() for a in alone] == [h.tobytes() for h in helped]

    def test_blocks_that_change_the_bits_keep_the_single_call(
            self, started, monkeypatch):
        # Every block product one ulp off its first entry, as a kernel that
        # sums a block's outputs in another order would be.
        matmul = np.matmul

        def one_ulp_off(*args, out=None):
            result = matmul(*args, out=out)
            if out is not None:
                out[0] = np.nextafter(out[0], np.float32(np.inf))
            return result

        monkeypatch.setattr(np, "matmul", one_ulp_off)
        proj, y = self.instance(**self.split)
        assert proj.cuts == (0, 0)
        use_cpus(monkeypatch, 2)
        cs_decode(proj, y)
        assert started == []


class TestConcurrentDecodes:
    """From the same threshold up, fl_analog_downlink decodes its K
    receptions in a pool of min(K, CPUs) threads, each decode one call to
    the module's cs_decode with single-call products, joined before it
    returns."""

    K = 3

    @classmethod
    def broadcast(cls, rows, cols):
        """(projection, fl_analog_downlink's arguments but the noise
        generator, the receptions that generator gives at seed 9)."""
        gen = np.random.default_rng(7)
        proj = ProjectionMatrix(rows=rows, cols=cols, seed=3)
        update = gen.standard_normal(cols)
        gains = gen.standard_normal((cls.K, 2)) @ [1, 1j]
        args = (update, ErrorAccumulator.zeros(cols), cols // 8, proj,
                ChannelState(gains, gains), 10.0, rows // 2)
        sent = proj.project(top_k_sparsify(update, cols // 8))
        receptions = analog_link._downlink(sent, *args[4:],
                                           np.random.default_rng(9))
        return proj, args, receptions

    @staticmethod
    def decode(args):
        return fl_analog_downlink(*args, np.random.default_rng(9))[0]

    def test_the_estimates_are_sequential_calls_in_receiver_order(
            self, started, monkeypatch):
        # 2048 x 1024 float32 is 8 MiB, the smallest concurrent size.
        proj, args, receptions = self.broadcast(2048, 1024)
        use_cpus(monkeypatch, 1)
        alone = [cs_decode(proj, y).tobytes() for y in receptions]
        assert len(set(alone)) == self.K
        assert [e.tobytes() for e in self.decode(args)] == alone
        assert started == []

        calls = []
        real = analog_link.cs_decode

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        # Take every cut unprobed: a decode that split its products would
        # start a helper of its own and show in `started`.
        monkeypatch.setattr(analog_link, "_exact_cut", lambda matrix, cut: cut)
        monkeypatch.setattr(analog_link, "cs_decode", counted)
        use_cpus(monkeypatch, 2)
        before = threading.active_count()
        assert [e.tobytes() for e in self.decode(args)] == alone
        assert calls == [{"_split": False}] * self.K
        assert len(started) == 2
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before

    def test_no_thread_below_the_threshold(self, started, monkeypatch):
        proj, args, _ = self.broadcast(2046, 1024)
        assert proj.nbytes < analog_link._PARALLEL_BYTES
        use_cpus(monkeypatch, 2)
        self.decode(args)
        assert started == []

    def test_a_failing_decode_is_raised_in_the_caller(self, started,
                                                      monkeypatch):
        _, args, receptions = self.broadcast(2048, 1024)
        real = analog_link.cs_decode

        def fails_on_receiver_1(projection, y, _split=True):
            if np.array_equal(y, receptions[1]):
                raise RuntimeError("decode failed")
            return real(projection, y, _split=_split)

        monkeypatch.setattr(analog_link, "cs_decode", fails_on_receiver_1)
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="decode failed"):
            self.decode(args)
        assert len(started) == 2
        assert not any(thread.is_alive() for thread in started)


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


class TestFdAnalog:
    def test_noiseless_bias_matches_closed_form(self):
        gen = np.random.default_rng(15)
        labels, uses = 4, 100
        table = gen.standard_normal((labels, labels))
        state = unit_state(1)
        estimate = fd_analog_uplink([table], state, power=2.0,
                                    channel_uses=uses, noise_rng=None)
        # Noiseless single device: output = (nu * gamma) * table exactly.
        rho = (2 * uses) // (labels * labels)
        x = pack_complex(repetition_encode(table.ravel(), rho)
                         if (rho * labels * labels) % 2 == 0 else None)
        gamma = full_power_gain(x, 2.0, uses)
        shrink = gamma ** 2 / (0.5 + gamma ** 2)
        np.testing.assert_allclose(estimate, shrink * table, rtol=1e-9)
        bias = 1.0 - shrink
        assert bias <= 1.0 / (2.0 * gamma ** 2)

    def test_zero_tables_zero_estimate(self):
        state = unit_state(2)
        estimate = fd_analog_uplink([np.zeros((3, 3))] * 2, state, 1.0, 50,
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
                est = fd_analog_uplink([table], state, power, uses,
                                       np.random.default_rng(1000 + trial))
                errs.append((est - table).ravel())
            variances[rho_target] = np.var(np.concatenate(errs))
        assert abs(variances[2] / variances[1] - 0.5) < 0.15
        assert abs(variances[4] / variances[2] - 0.5) < 0.15

    def test_too_small_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            fd_analog_uplink([np.zeros((5, 5))], unit_state(1), 1.0, 10, None)


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
        rho = (2 * uses) // (labels * labels)
        encoded = repetition_encode(table.ravel(), rho)
        if encoded.size % 2:
            encoded = np.append(encoded, 0.0)
        gamma = full_power_gain(pack_complex(encoded), 1e6, uses)
        for gain, est in zip(state.downlink_gains, estimates):
            amp = gamma * abs(gain)
            shrink = amp ** 2 / (0.5 + amp ** 2)
            np.testing.assert_allclose(est, shrink * table, rtol=1e-6)
