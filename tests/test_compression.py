import math

import numpy as np
import pytest

from fedsim.compression import (
    ErrorAccumulator, accumulate_error, log2_binomial,
    max_sparsity_within_budget, quantize_rows, sparse_binary_compress,
    top_k_indices, top_k_sparsify,
)


class TestSparseBinaryCompress:
    def test_negative_side_wins(self):
        # kept {3, -4}: mu+ = 3, |mu-| = 4
        out = sparse_binary_compress(np.array([3.0, -1.0, 2.0, -4.0]), 1)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, -4.0])

    def test_positive_side_wins(self):
        # kept {5, -1}: mu+ = 5 > 1
        out = sparse_binary_compress(np.array([5.0, 4.0, -1.0]), 1)
        np.testing.assert_array_equal(out, [5.0, 0.0, 0.0])

    def test_constant_positive_input(self):
        out = sparse_binary_compress(np.full(4, 2.5), 1)
        assert np.count_nonzero(out) >= 1
        assert set(np.unique(out)) <= {0.0, 2.5}

    def test_single_sign_kept_set(self):
        # All kept entries positive: empty negative side loses automatically.
        out = sparse_binary_compress(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert np.count_nonzero(out) == 4
        np.testing.assert_allclose(out[out != 0], np.mean([1, 2, 3, 4]))

    def test_output_structure(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            n = int(gen.integers(4, 40))
            q = int(gen.integers(1, n // 2 + 1))
            u = gen.standard_normal(n)
            out = sparse_binary_compress(u, q)
            nz = out[out != 0]
            assert nz.size <= 2 * q
            if nz.size:
                assert np.unique(nz).size == 1  # one shared value
                assert np.all(nz > 0) or np.all(nz < 0)

    def test_q_too_large(self):
        with pytest.raises(ValueError):
            sparse_binary_compress(np.ones(3), 2)


class TestTopKSparsify:
    def test_hand_case(self):
        out = top_k_sparsify(np.array([3.0, -1.0, 2.0, -4.0]), 2)
        np.testing.assert_array_equal(out, [3.0, 0.0, 0.0, -4.0])

    def test_full_q_is_identity(self):
        u = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(top_k_sparsify(u, 3), u)

    def test_keeping_every_entry_is_the_scatter_byte_for_byte(self):
        u = np.array([2.0, -0.0, 0.0, -2.0, 1.5, 0.0, -1.5, 2.0, -0.0])
        scattered = np.zeros_like(u)
        idx = top_k_indices(u, u.size)
        scattered[idx] = u[idx]
        out = top_k_sparsify(u, u.size)
        assert out.tobytes() == scattered.tobytes()
        assert not np.shares_memory(out, u)

    def test_q_zero(self):
        np.testing.assert_array_equal(top_k_sparsify(np.ones(4), 0), np.zeros(4))

    def test_kept_values_exact(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            u = gen.standard_normal(30)
            q = int(gen.integers(0, 31))
            out = top_k_sparsify(u, q)
            support = np.flatnonzero(out)
            np.testing.assert_array_equal(out[support], u[support])
            assert support.size <= q


class TestTopKIndices:
    def test_ties_go_to_the_lower_position(self):
        np.testing.assert_array_equal(
            top_k_indices(np.array([1.0, -2.0, 2.0, -1.0]), 3), [1, 2, 0])

    def test_rows_pick_independently(self):
        gen = np.random.default_rng(8)
        rows = np.round(gen.standard_normal((6, 7)))  # many tied magnitudes
        picked = top_k_indices(rows, 4)
        assert picked.shape == (6, 4)
        for row, expected in zip(rows, picked):
            np.testing.assert_array_equal(top_k_indices(row, 4), expected)


class TestQuantizeRows:
    def test_two_level_endpoints(self):
        np.testing.assert_array_equal(quantize_rows(np.array([1.0, 2.0]), 1),
                                      [1.0, 2.0])

    def test_flat_row_exact(self):
        for bits in (1, 4, 16, 53):
            for value in (5.0, -0.0, 1e-300):
                out = quantize_rows(np.full(3, value), bits)
                assert out.tobytes() == np.full(3, value).tobytes()

    def test_half_step_bound(self):
        gen = np.random.default_rng(2)
        for bits in (1, 2, 4, 8):
            values = gen.standard_normal((5, 200)) * 3.0
            recon = quantize_rows(values, bits)
            bound = np.ptp(values, axis=1) / (2 * (2 ** bits - 1))
            assert np.all(np.abs(recon - values).max(axis=1)
                          <= bound + 1e-12)

    def test_rows_quantize_independently(self):
        gen = np.random.default_rng(9)
        values = gen.standard_normal((4, 6))
        values[2] = 0.25  # one flat row among the others
        recon = quantize_rows(values, 3)
        for row, expected in zip(values, recon):
            assert quantize_rows(row, 3).tobytes() == expected.tobytes()

    def test_bits_beyond_a_float64_significand_rejected(self):
        values = np.array([0.1, 0.5, 0.9, 0.3])
        np.testing.assert_allclose(quantize_rows(values, 53), values,
                                   rtol=0, atol=1e-15)
        for bits in (0, 54, 63, 64):
            with pytest.raises(ValueError, match="bits"):
                quantize_rows(values, bits)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nothing to quantize"):
            quantize_rows(np.zeros((3, 0)), 4)

    def test_on_level_values_roundtrip_exactly(self):
        # Values that already sit on quantizer levels come back unchanged.
        lo, hi, bits = -1.0, 3.0, 3
        step = (hi - lo) / (2 ** bits - 1)
        values = lo + step * np.array([0, 2, 5, 7], dtype=np.float64)
        np.testing.assert_allclose(quantize_rows(values, bits), values,
                                   rtol=0, atol=1e-12)


class TestErrorAccumulator:
    def test_perfect_transmission(self):
        acc = ErrorAccumulator.zeros(3)
        u = np.array([1.0, -2.0, 3.0])
        acc = accumulate_error(acc, u, u)
        np.testing.assert_array_equal(acc.residual, np.zeros(3))

    def test_nothing_sent(self):
        acc = ErrorAccumulator.zeros(3)
        u = np.array([1.0, -2.0, 3.0])
        acc = accumulate_error(acc, u, np.zeros(3))
        np.testing.assert_array_equal(acc.residual, u)

    def test_definitional(self):
        gen = np.random.default_rng(3)
        a, u, s = gen.standard_normal((3, 5))
        acc = accumulate_error(ErrorAccumulator(a), u, s)
        np.testing.assert_allclose(acc.residual, a + u - s)

    def test_telescoping(self):
        # After N rounds: sum(sent) + residual == sum(updates).
        gen = np.random.default_rng(4)
        dim = 64
        acc = ErrorAccumulator.zeros(dim)
        total_updates = np.zeros(dim)
        total_sent = np.zeros(dim)
        for _ in range(100):
            update = gen.standard_normal(dim)
            sent = top_k_sparsify(update + acc.residual, 5)
            acc = accumulate_error(acc, update, sent)
            total_updates += update
            total_sent += sent
        np.testing.assert_allclose(total_sent + acc.residual, total_updates,
                                   rtol=1e-6, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            accumulate_error(ErrorAccumulator.zeros(3), np.zeros(4), np.zeros(3))


class TestLog2Binomial:
    def test_k_zero(self):
        assert log2_binomial(17, 0) == 0.0
        assert log2_binomial(0, 0) == 0.0

    def test_small_exact(self):
        assert abs(log2_binomial(4, 2) - math.log2(6)) < 1e-12

    def test_against_big_integer_oracle(self):
        exact = math.log2(math.comb(1000, 10))
        assert abs(log2_binomial(1000, 10) - exact) / exact < 1e-9

    def test_large_n_no_overflow(self):
        val = log2_binomial(10_000_000, 1000)
        assert math.isfinite(val) and val > 0

    def test_k_greater_than_n(self):
        with pytest.raises(ValueError):
            log2_binomial(3, 4)


class TestMaxSparsityWithinBudget:
    def test_infeasible(self):
        assert max_sparsity_within_budget(10.0, lambda q: 16.0 + q, 100) == 0

    def test_against_linear_scan(self):
        def cost(q):
            return 16.0 + log2_binomial(1000, q)

        for budget in (20.0, 50.0, 100.0, 400.0):
            best = 0
            for q in range(1, 501):
                if cost(q) <= budget:
                    best = q
            assert max_sparsity_within_budget(budget, cost, 500) == best

    def test_unbounded_budget(self):
        assert max_sparsity_within_budget(math.inf,
                                          lambda q: 16.0 + q, 123) == 123
