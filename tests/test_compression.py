import math

import numpy as np
from hypothesis import given, settings, strategies as st

from fedsim.analog_link import (
    ProjectionMatrix, fl_analog_downlink, fl_analog_uplink,
)
from fedsim.channel import ChannelState
from fedsim.compression import (
    ErrorAccumulator, log2_binomial, max_sparsity_within_budget,
    quantize_rows, sparse_binary_compress, top_k_indices, top_k_sparsify,
)
from fedsim.digital_link import BitBudget, fl_digital_decode, fl_digital_encode
from test_digital_link import BUDGETS


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

    def test_a_float64_significand_of_bits_is_exact(self):
        values = np.array([0.1, 0.5, 0.9, 0.3])
        np.testing.assert_allclose(quantize_rows(values, 53), values,
                                   rtol=0, atol=1e-15)

    def test_on_level_values_roundtrip_exactly(self):
        # Values that already sit on quantizer levels come back unchanged.
        lo, hi, bits = -1.0, 3.0, 3
        step = (hi - lo) / (2 ** bits - 1)
        values = lo + step * np.array([0, 2, 5, 7], dtype=np.float64)
        np.testing.assert_allclose(quantize_rows(values, bits), values,
                                   rtol=0, atol=1e-12)


def scaled_rows(data, gen, rows, dim, label):
    """A (rows, dim) block of uniform draws from (-1, 1) at a drawn
    magnitude from 1e-150 to 1e150, or all zero (None)."""
    exponent = data.draw(st.none() | st.floats(-150.0, 150.0), label=label)
    if exponent is None:
        return np.zeros((rows, dim))
    return gen.uniform(-1.0, 1.0, (rows, dim)) * 10.0 ** exponent


def analog_link_args(gen, devices, dim, uses):
    """(projection, state, power, T, noise) of a noisy analog link with
    drawn gains, for the FL links' arguments after q."""
    gains = gen.standard_normal((2, devices)) \
        + 1j * gen.standard_normal((2, devices))
    return (ProjectionMatrix(2 * uses, dim, int(gen.integers(2 ** 32))),
            ChannelState(*gains), 1.0, uses, gen)


class TestErrorAccumulator:
    """The error-feedback rule each weight sender applies to its
    accumulator: pending = update + residual, and the new residual is
    pending minus what was sent. A digital sender sends its payload as
    decoded, an analog one the top q of pending."""

    def test_perfect_transmission(self):
        # Four equal entries at an ample budget: the sign-mean keeps them
        # all. Top-q at q = W keeps every entry of an analog sender's.
        update = np.full(4, 2.0)
        acc = ErrorAccumulator(np.array([0.5, 0.5, 0.5, 0.5]))
        payload, new = fl_digital_encode(update, acc, BitBudget(math.inf), 16)
        np.testing.assert_array_equal(fl_digital_decode(payload, 4),
                                      np.full(4, 2.5))
        np.testing.assert_array_equal(new.residual, np.zeros(4))
        gen = np.random.default_rng(5)
        _, new = fl_analog_downlink(gen.standard_normal(4), acc, 4,
                                    *analog_link_args(gen, 2, 4, 3))
        np.testing.assert_array_equal(new.residual, np.zeros(4))

    def test_nothing_sent(self):
        update = np.array([1.0, -2.0, 3.0])
        acc = ErrorAccumulator(np.array([0.25, 0.5, -4.0]))
        payload, new = fl_digital_encode(update, acc, BitBudget(0.0), 16)
        assert payload.is_empty
        np.testing.assert_array_equal(new.residual, update + acc.residual)

    @settings(max_examples=120, deadline=None)
    @given(sender=st.sampled_from(["fl_digital_encode", "fl_analog_uplink",
                                   "fl_analog_downlink"]),
           dim=st.integers(1, 300), data=st.data())
    def test_definitional(self, sender, dim, data):
        # new residual == update + residual - sent, bit for bit.
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        devices = data.draw(st.integers(1, 4), label="devices") \
            if sender == "fl_analog_uplink" else 1
        updates = scaled_rows(data, gen, devices, dim, "update magnitude")
        residuals = scaled_rows(data, gen, devices, dim,
                                "residual magnitude")
        accs = [ErrorAccumulator(r) for r in residuals]
        if sender == "fl_digital_encode":
            budget = BitBudget(data.draw(BUDGETS, label="budget"))
            bits = data.draw(st.integers(1, 53), label="bits")
            payload, new = fl_digital_encode(updates[0], accs[0], budget,
                                             bits)
            new_accs, sent = [new], [fl_digital_decode(payload, dim)]
        else:
            q = data.draw(st.integers(1, dim), label="q")
            uses = data.draw(st.integers(1, 200), label="uses")
            link_args = analog_link_args(gen, devices, dim, uses)
            if sender == "fl_analog_uplink":
                _, new_accs = fl_analog_uplink(updates, accs, q, *link_args)
            else:
                _, new = fl_analog_downlink(updates[0], accs[0], q,
                                            *link_args)
                new_accs = [new]
            sent = [top_k_sparsify(u + r, q)
                    for u, r in zip(updates, residuals)]
        assert len(new_accs) == devices
        for new, update, residual, vector in zip(new_accs, updates,
                                                 residuals, sent):
            np.testing.assert_array_equal(new.residual,
                                          update + residual - vector)

    def test_telescoping(self):
        # After N rounds: sum(sent) + residual == sum(updates).
        gen = np.random.default_rng(4)
        dim = 64
        acc = ErrorAccumulator.zeros(dim)
        total_updates = np.zeros(dim)
        total_sent = np.zeros(dim)
        for _ in range(100):
            update = gen.standard_normal(dim)
            payload, acc = fl_digital_encode(update, acc, BitBudget(40.0), 16)
            total_updates += update
            total_sent += fl_digital_decode(payload, dim)
        np.testing.assert_allclose(total_sent + acc.residual, total_updates,
                                   rtol=1e-6, atol=1e-9)


class TestLog2Binomial:
    def test_k_zero(self):
        assert log2_binomial(17, 0) == 0.0
        assert log2_binomial(17, 17) == 0.0
        assert log2_binomial(0, 0) == 0.0

    def test_small_exact(self):
        assert abs(log2_binomial(4, 2) - math.log2(6)) < 1e-12

    def test_against_big_integer_oracle(self):
        exact = math.log2(math.comb(1000, 10))
        assert abs(log2_binomial(1000, 10) - exact) / exact < 1e-9

    def test_large_n_no_overflow(self):
        val = log2_binomial(10_000_000, 1000)
        assert math.isfinite(val) and val > 0


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

    @settings(max_examples=300, deadline=None)
    @given(fd=st.booleans(), bits=st.integers(1, 53), data=st.data())
    def test_matches_a_scan_and_the_fits_form_a_prefix(self, fd, bits, data):
        # FL's cost over W weights, q <= W // 2, and FD's over an L x L
        # table, q <= L, which falls again near q = L.
        if fd:
            size = data.draw(st.integers(2, 300), label="L")
            q_max = size

            def cost(q):
                return size * (bits * q + log2_binomial(size, q))
        else:
            size = data.draw(st.integers(2, 3000), label="W")
            q_max = size // 2

            def cost(q):
                return bits + log2_binomial(size, q)
        edge = cost(data.draw(st.integers(1, q_max), label="q"))
        budget = data.draw(st.sampled_from(
            [0.0, edge, edge * (1 - 1e-15), math.inf]), label="budget")
        fits = [cost(q) <= budget for q in range(1, q_max + 1)]
        best = max((q for q, fit in enumerate(fits, 1) if fit), default=0)
        assert max_sparsity_within_budget(budget, cost, q_max) == best
        if not fits[-1]:
            assert fits == [True] * best + [False] * (q_max - best)
