import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import audit, digital_link
from fedsim.compression import (
    ErrorAccumulator, SparsePayload, log2_binomial, sparse_binary_compress,
    top_k_sparsify,
)
from fedsim.digital_link import (
    BitBudget, downlink_budget, fd_digital_decode, fd_digital_encode,
    fl_digital_decode, fl_digital_encode, uplink_budget,
)
from fedsim.errors import DivergenceError


def budget_of(bits):
    return BitBudget(bits=bits)


# The logit-table codec as it was written one row at a time, kept as the
# reference the array codec must equal bit for bit.

def reference_quantize(values, bits):
    """quantize_uniform then dequantize_uniform over one row's kept values."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full(values.shape, lo, dtype=np.float64)
    levels = 2 ** bits - 1
    step = (hi - lo) / levels
    codes = np.clip(np.rint((values - lo) / step), 0, levels).astype(np.int64)
    return lo + codes.astype(np.float64) * ((hi - lo) / (2 ** bits - 1))


def reference_fd_encode(table, q, bits):
    """(indices, values) of the table's per-row top-q at q kept entries."""
    num_labels = table.shape[0]
    indices = np.zeros((num_labels, q), dtype=np.int64)
    values = np.zeros((num_labels, q), dtype=np.float64)
    for row in range(num_labels):
        keep = np.sort(np.argsort(-np.abs(table[row]), kind="stable")[:q])
        indices[row] = keep
        values[row] = reference_quantize(table[row, keep], bits)
    return indices, values


def reference_fd_decode(indices, values, num_labels):
    out = np.zeros((num_labels, num_labels), dtype=np.float64)
    for row in range(num_labels):
        out[row, indices[row]] = values[row]
    return out


def fd_cost(num_labels, bits, q):
    return num_labels * (bits * q + log2_binomial(num_labels, q))


class TestUplinkBudget:
    def test_zero_power(self):
        assert uplink_budget(100, 4, 1 + 0j, 0.0).bits == 0.0

    def test_zero_gain(self):
        assert uplink_budget(100, 4, 0j, 5.0).bits == 0.0

    def test_reference_value(self):
        # (2500/10) * log2(1 + 1*10*1) = 250 * log2(11)
        b = uplink_budget(2500, 10, 1 + 0j, 1.0)
        assert abs(b.bits - 864.8579046593243) < 1e-9

    def test_monotone_in_everything(self):
        base = uplink_budget(100, 4, 0.8 + 0.3j, 1.0).bits
        assert uplink_budget(200, 4, 0.8 + 0.3j, 1.0).bits >= base
        assert uplink_budget(100, 4, 1.6 + 0.6j, 1.0).bits >= base
        assert uplink_budget(100, 4, 0.8 + 0.3j, 2.0).bits >= base


class TestDownlinkBudget:
    def test_zero_gain_dominates(self):
        assert downlink_budget(100, np.array([0j, 1 + 0j]), 1.0).bits == 0.0

    def test_reference_value(self):
        gains = np.array([1.0 + 0j, math.sqrt(3) + 0j])
        b = downlink_budget(100, gains, 1.0)
        assert abs(b.bits - 100.0) < 1e-9

    def test_single_user(self):
        b = downlink_budget(50, np.array([1 + 0j]), 3.0)
        assert abs(b.bits - 50 * math.log2(4)) < 1e-12


class TestFlDigital:
    def test_infeasible_budget_carries_residual(self):
        update = np.array([1.0, -2.0, 3.0, -4.0])
        payload, acc = fl_digital_encode(update, ErrorAccumulator.zeros(4),
                                         budget_of(0.0), 16)
        assert payload.is_empty
        np.testing.assert_array_equal(acc.residual, update)
        np.testing.assert_array_equal(fl_digital_decode(payload, 4),
                                      np.zeros(4))

    def test_over_budget_payload_raises_and_counts(self, monkeypatch):
        # A q search that ignores the budget: the audit catches its bill.
        monkeypatch.setattr(digital_link, "max_sparsity_within_budget",
                            lambda budget, cost, q_max: q_max)
        audit.reset()
        with pytest.raises(ValueError, match="exceeds budget 10$"):
            fl_digital_encode(np.arange(1.0, 21.0),
                              ErrorAccumulator.zeros(20), budget_of(10.0), 16)
        assert (audit.budget_checks, audit.violations) == (1, 1)

    def test_q_choice_matches_scan(self):
        gen = np.random.default_rng(0)
        update = gen.standard_normal(1000)
        budget = budget_of(100.0)
        payload, _ = fl_digital_encode(update, ErrorAccumulator.zeros(1000),
                                       budget, 16)
        best = 0
        for q in range(1, 501):
            if 16 + log2_binomial(1000, q) <= 100.0:
                best = q
        assert abs(payload.bit_count - (16 + log2_binomial(1000, best))) < 1e-9

    def test_roundtrip_structure(self):
        gen = np.random.default_rng(1)
        for _ in range(10):
            update = gen.standard_normal(200)
            payload, _ = fl_digital_encode(update,
                                           ErrorAccumulator.zeros(200),
                                           budget_of(60.0), 16)
            decoded = fl_digital_decode(payload, 200)
            nz = decoded[decoded != 0]
            assert nz.size <= 2 * payload.indices.size
            if nz.size:
                assert np.unique(nz).size == 1

    def test_bit_count_never_exceeds_budget(self):
        gen = np.random.default_rng(2)
        for bits_budget in (17.0, 40.0, 113.5, 900.0):
            update = gen.standard_normal(300)
            payload, _ = fl_digital_encode(update,
                                           ErrorAccumulator.zeros(300),
                                           budget_of(bits_budget), 16)
            assert payload.bit_count <= bits_budget

    def test_high_precision_matches_sparsifier(self):
        # Unbounded budget and 53-bit values reproduce the raw compressor.
        gen = np.random.default_rng(3)
        update = gen.standard_normal(64)
        acc = ErrorAccumulator(gen.standard_normal(64))
        payload, _ = fl_digital_encode(update, acc, budget_of(math.inf), 53)
        expected = sparse_binary_compress(update + acc.residual, 32)
        decoded = fl_digital_decode(payload, 64)
        np.testing.assert_allclose(decoded, expected, rtol=1e-9, atol=1e-15)

    def test_error_feedback_uses_dequantized_value(self):
        update = np.array([4.0, -1.0, 0.5, -0.25])
        payload, acc = fl_digital_encode(update, ErrorAccumulator.zeros(4),
                                         budget_of(30.0), 16)
        sent = fl_digital_decode(payload, 4)
        np.testing.assert_allclose(acc.residual, update - sent)

    def test_sign_mean_overflow_is_a_divergence(self):
        # Each kept entry is finite, their sum is not.
        update = np.array([1e308, 1e308, -1.0, 0.0])
        with pytest.raises(DivergenceError, match="^weight update overflows "
                           "the digital link's sign-mean$"):
            fl_digital_encode(update, ErrorAccumulator.zeros(4),
                              budget_of(math.inf), 16)


class TestFdDigital:
    def test_q_choice_matches_scan(self):
        gen = np.random.default_rng(4)
        table = gen.standard_normal((10, 10))
        payload = fd_digital_encode(table, budget_of(1000.0), 16)
        best = 0
        for q in range(1, 11):
            if 10 * (16 * q + log2_binomial(10, q)) <= 1000.0:
                best = q
        assert best == 5  # frozen from the scan oracle
        assert payload.indices.shape == (10, best)
        assert abs(payload.bit_count
                   - 10 * (16 * best + log2_binomial(10, best))) < 1e-9

    def test_infeasible_budget(self):
        table = np.ones((4, 4))
        payload = fd_digital_encode(table, budget_of(10.0), 16)
        assert payload.is_empty
        np.testing.assert_array_equal(fd_digital_decode(payload, 4),
                                      np.zeros((4, 4)))

    def test_full_q_preserves_rows_up_to_quantization(self):
        gen = np.random.default_rng(5)
        table = gen.standard_normal((5, 5))
        payload = fd_digital_encode(table, budget_of(1e9), 16)
        decoded = fd_digital_decode(payload, 5)
        step = np.ptp(table, axis=1) / (2 ** 16 - 1)
        assert np.all(np.abs(decoded - table) <= step[:, None] / 2 + 1e-12)

    def test_kept_support_is_top_q(self):
        gen = np.random.default_rng(6)
        table = gen.standard_normal((6, 6))
        payload = fd_digital_encode(table, budget_of(250.0), 16)
        q = payload.indices.shape[1]
        decoded = fd_digital_decode(payload, 6)
        for row in range(6):
            expected = top_k_sparsify(table[row], q)
            support = np.flatnonzero(expected)
            assert set(payload.indices[row]) == set(support)
            half = (table[row].max() - table[row].min()) / (2 * (2 ** 16 - 1))
            assert np.max(np.abs(decoded[row, support]
                                 - expected[support])) <= half + 1e-12

    def test_bit_count_within_budget(self):
        gen = np.random.default_rng(7)
        for budget in (80.0, 260.0, 2000.0):
            table = gen.standard_normal((8, 8))
            payload = fd_digital_encode(table, budget_of(budget), 16)
            assert payload.bit_count <= budget

    @pytest.mark.parametrize("num_labels", [2, 3, 10])
    @pytest.mark.parametrize("bits", [1, 2, 16, 53])
    def test_matches_row_loop_bit_for_bit(self, monkeypatch, num_labels,
                                          bits):
        # Every q is forced through the real encoder: at 1 or 2 bits the
        # budget search never returns some q, since cost(L) is below them.
        gen = np.random.default_rng(100 * num_labels + bits)
        tables = [gen.standard_normal((num_labels, num_labels)),
                  np.round(gen.standard_normal((num_labels, num_labels)))
                  * 0.5]  # tied magnitudes, signed zeros and flat rows
        tables[0][0] = 0.75
        tables[1][-1] = -0.0
        for q in range(1, num_labels + 1):
            monkeypatch.setattr(digital_link, "max_sparsity_within_budget",
                                lambda budget, cost, q_max: q)
            for table in tables:
                payload = fd_digital_encode(table, budget_of(math.inf), bits)
                indices, values = reference_fd_encode(table, q, bits)
                np.testing.assert_array_equal(payload.indices, indices)
                assert payload.values.tobytes() == values.tobytes()
                assert payload.bit_count == fd_cost(num_labels, bits, q)
                decoded = fd_digital_decode(payload, num_labels)
                assert decoded.tobytes() == reference_fd_decode(
                    indices, values, num_labels).tobytes()

    @pytest.mark.parametrize("bits", [1, 2])
    def test_budget_search_matches_scan_where_cost_falls(self, bits):
        # The cost is not monotone here (at 1 bit, cost(9) ~ 123.2 but
        # cost(10) = 100), yet the q that fit a budget that q = 10 misses
        # are a prefix, so the bisection finds the same q as a scan.
        table = np.random.default_rng(10).standard_normal((10, 10))
        costs = [fd_cost(10, bits, q) for q in range(1, 11)]
        assert costs[8] > costs[9]
        budgets = [0.0] + [b for c in costs
                           for b in (np.nextafter(c, 0), c, np.nextafter(
                               c, math.inf), c - 0.5, c + 0.5)]
        for budget in budgets:
            best = max((q for q, c in enumerate(costs, start=1)
                        if c <= budget), default=0)
            payload = fd_digital_encode(table, budget_of(budget), bits)
            q = 0 if payload.is_empty else payload.indices.shape[1]
            assert q == best, budget


# Bit budgets: none, a few bits (none to a handful of entries fit), ample
# ones and no limit.
BUDGETS = (st.just(0.0) | st.floats(0.0, 100.0) | st.floats(100.0, 1e5)
           | st.just(math.inf))


class TestPayloadBits:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["fl", "fd"]), budget=BUDGETS,
           bits=st.integers(1, 53), data=st.data())
    def test_every_payload_fits_its_budget(self, kind, budget, bits, data):
        # Weight updates of 1 to 400 entries and L x L tables for L from 2
        # to 40, their entries at magnitudes from 1e-150 to 1e150.
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        if kind == "fl":
            shape = (data.draw(st.integers(1, 400), label="dim"),)
        else:
            shape = (data.draw(st.integers(2, 40), label="L"),) * 2
        exponent = data.draw(st.floats(-150.0, 150.0), label="magnitude")
        values = gen.uniform(-1.0, 1.0, (2,) + shape) * 10.0 ** exponent
        if kind == "fl":
            payload, _ = fl_digital_encode(values[0],
                                           ErrorAccumulator(values[1]),
                                           budget_of(budget), bits)
        else:
            payload = fd_digital_encode(values[0], budget_of(budget), bits)
        assert payload.bit_count <= budget
        assert payload.is_empty == (payload.bit_count == 0.0)
