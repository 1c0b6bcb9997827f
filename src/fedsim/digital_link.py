"""Separate source-channel coding for the digital uplink and downlink.

Capacity budgets follow the Shannon formula for the equal-allocation uplink
and the worst-user broadcast downlink; payloads compressed below the budget
are assumed delivered error-free (capacity-achieving code idealization).
Weight updates travel as sign-mean sparse payloads with error feedback,
logit tables as per-row magnitude top-q with a uniform quantizer.

The budgets and payloads are this process's own: a run's configuration
guarantees T >= 1, K >= 1 and a finite power P > 0, and a payload reaches
a decoder from the encoder that built it. So neither is checked again on
the way; `_check_budget` audits each payload's bill against its budget.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import audit
from .compression import (
    ErrorAccumulator, SparsePayload, log2_binomial,
    max_sparsity_within_budget, quantize_rows, sparse_binary_compress,
    top_k_indices,
)
from .errors import DivergenceError


@dataclass(frozen=True)
class BitBudget:
    """How many bits one sender may put on the air this iteration: a
    Shannon capacity, finite and >= 0, or +inf. A record that the
    benchmark's tracer reads."""

    bits: float


def uplink_budget(channel_uses: int, num_devices: int, gain: complex,
                  power: float) -> BitBudget:
    """Equal-allocation share of the uplink MAC for one device."""
    snr = (abs(gain) ** 2) * num_devices * power
    bits = (channel_uses / num_devices) * math.log2(1.0 + snr)
    return BitBudget(bits=bits)


def downlink_budget(channel_uses: int, gains: np.ndarray,
                    power: float) -> BitBudget:
    """Broadcast rate, limited by the weakest device's channel."""
    bits = min(channel_uses * math.log2(1.0 + (abs(g) ** 2) * power)
               for g in gains)
    return BitBudget(bits=bits)


def _check_budget(payload: SparsePayload, budget: BitBudget) -> None:
    audit.count_budget_check()
    if payload.bit_count > budget.bits * (1.0 + 1e-12) + 1e-9:
        audit.count_violation()
        raise ValueError(
            f"payload of {payload.bit_count:.6g} bits exceeds budget "
            f"{budget.bits:.6g}")


def fl_digital_encode(update: np.ndarray, acc: ErrorAccumulator,
                      budget: BitBudget, bits: int):
    """Compress one weight update under the budget, with error feedback.

    The pending vector (update + residual) is sign-mean sparsified at the
    largest q whose bill bits + log2 C(W, q) fits; the single surviving
    magnitude is sent as is (a `bits`-bit quantizer over a one-value range
    is exact, so the bill keeps its `bits` term without running one) and
    the new residual is pending minus what was sent. An infeasible budget
    sends nothing and rolls the whole update into the residual. A pending
    vector or sign-mean that overflows float64 raises DivergenceError
    instead of numpy's warnings.
    """
    update = np.asarray(update, dtype=np.float64)
    dim = update.size

    def cost(q):
        return bits + log2_binomial(dim, q)

    q = max_sparsity_within_budget(budget.bits, cost, dim // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        pending = update + acc.residual
        sent = sparse_binary_compress(pending, q) if q else np.zeros(dim)
        residual = pending - sent
    if not np.all(np.isfinite(residual)):
        raise DivergenceError("weight update overflows the digital link's "
                              "sign-mean")
    support = np.flatnonzero(sent)
    if support.size == 0:  # no q fits, or pending was identically zero
        return SparsePayload.empty(), ErrorAccumulator(residual)

    sent_value = float(sent[support[0]])
    payload = SparsePayload(indices=support.astype(np.int64),
                            values=np.array([sent_value]), bit_count=cost(q))
    _check_budget(payload, budget)
    return payload, ErrorAccumulator(residual)


def _scatter(payload: SparsePayload, shape) -> np.ndarray:
    """A zero array of `shape` with the payload's values written at its
    indices along the last axis; an empty payload decodes to zeros. The
    indices are an encoder's own, in range and of the shape's rank."""
    out = np.zeros(shape, dtype=np.float64)
    if not payload.is_empty:
        np.put_along_axis(out, payload.indices, payload.values, axis=-1)
    return out


def fl_digital_decode(payload: SparsePayload, dim: int) -> np.ndarray:
    """Rebuild the sparse update: the one value on its whole support."""
    return _scatter(payload, (dim,))


def fd_digital_encode(table: np.ndarray, budget: BitBudget,
                      bits: int) -> SparsePayload:
    """Compress an L x L logit table: per-row magnitude top-q plus quantizer.

    One q is chosen for the whole table, the largest with
    L * (bits * q + log2 C(L, q)) within budget. Each row keeps its own
    quantizer range (`quantize_rows`). Infeasible budgets yield an empty
    payload.
    """
    table = np.asarray(table, dtype=np.float64)
    num_labels = table.shape[0]
    if table.ndim != 2 or table.shape[1] != num_labels or num_labels < 2:
        raise ValueError("expected a square logit table with L >= 2")

    def cost(q):
        return num_labels * (bits * q + log2_binomial(num_labels, q))

    q = max_sparsity_within_budget(budget.bits, cost, num_labels)
    if q == 0:
        return SparsePayload.empty()

    indices = np.sort(top_k_indices(table, q), axis=-1)
    values = quantize_rows(np.take_along_axis(table, indices, axis=-1), bits)
    payload = SparsePayload(indices=indices, values=values, bit_count=cost(q))
    _check_budget(payload, budget)
    return payload


def fd_digital_decode(payload: SparsePayload, num_labels: int) -> np.ndarray:
    """Rebuild the L x L logit table from its rows of kept values."""
    return _scatter(payload, (num_labels, num_labels))
