"""Sparsification, scalar quantization, error feedback, and bit accounting.

These are the primitives shared by both digital pipelines: sign-mean sparse
compression for weight updates, magnitude top-k for logit rows, a uniform
mid-tread quantizer over the empirical value range, and the combinatorial
index-cost bookkeeping used to pick the largest sparsity level that fits a
capacity budget. `ErrorAccumulator` records a weight sender's error
feedback, whose arithmetic the senders do themselves.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)


def sparse_binary_compress(u: np.ndarray, q: int) -> np.ndarray:
    """Keep the q largest and q smallest entries (1 <= q, 2q <= u.size),
    collapse to one sign's mean.

    Among the 2q kept entries, the positives are averaged to mu_plus and the
    negatives to mu_minus (an empty side averages to 0). If mu_plus exceeds
    |mu_minus| the kept positives are set to mu_plus and everything else is
    zeroed; otherwise the kept negatives are set to mu_minus.
    """
    n = u.size
    order = np.argsort(u, kind="stable")
    kept = np.concatenate([order[:q], order[n - q:]])
    kept_vals = u[kept]
    pos = kept[kept_vals > 0.0]
    neg = kept[kept_vals < 0.0]
    mu_plus = float(u[pos].mean()) if pos.size else 0.0
    mu_minus = float(u[neg].mean()) if neg.size else 0.0
    out = np.zeros_like(u)
    if mu_plus > abs(mu_minus):
        out[pos] = mu_plus
    else:
        out[neg] = mu_minus
    return out


def top_k_sparsify(u: np.ndarray, q: int) -> np.ndarray:
    """Zero all entries except the q (0 <= q <= u.size) of largest
    magnitude (values preserved)."""
    if q == u.size:
        return u.copy()
    out = np.zeros_like(u)
    idx = top_k_indices(u, q)
    out[idx] = u[idx]
    return out


def top_k_indices(u: np.ndarray, q: int) -> np.ndarray:
    """Indices of the q largest-magnitude entries along the last axis, ties
    broken by position."""
    # Stable sort on -|u| makes the selection deterministic under ties.
    return np.argsort(-np.abs(u), axis=-1, kind="stable")[..., :q]


# A float64 has a 53-bit significand: finer levels are not distinct values,
# and from 63 bits the int64 codes wrap around.
MAX_QUANTIZER_BITS = 53


def quantize_rows(values: np.ndarray, bits: int) -> np.ndarray:
    """Mid-tread uniform quantization of each row onto 2^bits levels,
    1 <= bits <= MAX_QUANTIZER_BITS.

    A row is the last axis. Its levels span [min(row), max(row)], and that
    range is assumed conveyed to the decoder out of band. Returns the
    reconstructed values, which are what the decoder reads; a flat row (all
    values equal) comes back exactly.
    """
    lo = values.min(axis=-1, keepdims=True)
    hi = values.max(axis=-1, keepdims=True)
    levels = 2 ** bits - 1
    step = (hi - lo) / levels
    flat = hi == lo
    # Codes up to 2^53 - 1 are exact floats, so no integer cast is needed.
    codes = np.clip(np.rint((values - lo) / np.where(flat, 1.0, step)),
                    0, levels)
    return np.where(flat, lo, lo + codes * step)


@dataclass(frozen=True)
class ErrorAccumulator:
    """Residual of everything a sender has not yet managed to transmit.

    A sender adds the residual to its update once, puts part of that
    pending vector on the air, and returns ErrorAccumulator(pending - sent)
    (Ahn, Simeone and Kang, arXiv:2002.01337; Amiri and Gunduz,
    arXiv:1901.00844). A sender whose arithmetic overflows raises
    DivergenceError first, so a residual is always finite. The
    benchmark's tracer reads `residual`.
    """

    residual: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "ErrorAccumulator":
        return cls(residual=np.zeros(dim, dtype=np.float64))


def log2_binomial(n: int, k: int) -> float:
    """log2 of C(n, k), 0 <= k <= n, stable for n up to 1e7 via log-gamma
    sums; exactly 0.0 at k = 0 and k = n, where lgamma(1) is 0.0."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def max_sparsity_within_budget(budget: float, cost, q_max: int) -> int:
    """Largest q in [1, q_max], q_max >= 1, with cost(q) <= budget, or 0 if
    none fits.

    Past the check of q_max, `bisect` finds the first q in [1, q_max) for
    which the predicate "cost(q) misses the budget" holds, or q_max if none
    does; the q before it is the answer. That is exact when the step
    cost(q + 1) - cost(q) never grows with q. Then the q that miss the
    budget form one interval, so once q_max misses it the q that fit form
    a prefix and the predicate is False, then True. cost need not be
    monotone: FD's step L * (bits + log2((L - q) / (q + 1))) turns negative
    near q = L.
    """
    if cost(q_max) <= budget:
        return q_max
    return bisect.bisect_left(range(1, q_max), True,
                              key=lambda q: cost(q) > budget)


@dataclass(frozen=True)
class SparsePayload:
    """Index set plus the values the receiver decodes, with the exact bit bill.

    The indices run along the last axis, and the values broadcast along
    them: a weight update carries a flat support with one shared magnitude
    (values of shape (1,)), a logit table one row of q indices and q values
    per label (shape (L, q)). The values are already dequantized, so they
    are what the decoder reads; the quantizer ranges travel out of band and
    are billed in neither shape. bit_count is the producing pipeline's
    accounting formula evaluated exactly; it is real-valued because index
    costs are information-theoretic (log2 of a binomial).
    """

    indices: np.ndarray
    values: np.ndarray
    bit_count: float

    @classmethod
    def empty(cls) -> "SparsePayload":
        return cls(indices=np.zeros(0, dtype=np.int64), values=np.zeros(0),
                   bit_count=0.0)

    @property
    def is_empty(self) -> bool:
        return self.indices.size == 0
