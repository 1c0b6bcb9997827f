"""Feed-forward softmax classifier with exact gradients and the losses
used by the cooperative protocols.

The model is a small rectifier network over a flat weight vector, trained
by plain SGD. Besides the usual cross-entropy there is a distillation term,
the knowledge-distillation loss -sum_l b_l log p_l of the local
prediction p against b, the probability vector of an exchanged logit row,
mixed in with a configurable weight r. Over p it is least at p = b. With the usual
term, its gradient in the logits is p - s for the soft label
s = (1 - r) * onehot + r * b, so a distilled step is the plain
cross-entropy step toward s.

Per-label averages (of logits or covariates) are the quantities the
distillation protocols exchange; their leave-one-out counterparts, the
targets, are computed in `orchestrator._target`. They are plain arrays: a
logit table is (L, L) with a zero row for an absent label, and HFD's
mixed-up covariates are a small batch of pseudo-samples, one per label
that has one.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .datasets import LabeledDataset
from .errors import DivergenceError


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths from input to logits, e.g. (784, 64, 32, 10)."""

    layer_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need at least input and output widths, all >= 1")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum((sizes[i] + 1) * sizes[i + 1] for i in range(len(sizes) - 1))

    @classmethod
    def from_descriptor(cls, descriptor: str, input_dim: int,
                        num_classes: int) -> "MlpArchitecture":
        """"mlp:64,32" picks hidden widths; "linear" means no hidden layer."""
        descriptor = descriptor.strip()
        if descriptor == "linear":
            return cls((input_dim, num_classes))
        if descriptor.startswith("mlp:"):
            widths = descriptor[4:].split(",")
            if not all(w.strip() for w in widths):
                raise ValueError("an empty hidden width; write \"linear\" "
                                 "for no hidden layer")
            hidden = tuple(int(w) for w in widths)
            return cls((input_dim,) + hidden + (num_classes,))
        raise ValueError(f"unknown model descriptor {descriptor!r}")


def init_weights(arch: MlpArchitecture, rng: np.random.Generator) -> np.ndarray:
    """Gaussian fan-in initialization for the matrices, zeros for biases."""
    w = np.zeros(arch.param_count)
    for mat, _ in _unpack(w, arch):
        mat[...] = rng.standard_normal(mat.shape) / np.sqrt(mat.shape[0])
    return w


def _unpack(w: np.ndarray, arch: MlpArchitecture):
    layers = []
    sizes = arch.layer_sizes
    pos = 0
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        mat = w[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        bias = w[pos:pos + fan_out]
        pos += fan_out
        layers.append((mat, bias))
    return layers


def forward_logits_batch(w: np.ndarray, covariates: np.ndarray,
                         arch: MlpArchitecture) -> np.ndarray:
    layers = _unpack(w, arch)
    x = covariates
    for mat, bias in layers[:-1]:
        x = x @ mat
        x += bias
        np.maximum(x, 0.0, out=x)
    mat, bias = layers[-1]
    logits = x @ mat
    logits += bias
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _pass(covariates, labels, arch, target_table, reg_weight):
    """(covariates, label rows) of a batch, as `_descend` takes them.

    A sample's label row is its soft label
        (1 - reg_weight) * onehot + reg_weight * softmax(target_row),
    target_row being its label's row of `target_table`; it is the one-hot
    row exactly when no table is given or reg_weight is 0.
    """
    rows = np.eye(arch.num_classes)[labels]
    if target_table is not None and reg_weight > 0.0:
        rows *= 1.0 - reg_weight
        rows += reg_weight * softmax(target_table)[labels]
    return covariates, rows


def _descend(w, arch, alpha, passes, batch_size):
    """SGD from a copy of `w` over each `_pass` pair of the list `passes`
    in turn, in contiguous minibatches of `batch_size` rows; the one place
    where weights are stepped.

    The loop (`_sgd`) makes each minibatch's calls of the reference kernel
    and loop in `tests/test_learning.py` (`reference_loss_grads`,
    `reference_descend`) on the same values in the same order, into
    buffers made once per call; its ReLU mask is a 0/1 float array where
    the reference's is boolean. So the weights equal the reference's bit
    for bit, as the tests and golden CSVs check.
    """
    w = np.array(w, dtype=np.float64)
    # Overflow on the way shows in the finiteness check below, which
    # raises it as one error instead of numpy's warnings.
    with np.errstate(all="ignore"):
        _sgd(w, np.empty(w.shape), arch, alpha, passes, batch_size)
    if not np.all(np.isfinite(w)):
        raise DivergenceError("non-finite weights after SGD")
    return w


def _sgd(w, grad, arch, alpha, passes, batch_size):
    """Step `w` in place over the minibatches of `passes` (hot path), with
    `grad`, laid out like `w`, as the gradient buffer.

    The loss per sample is the cross entropy ce(label_row, prediction) of
    its `_pass` label row, whose gradient in the logits is
    prediction - label_row. A step writes the gradient of the batch-mean
    loss into `grad` and ends in `grad *= alpha; w -= grad`, bit for bit
    `w - alpha * grad`.

    Numpy's per-call overhead, not arithmetic, is the cost on small arrays,
    so the loop makes few calls, through local names and positional `out`,
    and allocates nothing per step: buffers, transposed views and 0-d
    scalars are made once per call, and a batch of n rows uses [:n] slices
    of them, made once per n (`plan`) and unpacked once per pass.
    """
    layers, grads = _unpack(w, arch), _unpack(grad, arch)
    rows = min(batch_size, max((len(p[0]) for p in passes), default=0))
    widths = arch.layer_sizes[1:]
    acts = [np.empty((rows, width)) for width in widths]
    masks, deltas = ([np.empty((rows, width)) for width in widths[:-1]]
                     for _ in range(2))
    peaks = np.empty((rows, 1))
    zero, step = np.array(0.0), np.array(float(alpha))
    mats_t = [mat.T for mat, _ in layers]
    (top_mat, top_bias), (first_gmat, first_gbias) = layers[-1], grads[0]

    @cache
    def plan(n):
        """What a batch of n rows reads besides its rows: forward tuples,
        logit and row-max buffers, n as a 0-d array, and backward
        tuples (input^T, gradient views, matrix^T, delta and mask below)."""
        cut = [a[:n] for a in acts]
        forward = [(mat, bias, act, mask[:n]) for (mat, bias), act, mask
                   in zip(layers[:-1], cut, masks)]
        backward = [(cut[i - 1].T, *grads[i], mats_t[i], deltas[i - 1][:n],
                     masks[i - 1][:n]) for i in range(len(layers) - 1, 0, -1)]
        return forward, cut[-1], peaks[:n], np.array(float(n)), backward

    dot, add, subtract, multiply, divide, exp, sign, maximum = (
        np.dot, np.add, np.subtract, np.multiply, np.divide, np.exp, np.sign,
        np.maximum)
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    for covariates, label_rows in passes:
        size = len(covariates)
        cut = size - size % batch_size
        for first, last, n in ((0, cut, batch_size), (cut, size, size - cut)):
            if first == last:
                continue
            forward, probs, peak, count, backward = plan(n)
            for start in range(first, last, n):
                stop = start + n
                x = inputs = covariates[start:stop]
                for mat, bias, act, mask in forward:
                    dot(x, mat, act)
                    add(act, bias, act)
                    # np.maximum takes its out only by keyword.
                    maximum(act, zero, out=act)
                    # ReLU outputs are >= 0: their sign is the 0/1 mask.
                    sign(act, mask)
                    x = act
                dot(x, top_mat, probs)
                add(probs, top_bias, probs)
                # softmax() and the textbook delta, call by call: reordering
                # them changes the weights' last bits and the metrics CSVs.
                max_reduce(probs, 1, None, peak, True)
                subtract(probs, peak, probs)
                exp(probs, probs)
                add_reduce(probs, 1, None, peak, True)
                divide(probs, peak, probs)
                subtract(probs, label_rows[start:stop], probs)
                divide(probs, count, probs)
                delta = probs
                for act_t, gmat, gbias, mat_t, below, mask in backward:
                    dot(act_t, delta, gmat)
                    add_reduce(delta, 0, None, gbias)
                    dot(delta, mat_t, below)
                    multiply(below, mask, below)
                    delta = below
                dot(inputs.T, delta, first_gmat)
                add_reduce(delta, 0, None, first_gbias)
                multiply(grad, step, grad)
                subtract(w, grad, w)


def run_local_epochs(w: np.ndarray, data: LabeledDataset, alpha: float,
                     epochs: int, batch_size: int, rng: np.random.Generator,
                     arch: MlpArchitecture,
                     target_table: np.ndarray | None = None,
                     reg_weight: float = 0.0) -> np.ndarray:
    """Minibatch SGD over the local shard for a number of epochs.

    Each epoch walks `rng.permutation(len(data))` in contiguous minibatches
    of `batch_size` rows, the last one short if the shard does not divide.
    All epochs' permutations are drawn first, in order, and covariates and
    label rows (`_pass`'s soft labels, toward `target_table` with weight
    `reg_weight`) are gathered through them in one go; the label rows are
    computed once per call.
    """
    covariates, label_rows = _pass(data.covariates, data.labels, arch,
                                   target_table, reg_weight)
    orders = np.array([rng.permutation(len(data)) for _ in range(epochs)],
                      dtype=np.int64).reshape(epochs, len(data))
    passes = list(zip(covariates[orders], label_rows[orders]))
    return _descend(w, arch, alpha, passes, batch_size)


def label_means(rows: np.ndarray, labels: np.ndarray, num_labels: int):
    """(values, present): the mean row per label, zero and unmasked where
    the label does not occur."""
    values = np.zeros((num_labels, rows.shape[1]))
    present = np.zeros(num_labels, dtype=bool)
    for t in range(num_labels):
        mask = labels == t
        if mask.any():
            values[t] = rows[mask].mean(axis=0)
            present[t] = True
    return values, present


def average_logits(w: np.ndarray, data: LabeledDataset,
                   arch: MlpArchitecture) -> np.ndarray:
    """(L, L) per-label mean logits over the whole local shard, summed in
    shard order; a label absent from the shard is a zero row."""
    logits = forward_logits_batch(w, data.covariates, arch)
    return label_means(logits, data.labels, data.num_classes)[0]


def hfd_distill_step(w: np.ndarray, covariates: np.ndarray,
                     labels: np.ndarray, target_table: np.ndarray,
                     alpha: float, arch: MlpArchitecture, steps: int,
                     reg_weight: float) -> np.ndarray:
    """`steps` SGD steps distilling at the mixed-up covariates.

    Each row of `covariates` is one pseudo-sample with its entry of
    `labels`, learning toward the soft label of that label's row of the
    (L, L) exchanged `target_table` exactly as in `run_local_epochs`; each step
    takes the whole pseudo-batch as one minibatch. An empty batch leaves
    `w` as it is.
    """
    if len(labels) == 0:
        return w
    batch = _pass(covariates, labels, arch, target_table, reg_weight)
    return _descend(w, arch, alpha, [batch] * steps, len(labels))


def evaluate_accuracy(w: np.ndarray, test: LabeledDataset,
                      arch: MlpArchitecture) -> float:
    """Fraction of argmax-correct predictions over a test set of at least
    one sample; ties go to the lowest label. Test logits that overflow
    raise DivergenceError."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward_logits_batch(w, test.covariates, arch)
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite test logits")
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == test.labels))
