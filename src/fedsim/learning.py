"""Feed-forward softmax classifier with exact gradients and the losses
used by the cooperative protocols.

The model is a small rectifier network over a flat weight vector, trained
by plain SGD. Besides the usual cross-entropy there is a distillation term:
the cross entropy between the local prediction and the probability vector
of an exchanged logit row, mixed in with a configurable weight. Per-label
averages (of logits or covariates) are the quantities the distillation
protocols exchange; their leave-one-out counterparts, the targets, are
computed in `orchestrator._target`. They are plain arrays: a logit table is
(L, L) with a zero row for an absent label, and HFD's mixed-up covariates
are a small batch of pseudo-samples, one per label that has one.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset

PROB_FLOOR = 1e-12  # clamp inside logs so losses stay finite


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
    if pos != w.size:
        raise ValueError(f"weight vector of length {w.size}, architecture "
                         f"needs {arch.param_count}")
    return layers


def _forward(layers, x):
    """(inputs, logits): the input of every layer, `x` first, and the
    logits of the batch `x` under the (matrix, bias) `layers`."""
    inputs = [x]
    for mat, bias in layers[:-1]:
        act = inputs[-1] @ mat
        act += bias
        np.maximum(act, 0.0, out=act)
        inputs.append(act)
    mat, bias = layers[-1]
    logits = inputs[-1] @ mat
    logits += bias
    return inputs, logits


def forward_logits_batch(w: np.ndarray, covariates: np.ndarray,
                         arch: MlpArchitecture) -> np.ndarray:
    return _forward(_unpack(np.asarray(w, dtype=np.float64), arch),
                    np.asarray(covariates, dtype=np.float64))[1]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _log_targets(target_rows: np.ndarray) -> np.ndarray:
    """log(softmax(target_rows)) with the probabilities clamped away from 0."""
    return np.log(np.clip(softmax(target_rows), PROB_FLOOR, None))


def _layer_loss_grads(layers, grads, covariates, onehot, log_targets,
                      reg_weight):
    """Write the gradient of the batch-mean loss into `grads` (hot path).

    The loss per sample is
        (1 - reg_weight) * ce(onehot, prediction)
        + reg_weight * ce(prediction, softmax(target_row)),
    where target_row is that sample's exchanged logit row. With no targets
    this is plain cross-entropy training.

    `layers` and `grads` are the (matrix, bias) views `_unpack` gives of the
    weights and of a gradient buffer laid out like them. `onehot` holds the
    batch's one-hot label rows and `log_targets` the matching rows of
    `_log_targets(target table)`, or None for plain cross-entropy. The
    logits are turned into probabilities and then into the output delta in
    place.
    """
    n = covariates.shape[0]
    inputs, probs = _forward(layers, covariates)
    # The in-place steps below repeat softmax() and the textbook delta
    # expressions operation by operation; reordering them changes the last
    # bits of the weights and, through them, the metrics CSVs.
    probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    if log_targets is None:
        probs -= onehot
    else:
        weighted = np.add.reduce(probs * log_targets, axis=1, keepdims=True)
        # d/ds of -sum_l p_l log b_l is p * (sum_l p_l log b_l - log b).
        d_distill = weighted - log_targets
        d_distill *= probs
        d_distill *= reg_weight
        probs -= onehot
        probs *= 1.0 - reg_weight
        probs += d_distill
    probs /= n

    delta = probs
    for i in range(len(layers) - 1, -1, -1):
        gmat, gbias = grads[i]
        np.matmul(inputs[i].T, delta, out=gmat)
        np.add.reduce(delta, axis=0, out=gbias)
        if i > 0:
            delta = delta @ layers[i][0].T
            delta *= inputs[i] > 0.0


def _pass(covariates, labels, arch, target_table, reg_weight):
    """(covariates, one-hot rows, log-target rows) of a batch, as `_descend`
    takes them. The log-target rows are None, for plain cross-entropy,
    unless a table is given and reg_weight > 0."""
    labels = np.asarray(labels, dtype=np.int64)
    log_targets = None
    if target_table is not None and reg_weight > 0.0:
        log_targets = _log_targets(target_table)[labels]
    return (np.asarray(covariates, dtype=np.float64),
            np.eye(arch.num_classes)[labels], log_targets)


def _descend(w, arch, alpha, reg_weight, passes, batch_size):
    """SGD from a copy of `w` over each `_pass` triple of `passes` in turn,
    in contiguous minibatches of `batch_size` rows; the one place where
    weights are stepped.

    The copy is trained in place, and every gradient lands in one flat
    buffer of the same layout, so a step ends in `grad *= alpha; w -= grad`,
    bit for bit `w - alpha * grad`.
    """
    w = np.array(w, dtype=np.float64)
    grad = np.empty(w.shape)
    layers, grads = _unpack(w, arch), _unpack(grad, arch)
    for covariates, onehot, log_targets in passes:
        for start in range(0, len(covariates), batch_size):
            stop = start + batch_size
            _layer_loss_grads(
                layers, grads, covariates[start:stop], onehot[start:stop],
                None if log_targets is None else log_targets[start:stop],
                reg_weight)
            grad *= alpha
            w -= grad
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weights after SGD")
    return w


def sgd_step(w: np.ndarray, batch, alpha: float, arch: MlpArchitecture,
             target_table: np.ndarray | None = None,
             reg_weight: float = 0.0) -> np.ndarray:
    """One SGD step on the (optionally distillation-regularized) batch loss."""
    if alpha < 0:
        raise ValueError("step size must be non-negative")
    covariates, labels = batch
    if len(labels) == 0:
        raise ValueError("SGD step on an empty batch")
    return _descend(w, arch, alpha, reg_weight,
                    [_pass(covariates, labels, arch, target_table,
                           reg_weight)], len(labels))


def run_local_epochs(w: np.ndarray, data: LabeledDataset, alpha: float,
                     epochs: int, batch_size: int, rng: np.random.Generator,
                     arch: MlpArchitecture,
                     target_table: np.ndarray | None = None,
                     reg_weight: float = 0.0) -> np.ndarray:
    """Minibatch SGD over the local shard for a number of epochs.

    Bit-identical to `sgd_step` over the minibatches of each epoch's
    `rng.permutation(len(data))`. The log-targets are computed once per
    call; each epoch gathers covariates, one-hot labels and log-target rows
    in shuffled order once, and `_descend` slices contiguous minibatches
    from them.
    """
    covariates, onehot, log_targets = _pass(data.covariates, data.labels,
                                            arch, target_table, reg_weight)
    orders = (rng.permutation(len(data)) for _ in range(epochs))
    passes = ((covariates[order], onehot[order],
               None if log_targets is None else log_targets[order])
              for order in orders)
    return _descend(w, arch, alpha, reg_weight, passes, batch_size)


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
    `labels`, regularized toward that label's row of the (L, L) exchanged
    `target_table` exactly as in the regular distillation loss; each step
    takes the whole pseudo-batch, bit for bit one `sgd_step`. An empty
    batch leaves `w` as it is.
    """
    if len(labels) == 0:
        return w
    batch = _pass(covariates, labels, arch, target_table, reg_weight)
    return _descend(w, arch, alpha, reg_weight, [batch] * steps, len(labels))


def evaluate_accuracy(w: np.ndarray, test: LabeledDataset,
                      arch: MlpArchitecture) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest label."""
    if len(test) == 0:
        raise ValueError("empty test set")
    logits = forward_logits_batch(w, test.covariates, arch)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == test.labels))
