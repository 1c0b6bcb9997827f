"""Feed-forward softmax classifier with exact gradients and the losses
used by the cooperative protocols.

The model is a small rectifier network over a flat weight vector, trained
by plain SGD. Besides the usual cross-entropy there is a distillation term:
the cross entropy between the local prediction and the probability vector
of an exchanged logit row, mixed in with a configurable weight. Per-label
averages (of logits or covariates) and their leave-one-out counterparts are
the quantities the distillation protocols exchange.
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
    def input_dim(self) -> int:
        return self.layer_sizes[0]

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
            hidden = tuple(int(h) for h in descriptor[4:].split(",") if h)
            return cls((input_dim,) + hidden + (num_classes,))
        raise ValueError(f"unknown model descriptor {descriptor!r}")


def init_weights(arch: MlpArchitecture, rng: np.random.Generator) -> np.ndarray:
    """Gaussian fan-in initialization for the matrices, zeros for biases."""
    chunks = []
    sizes = arch.layer_sizes
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        chunks.append(rng.standard_normal(fan_in * fan_out)
                      / np.sqrt(fan_in))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


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


def forward_logits_batch(w: np.ndarray, covariates: np.ndarray,
                         arch: MlpArchitecture) -> np.ndarray:
    layers = _unpack(np.asarray(w, dtype=np.float64), arch)
    activation = np.asarray(covariates, dtype=np.float64)
    for mat, bias in layers[:-1]:
        activation = np.maximum(activation @ mat + bias, 0.0)
    mat, bias = layers[-1]
    return activation @ mat + bias


def forward_logits(w: np.ndarray, covariate: np.ndarray,
                   arch: MlpArchitecture) -> np.ndarray:
    covariate = np.asarray(covariate, dtype=np.float64)
    if not np.all(np.isfinite(covariate)):
        raise ValueError("covariate must be finite")
    return forward_logits_batch(w, covariate[None, :], arch)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """Natural-log cross entropy -sum(a * log b), with b clamped away from 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.clip(np.asarray(b, dtype=np.float64), PROB_FLOOR, None)
    return float(-(a * np.log(b)).sum())


def _log_targets(target_rows: np.ndarray) -> np.ndarray:
    """log(softmax(target_rows)) with the probabilities clamped away from 0."""
    return np.log(np.clip(softmax(target_rows), PROB_FLOOR, None))


def _layer_loss_grads(layers, grads, covariates, onehot, log_targets,
                      reg_weight, need_loss=True):
    """Batch-mean loss, with its gradient written into `grads` (hot path).

    `layers` and `grads` are the (matrix, bias) views `_unpack` gives of the
    weights and of a gradient buffer laid out like them. `onehot` holds the
    batch's one-hot label rows and `log_targets` the matching rows of
    `_log_targets(target table)`, or None for plain cross-entropy. The
    logits are turned into probabilities and then into the output delta in
    place. Returns the loss, or None unless `need_loss`.
    """
    n = covariates.shape[0]
    activations = [covariates]
    act = covariates
    for mat, bias in layers[:-1]:
        act = act @ mat
        act += bias
        np.maximum(act, 0.0, out=act)
        activations.append(act)
    mat, bias = layers[-1]
    # The in-place steps below repeat softmax() and the textbook delta
    # expressions operation by operation; reordering them changes the last
    # bits of the weights and, through them, the metrics CSVs.
    probs = act @ mat
    probs += bias
    probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)

    loss = None
    if need_loss:
        ce_local = -np.log(np.clip((probs * onehot).sum(axis=1), PROB_FLOOR,
                                   None))
    if log_targets is None:
        if need_loss:
            loss = float(ce_local.mean())
        probs -= onehot
    else:
        weighted = np.add.reduce(probs * log_targets, axis=1, keepdims=True)
        if need_loss:
            loss = float(((1.0 - reg_weight) * ce_local
                          - reg_weight * weighted[:, 0]).mean())
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
        np.matmul(activations[i].T, delta, out=gmat)
        np.add.reduce(delta, axis=0, out=gbias)
        if i > 0:
            delta = delta @ layers[i][0].T
            delta *= activations[i] > 0.0
    return loss


def loss_and_gradient(w: np.ndarray, covariates: np.ndarray,
                      labels: np.ndarray, arch: MlpArchitecture,
                      target_rows: np.ndarray | None = None,
                      reg_weight: float = 0.0):
    """Batch-mean loss and its exact gradient with respect to flat weights.

    The loss per sample is
        (1 - reg_weight) * ce(onehot, prediction)
        + reg_weight * ce(prediction, softmax(target_row)),
    where target_row is that sample's exchanged logit row. With no targets
    (or reg_weight 0) this is plain cross-entropy training.
    """
    w = np.asarray(w, dtype=np.float64)
    covariates = np.asarray(covariates, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    log_targets = None
    if target_rows is not None and reg_weight != 0.0:
        log_targets = _log_targets(target_rows)
    grad = np.empty(w.shape)
    loss = _layer_loss_grads(_unpack(w, arch), _unpack(grad, arch),
                             covariates, np.eye(arch.num_classes)[labels],
                             log_targets, reg_weight)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise ValueError("non-finite loss or gradient")
    return loss, grad


def sgd_step(w: np.ndarray, batch, alpha: float, arch: MlpArchitecture,
             target_table: np.ndarray | None = None,
             reg_weight: float = 0.0) -> np.ndarray:
    """One SGD step on the (optionally distillation-regularized) batch loss."""
    if alpha < 0:
        raise ValueError("step size must be non-negative")
    covariates, labels = batch
    target_rows = None
    if target_table is not None and reg_weight > 0.0:
        target_rows = np.asarray(target_table)[np.asarray(labels, dtype=np.int64)]
    _, grad = loss_and_gradient(w, covariates, labels, arch,
                                target_rows=target_rows,
                                reg_weight=reg_weight)
    return w - alpha * grad


def run_local_epochs(w: np.ndarray, data: LabeledDataset, alpha: float,
                     epochs: int, batch_size: int, rng: np.random.Generator,
                     arch: MlpArchitecture,
                     target_table: np.ndarray | None = None,
                     reg_weight: float = 0.0) -> np.ndarray:
    """Minibatch SGD over the local shard for a number of epochs.

    Bit-identical to `sgd_step` over the minibatches of each epoch's
    `rng.permutation(n)`, with less work per step: one flat copy of the
    weights is trained in place, and every gradient lands in one flat buffer
    of the same layout, so a step ends in a single `w -= alpha * grad`. The
    log-targets are computed once per call; each epoch gathers covariates,
    one-hot labels and log-target rows in shuffled order once and slices
    contiguous minibatches from them.
    """
    n = len(data)
    w = np.array(w, dtype=np.float64)
    grad = np.empty(w.shape)
    layers, grads = _unpack(w, arch), _unpack(grad, arch)
    onehot = np.eye(arch.num_classes)[data.labels]
    log_targets = None
    if target_table is not None and reg_weight > 0.0:
        log_targets = _log_targets(target_table)[data.labels]
    for _ in range(epochs):
        order = rng.permutation(n)
        covariates, labels = data.covariates[order], onehot[order]
        targets = None if log_targets is None else log_targets[order]
        for start in range(0, n, batch_size):
            stop = start + batch_size
            _layer_loss_grads(layers, grads, covariates[start:stop],
                              labels[start:stop],
                              None if targets is None else targets[start:stop],
                              reg_weight, need_loss=False)
            grad *= alpha
            w -= grad
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weights after local training")
    return w


@dataclass(frozen=True)
class LogitTable:
    """Per-label average logit rows; absent labels are zero rows, unmasked
    in `present`."""

    values: np.ndarray
    present: np.ndarray


@dataclass(frozen=True)
class CovariateTable:
    """Per-label average covariates with a presence mask."""

    values: np.ndarray
    present: np.ndarray


def average_logits(w: np.ndarray, data: LabeledDataset, sample_size: int,
                   rng: np.random.Generator,
                   arch: MlpArchitecture) -> LogitTable:
    """Per-label mean logits over a random sample of the local shard."""
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    take = min(sample_size, len(data))
    idx = rng.choice(len(data), size=take, replace=False)
    logits = forward_logits_batch(w, data.covariates[idx], arch)
    labels = data.labels[idx]
    num_labels = data.num_classes
    values = np.zeros((num_labels, num_labels))
    present = np.zeros(num_labels, dtype=bool)
    for t in range(num_labels):
        mask = labels == t
        if mask.any():
            values[t] = logits[mask].mean(axis=0)
            present[t] = True
    return LogitTable(values=values, present=present)


def leave_one_out(avg: np.ndarray, own: np.ndarray, count: int) -> np.ndarray:
    """Average over everyone else: (count * avg - own) / (count - 1)."""
    if count < 2:
        raise ValueError("leave-one-out needs at least two contributors")
    return (count * np.asarray(avg, dtype=np.float64)
            - np.asarray(own, dtype=np.float64)) / (count - 1)


def local_covariate_means(data: LabeledDataset,
                          num_labels: int) -> CovariateTable:
    """Per-label mean covariate vectors; labels absent locally are masked."""
    values = np.zeros((num_labels, data.dim))
    present = np.zeros(num_labels, dtype=bool)
    for t in range(num_labels):
        mask = data.labels == t
        if mask.any():
            values[t] = data.covariates[mask].mean(axis=0)
            present[t] = True
    return CovariateTable(values=values, present=present)


def hfd_distill_step(w: np.ndarray, cov_table: CovariateTable,
                     target_table: LogitTable, alpha: float,
                     arch: MlpArchitecture,
                     reg_weight: float = 0.5) -> np.ndarray:
    """One SGD step distilling at the mixed-up covariates.

    Each unmasked label contributes one pseudo-sample: the leave-one-out
    average covariate with its label, regularized toward the exchanged
    logit row exactly as in the regular distillation loss. With every label
    masked the step is a no-op.
    """
    mask = cov_table.present & target_table.present
    if not mask.any():
        return w
    labels = np.flatnonzero(mask)
    covariates = cov_table.values[labels]
    target_rows = target_table.values[labels]
    _, grad = loss_and_gradient(w, covariates, labels, arch,
                                target_rows=target_rows,
                                reg_weight=reg_weight)
    return w - alpha * grad


def evaluate_accuracy(w: np.ndarray, test: LabeledDataset,
                      arch: MlpArchitecture) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest label."""
    if len(test) == 0:
        raise ValueError("empty test set")
    logits = forward_logits_batch(w, test.covariates, arch)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == test.labels))
