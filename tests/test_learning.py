import math

import numpy as np
import pytest

from fedsim.datasets import LabeledDataset
from fedsim.errors import DivergenceError
from fedsim.learning import (
    MlpArchitecture, _pass, _sgd, _unpack,
    average_logits, evaluate_accuracy, forward_logits_batch, hfd_distill_step,
    init_weights, label_means, run_local_epochs, softmax,
)
from fedsim.orchestrator import _target


# The reference: the textbook kernel and minibatch loop. `learning._descend`
# must reproduce their weights bit for bit (TestReferenceKernel); they
# allocate every array per step, which makes them slow but easy to read.

# Clamp inside the test's logs so its losses stay finite.
LOG_FLOOR = 1e-12

def reference_forward(layers, x):
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


def reference_loss_grads(layers, grads, covariates, label_rows):
    """Write the gradient of the batch-mean cross entropy against the
    (soft) `label_rows` into `grads`."""
    n = covariates.shape[0]
    inputs, probs = reference_forward(layers, covariates)
    probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    probs -= label_rows
    probs /= n

    delta = probs
    for i in range(len(layers) - 1, -1, -1):
        gmat, gbias = grads[i]
        np.matmul(inputs[i].T, delta, out=gmat)
        np.add.reduce(delta, axis=0, out=gbias)
        if i > 0:
            delta = delta @ layers[i][0].T
            delta *= inputs[i] > 0.0


def reference_descend(w, arch, alpha, passes, batch_size):
    """SGD from a copy of `w` over each `_pass` pair of `passes` in turn,
    in contiguous minibatches of `batch_size` rows."""
    w = np.array(w, dtype=np.float64)
    grad = np.empty(w.shape)
    layers, grads = _unpack(w, arch), _unpack(grad, arch)
    for covariates, label_rows in passes:
        for start in range(0, len(covariates), batch_size):
            stop = start + batch_size
            reference_loss_grads(layers, grads, covariates[start:stop],
                                 label_rows[start:stop])
            grad *= alpha
            w -= grad
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weights after SGD")
    return w


def sgd_step(w, batch, alpha, arch, target_table=None, reg_weight=0.0):
    """One reference SGD step on the (optionally distillation-regularized)
    batch loss."""
    if alpha < 0:
        raise ValueError("step size must be non-negative")
    covariates, labels = batch
    if len(labels) == 0:
        raise ValueError("SGD step on an empty batch")
    return reference_descend(w, arch, alpha,
                             [_pass(covariates, labels, arch, target_table,
                                    reg_weight)], len(labels))


def small_arch():
    return MlpArchitecture((3, 4, 2))


def small_fixture(seed=0, n=6):
    gen = np.random.default_rng(seed)
    arch = small_arch()
    w = init_weights(arch, gen)
    covariates = gen.uniform(0, 1, (n, 3))
    labels = gen.integers(0, 2, n)
    return arch, w, covariates, labels, gen


def loss_and_gradient(w, covariates, labels, arch, target_rows=None,
                      reg_weight=0.0):
    """Batch-mean loss and the training kernel's gradient of it.

    The loss per sample is
        (1 - reg_weight) * ce(onehot, prediction)
        + reg_weight * ce(softmax(target_row), prediction)
    = -sum_l s_l log prediction_l for the soft label
        s = (1 - reg_weight) * onehot + reg_weight * softmax(target_row),
    computed from `forward_logits_batch` and `softmax`, independent of the
    kernel and of `_pass`, so that finite differences of it check the
    kernel's gradient, prediction - s.
    """
    probs = softmax(forward_logits_batch(w, covariates, arch))
    soft = np.eye(arch.num_classes)[labels]
    if target_rows is not None and reg_weight != 0.0:
        soft = (1.0 - reg_weight) * soft + reg_weight * softmax(target_rows)
    loss = -(soft * np.log(np.clip(probs, LOG_FLOOR, None))).sum(axis=1)
    # One step of the production loop at alpha 1 leaves the gradient in
    # its buffer exactly, since grad *= 1.0 changes no bit.
    grad = np.empty(w.shape)
    _sgd(w.copy(), grad, arch, 1.0, [(covariates, soft)], len(covariates))
    return float(loss.mean()), grad


def finite_difference_gradient(loss_fn, w, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.size):
        bump = np.zeros_like(w)
        bump[i] = h
        grad[i] = (loss_fn(w + bump) - loss_fn(w - bump)) / (2 * h)
    return grad


class TestArchitecture:
    def test_param_count(self):
        arch = MlpArchitecture((784, 64, 32, 10))
        assert arch.param_count == (784 * 64 + 64) + (64 * 32 + 32) \
            + (32 * 10 + 10)

    def test_descriptor_parsing(self):
        arch = MlpArchitecture.from_descriptor("mlp:64,32", 784, 10)
        assert arch.layer_sizes == (784, 64, 32, 10)
        assert MlpArchitecture.from_descriptor("linear", 5, 3).layer_sizes \
            == (5, 3)

    @pytest.mark.parametrize("descriptor", [
        "cnn", "mlp:", "mlp:8,", "mlp:,8", "mlp:8,,4", "mlp: ", "mlp:8, "])
    def test_bad_descriptor(self, descriptor):
        with pytest.raises(ValueError):
            MlpArchitecture.from_descriptor(descriptor, 5, 3)


class TestForward:
    def test_zero_weights_zero_logits(self):
        arch = small_arch()
        logits = forward_logits_batch(np.zeros(arch.param_count),
                                      np.array([[0.3, 0.7, 0.1]]), arch)
        np.testing.assert_array_equal(logits, np.zeros((1, 2)))

    def test_against_loop_reimplementation(self):
        # Independent oracle: explicit per-neuron loops, no matrix algebra.
        arch, w, covariates, _, _ = small_fixture(seed=3)
        x = covariates[0]
        sizes = arch.layer_sizes
        pos = 0
        params = []
        for i in range(len(sizes) - 1):
            mat = np.empty((sizes[i], sizes[i + 1]))
            for r in range(sizes[i]):
                for c in range(sizes[i + 1]):
                    mat[r, c] = w[pos + r * sizes[i + 1] + c]
            pos += sizes[i] * sizes[i + 1]
            bias = np.array([w[pos + c] for c in range(sizes[i + 1])])
            pos += sizes[i + 1]
            params.append((mat, bias))
        act = list(x)
        for layer, (mat, bias) in enumerate(params):
            nxt = []
            for c in range(mat.shape[1]):
                z = bias[c]
                for r in range(mat.shape[0]):
                    z += act[r] * mat[r, c]
                if layer < len(params) - 1:
                    z = max(z, 0.0)
                nxt.append(z)
            act = nxt
        np.testing.assert_allclose(forward_logits_batch(w, x[None, :], arch),
                                   [act], rtol=1e-12)

    def test_final_layer_scaling(self):
        arch, w, covariates, _, _ = small_fixture(seed=4)
        scaled = w.copy()
        last = (4 * 2 + 2)
        scaled[-last:] *= 3.0
        np.testing.assert_allclose(
            forward_logits_batch(scaled, covariates, arch),
            3.0 * forward_logits_batch(w, covariates, arch),
            rtol=1e-9, atol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])

    def test_closed_form(self):
        np.testing.assert_allclose(softmax(np.array([0.0, math.log(3)])),
                                   [0.25, 0.75], rtol=1e-12)

    def test_shift_invariance(self):
        gen = np.random.default_rng(5)
        s = gen.standard_normal(7)
        np.testing.assert_allclose(softmax(s + 123.4), softmax(s), rtol=1e-12)

    def test_sums_to_one(self):
        gen = np.random.default_rng(6)
        for _ in range(20):
            p = softmax(gen.standard_normal(9) * 30)
            assert abs(p.sum() - 1.0) < 1e-12


class TestGradients:
    def test_plain_loss_matches_finite_differences(self):
        for seed in range(3):
            arch, w, covariates, labels, _ = small_fixture(seed=seed)
            _, grad = loss_and_gradient(w, covariates, labels, arch)
            fd = finite_difference_gradient(
                lambda v: loss_and_gradient(v, covariates, labels, arch)[0], w)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_distilled_loss_matches_finite_differences(self):
        for seed in range(3):
            arch, w, covariates, labels, gen = small_fixture(seed=10 + seed)
            targets = gen.standard_normal((2, 2))
            rows = targets[labels]

            def loss(v):
                return loss_and_gradient(v, covariates, labels, arch,
                                         target_rows=rows,
                                         reg_weight=0.6)[0]

            _, grad = loss_and_gradient(w, covariates, labels, arch,
                                        target_rows=rows, reg_weight=0.6)
            fd = finite_difference_gradient(loss, w)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_distill_step_matches_finite_differences(self):
        for seed in range(3):
            gen = np.random.default_rng(20 + seed)
            arch = small_arch()
            w = init_weights(arch, gen)
            covariates = gen.uniform(0, 1, (2, 3))
            tgt = gen.standard_normal((2, 2))
            labels = np.array([0, 1])

            def loss(v):
                return loss_and_gradient(v, covariates, labels, arch,
                                         target_rows=tgt,
                                         reg_weight=0.5)[0]

            alpha = 0.01
            stepped = hfd_distill_step(w, covariates, labels, tgt, alpha,
                                       arch, 1, reg_weight=0.5)
            fd = finite_difference_gradient(loss, w)
            np.testing.assert_allclose(stepped, w - alpha * fd,
                                       rtol=1e-4, atol=1e-10)

    @pytest.mark.parametrize("reg_weight", [0.0, 0.5])
    def test_sgd_step_is_w_minus_alpha_grad(self, reg_weight):
        arch, w, covariates, labels, gen = small_fixture(seed=32)
        table = gen.standard_normal((2, 2))
        _, grad = loss_and_gradient(w, covariates, labels, arch,
                                    target_rows=table[labels],
                                    reg_weight=reg_weight)
        np.testing.assert_array_equal(
            sgd_step(w, (covariates, labels), 0.1, arch, target_table=table,
                     reg_weight=reg_weight),
            w - 0.1 * grad)

    def test_distilled_loss_is_least_at_the_target(self):
        # A linear model with a zero matrix predicts softmax(bias) for every
        # sample; with the bias at the target row and reg_weight 1 that is
        # the target's probability vector, where the distillation loss is
        # least, so a step moves no weight beyond rounding.
        gen = np.random.default_rng(34)
        arch = MlpArchitecture((3, 4))
        target = np.array([1.5, -0.7, 0.2, 0.0])
        w = np.zeros(arch.param_count)
        w[-4:] = target
        covariates = gen.uniform(0, 1, (6, 3))
        labels = np.array([0, 1, 2, 3, 1, 2])
        stepped = hfd_distill_step(w, covariates, labels,
                                   np.tile(target, (4, 1)), 1.0, arch, 1,
                                   reg_weight=1.0)
        np.testing.assert_allclose(stepped, w, rtol=0, atol=1e-15)

    def test_negative_step_size_rejected(self):
        arch, w, covariates, labels, _ = small_fixture(seed=33)
        with pytest.raises(ValueError, match="non-negative"):
            sgd_step(w, (covariates, labels), -0.1, arch)

    def test_empty_batch_rejected(self):
        arch, w, _, _, _ = small_fixture(seed=33)
        with pytest.raises(ValueError, match="empty batch"):
            sgd_step(w, (np.zeros((0, 3)), np.zeros(0, dtype=int)), 0.1, arch)

    def test_zero_step_size_is_identity(self):
        arch, w, covariates, labels, _ = small_fixture(seed=30)
        out = sgd_step(w, (covariates, labels), 0.0, arch)
        np.testing.assert_array_equal(out, w)

    def test_zero_reg_weight_equals_plain_step(self):
        arch, w, covariates, labels, gen = small_fixture(seed=31)
        table = gen.standard_normal((2, 2))
        plain = sgd_step(w, (covariates, labels), 0.05, arch)
        regularized = sgd_step(w, (covariates, labels), 0.05, arch,
                               target_table=table, reg_weight=0.0)
        np.testing.assert_array_equal(plain, regularized)


class TestAverageLogits:
    def make_data(self, gen, n=12, classes=3):
        return LabeledDataset(gen.uniform(0, 1, (n, 3)),
                              gen.integers(0, classes, n), classes)

    def test_full_pass_matches_direct_means(self):
        gen = np.random.default_rng(40)
        arch = MlpArchitecture((3, 4, 3))
        w = init_weights(arch, gen)
        data = self.make_data(gen)
        table = average_logits(w, data, arch)
        assert table.shape == (3, 3)
        logits = forward_logits_batch(w, data.covariates, arch)
        # The whole shard, in shard order: bit for bit the label means.
        np.testing.assert_array_equal(
            table, label_means(logits, data.labels, 3)[0])
        for t in range(3):
            mask = data.labels == t
            if mask.any():
                np.testing.assert_allclose(table[t],
                                           logits[mask].mean(axis=0))
            else:
                np.testing.assert_array_equal(table[t], np.zeros(3))

    def test_singleton_and_pair_means(self):
        arch = MlpArchitecture((2, 2))
        # Identity-ish linear map: logits = x @ M with M = I, bias 0.
        w = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        data = LabeledDataset(np.array([[1.0, 3.0], [3.0, 5.0], [0.5, 0.0]]),
                              np.array([0, 0, 1]), 2)
        table = average_logits(w, data, arch)
        np.testing.assert_allclose(table[0], [2.0, 4.0])
        np.testing.assert_allclose(table[1], [0.5, 0.0])

    def test_absent_label_masked(self):
        gen = np.random.default_rng(41)
        arch = MlpArchitecture((3, 3))
        w = init_weights(arch, gen)
        data = LabeledDataset(gen.uniform(0, 1, (4, 3)),
                              np.array([0, 0, 1, 1]), 3)
        table = average_logits(w, data, arch)
        np.testing.assert_array_equal(table[2], np.zeros(3))


class TestLeaveOneOut:
    """The contributor branch of the target rule: each contributor to an
    average of `count` payloads takes the average of the others."""

    @staticmethod
    def leave_one_out(avg, own, count):
        values, has = _target(avg, own, np.ones(len(own), dtype=bool), count)
        assert has.all()
        return values

    def test_direct_evaluation(self):
        np.testing.assert_allclose(
            self.leave_one_out(np.array([1.0, 2.0]), np.array([[0.0, 2.0]]),
                               2),
            [[2.0, 2.0]])

    def test_own_equals_avg(self):
        avg = np.array([3.0, -1.0])
        np.testing.assert_allclose(self.leave_one_out(avg, avg[None], 5),
                                   avg[None])

    def test_mean_identity(self):
        gen = np.random.default_rng(50)
        owns = gen.standard_normal((4, 6))
        avg = owns.mean(axis=0)
        loos = self.leave_one_out(avg, owns, 4)
        np.testing.assert_allclose(loos.mean(axis=0), avg, atol=1e-12)

    def test_exact_algebra(self):
        gen = np.random.default_rng(51)
        avg, own = gen.standard_normal((2, 8))
        out = self.leave_one_out(avg, own[None], 7)[0]
        np.testing.assert_allclose(7 * avg - own - 6 * out, np.zeros(8),
                                   atol=1e-12)

    def test_single_contributor_rejected(self):
        # No one else is in the average, so there is no target.
        _, has = _target(np.ones(2), np.ones((1, 2)), np.ones(1, dtype=bool),
                         1)
        assert has.tolist() == [False]


class TestCovariateMeans:
    def test_shared_label_mean(self):
        data = LabeledDataset(np.array([[0.0, 2.0], [2.0, 4.0]]) / 4.0,
                              np.array([1, 1]), 3)
        values, present = label_means(data.covariates, data.labels, 3)
        np.testing.assert_allclose(values[1], [0.25, 0.75])
        assert present.tolist() == [False, True, False]
        np.testing.assert_array_equal(values[0], np.zeros(2))

    def test_single_point(self):
        data = LabeledDataset(np.array([[0.3, 0.9]]), np.array([0]), 2)
        values, present = label_means(data.covariates, data.labels, 2)
        np.testing.assert_allclose(values[0], [0.3, 0.9])
        assert present.tolist() == [True, False]


class TestHfdDistill:
    def test_zero_alpha_identity(self):
        gen = np.random.default_rng(60)
        arch = small_arch()
        w = init_weights(arch, gen)
        tgt = gen.standard_normal((2, 2))
        np.testing.assert_array_equal(
            hfd_distill_step(w, gen.uniform(0, 1, (2, 3)), np.array([0, 1]),
                             tgt, 0.0, arch, 3, reg_weight=0.5), w)

    def test_empty_batch_noop(self):
        gen = np.random.default_rng(61)
        arch = small_arch()
        w = init_weights(arch, gen)
        out = hfd_distill_step(w, np.zeros((0, 3)), np.zeros(0, dtype=int),
                               np.zeros((2, 2)), 0.1, arch, 3,
                               reg_weight=0.5)
        np.testing.assert_array_equal(out, w)

    @pytest.mark.parametrize("reg_weight", [0.0, 0.5])
    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_equals_chained_sgd_steps(self, steps, reg_weight):
        # Bit for bit `steps` explicit steps on the whole pseudo-batch, each
        # pseudo-sample regularized toward its label's row of the table;
        # label 1 has no pseudo-sample.
        gen = np.random.default_rng(62)
        arch = MlpArchitecture((3, 4, 3))
        w = init_weights(arch, gen)
        covariates = gen.uniform(0, 1, (2, 3))
        labels = np.array([2, 0])
        tgt = gen.standard_normal((3, 3))
        expected = w
        for _ in range(steps):
            expected = sgd_step(expected, (covariates, labels), 0.1, arch,
                                target_table=tgt, reg_weight=reg_weight)
        out = hfd_distill_step(w, covariates, labels, tgt, 0.1, arch, steps,
                               reg_weight=reg_weight)
        assert not np.array_equal(out, w)
        np.testing.assert_array_equal(out, expected)

    def test_divergence_raises(self):
        # The same diverging steps, taken at once and one by one.
        gen = np.random.default_rng(63)
        arch = small_arch()
        w = init_weights(arch, gen)
        batch = (gen.uniform(0, 1, (2, 3)), np.array([0, 1]))
        tgt = gen.standard_normal((2, 2))
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite weights"):
                hfd_distill_step(w, *batch, tgt, 1e300, arch, 4,
                                 reg_weight=0.5)
            with pytest.raises(ValueError, match="non-finite weights"):
                for _ in range(4):
                    w = sgd_step(w, batch, 1e300, arch, target_table=tgt,
                                 reg_weight=0.5)


class TestEvaluateAccuracy:
    def test_random_weights_near_chance(self):
        gen = np.random.default_rng(70)
        arch = MlpArchitecture((8, 10))
        labels = np.tile(np.arange(10), 200)
        data = LabeledDataset(gen.uniform(0, 1, (2000, 8)), labels, 10)
        accs = [evaluate_accuracy(init_weights(arch, gen) * 3.0, data, arch)
                for _ in range(10)]
        assert abs(np.mean(accs) - 0.1) < 0.03

    def test_memorizer_hits_one(self):
        gen = np.random.default_rng(71)
        arch = MlpArchitecture((2, 8, 2))
        data = LabeledDataset(np.array([[0.1, 0.1], [0.9, 0.9]]),
                              np.array([0, 1]), 2)
        w = init_weights(arch, gen)
        for _ in range(500):
            w = sgd_step(w, (data.covariates, data.labels), 0.5, arch)
        assert evaluate_accuracy(w, data, arch) == 1.0


class TestLocalEpochs:
    def test_deterministic_given_stream(self):
        gen = np.random.default_rng(80)
        arch = small_arch()
        w = init_weights(arch, gen)
        data = LabeledDataset(gen.uniform(0, 1, (16, 3)),
                              gen.integers(0, 2, 16), 2)
        a = run_local_epochs(w, data, 0.05, 3, 4,
                             np.random.default_rng(9), arch)
        b = run_local_epochs(w, data, 0.05, 3, 4,
                             np.random.default_rng(9), arch)
        np.testing.assert_array_equal(a, b)


class TestLocalEpochsKernel:
    """run_local_epochs must equal a plain loop of sgd_step, bit for bit."""

    @pytest.mark.parametrize("sizes", [(5, 3), (5, 8, 3), (5, 16, 8, 4, 3)])
    @pytest.mark.parametrize("batch_size", [4, 5, 22])
    @pytest.mark.parametrize("reg_weight", [None, 0.0, 0.5, 1.0])
    def test_matches_sgd_step_loop(self, sizes, batch_size, reg_weight):
        gen = np.random.default_rng(90)
        arch = MlpArchitecture(sizes)
        n, epochs, alpha = 22, 3, 0.3
        data = LabeledDataset(gen.uniform(0, 1, (n, 5)),
                              gen.integers(0, 3, n), 3)
        w = init_weights(arch, gen)
        table = None if reg_weight is None else gen.standard_normal((3, 3))
        reg = reg_weight or 0.0

        expected = w
        rng = np.random.default_rng(91)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                expected = sgd_step(expected,
                                    (data.covariates[idx], data.labels[idx]),
                                    alpha, arch, target_table=table,
                                    reg_weight=reg)
        out = run_local_epochs(w, data, alpha, epochs, batch_size,
                               np.random.default_rng(91), arch,
                               target_table=table, reg_weight=reg)
        assert not np.array_equal(out, w)
        np.testing.assert_array_equal(out, expected)

    def test_input_weights_untouched(self):
        arch, w, covariates, labels, _ = small_fixture(seed=92, n=8)
        before = w.copy()
        run_local_epochs(w, LabeledDataset(covariates, labels, 2), 0.5, 2, 3,
                         np.random.default_rng(0), arch)
        np.testing.assert_array_equal(w, before)

    def test_divergence_raises(self):
        arch, w, covariates, labels, _ = small_fixture(seed=93, n=8)
        data = LabeledDataset(covariates, labels, 2)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="non-finite weights"):
            run_local_epochs(w, data, 1e300, 4, 2,
                             np.random.default_rng(0), arch)

    def test_infinite_covariates_raise(self):
        arch, w, covariates, labels, _ = small_fixture(seed=94)
        covariates[2, 1] = np.inf
        data = LabeledDataset(covariates, labels, 2)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="non-finite weights"):
            run_local_epochs(w, data, 0.1, 1, len(data),
                             np.random.default_rng(0), arch)


def reference_epochs(w, data, alpha, epochs, batch_size, rng, arch,
                     target_table, reg_weight):
    """`run_local_epochs` through `reference_descend`: each epoch gathers its
    own permutation and walks it in minibatches."""
    covariates, label_rows = _pass(data.covariates, data.labels, arch,
                                   target_table, reg_weight)
    orders = (rng.permutation(len(data)) for _ in range(epochs))
    passes = ((covariates[order], label_rows[order]) for order in orders)
    return reference_descend(w, arch, alpha, passes, batch_size)


MODELS = {"linear": (), "1-hidden": (9,), "2-hidden": (12, 7)}


class TestReferenceKernel:
    """`_descend`, through `run_local_epochs` and `hfd_distill_step`, equals
    the reference kernel and loop bit for bit."""

    DIM, SAMPLES = 6, 22

    def setup(self, model, classes, seed):
        gen = np.random.default_rng(seed)
        arch = MlpArchitecture((self.DIM,) + MODELS[model] + (classes,))
        return arch, init_weights(arch, gen), gen

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("batch_size", [1, 5])
    @pytest.mark.parametrize("reg_weight", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("with_table", [False, True])
    def test_local_epochs(self, model, classes, batch_size, reg_weight,
                          with_table):
        # 22 rows in minibatches of 5 leave a short last one of 2.
        arch, w, gen = self.setup(model, classes, 100 + classes)
        data = LabeledDataset(gen.uniform(-1, 1, (self.SAMPLES, self.DIM)),
                              gen.integers(0, classes, self.SAMPLES), classes)
        table = gen.standard_normal((classes, classes)) * 2.0 \
            if with_table else None
        args = (w, data, 0.4, 3, batch_size)
        out = run_local_epochs(*args, np.random.default_rng(7), arch,
                               target_table=table, reg_weight=reg_weight)
        expected = reference_epochs(*args, np.random.default_rng(7), arch,
                                    table, reg_weight)
        assert not np.array_equal(out, w)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("pseudo", [1, 2])
    @pytest.mark.parametrize("reg_weight", [0.0, 0.3, 0.5, 1.0])
    def test_hfd_distill_step(self, model, classes, pseudo, reg_weight):
        arch, w, gen = self.setup(model, classes, 200 + classes)
        covariates = gen.uniform(-1, 1, (pseudo, self.DIM))
        labels = gen.permutation(classes)[:pseudo]
        table = gen.standard_normal((classes, classes)) * 2.0
        out = hfd_distill_step(w, covariates, labels, table, 0.4, arch, 5,
                               reg_weight)
        expected = reference_descend(
            w, arch, 0.4,
            [_pass(covariates, labels, arch, table, reg_weight)] * 5, pseudo)
        assert not np.array_equal(out, w)
        assert out.tobytes() == expected.tobytes()

    def test_kernel_reuses_its_buffers_across_batch_sizes(self):
        # One call walks full and short batches of 5, 2, 5, 1 and 2 rows;
        # each step must read the reference gradient of its own rows.
        arch, w, gen = self.setup("2-hidden", 3, 300)
        covariates = gen.uniform(-1, 1, (7, self.DIM))
        batch = _pass(covariates, gen.integers(0, 3, 7), arch,
                      gen.standard_normal((3, 3)), 0.3)
        passes = [tuple(rows[:n] for rows in batch) for n in (7, 6, 2)]
        out = w.copy()
        _sgd(out, np.empty(w.shape), arch, 0.4, passes, 5)
        expected = reference_descend(w, arch, 0.4, passes, 5)
        assert not np.array_equal(out, w)
        assert out.tobytes() == expected.tobytes()
