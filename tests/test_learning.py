import math

import numpy as np
import pytest

from fedsim.datasets import LabeledDataset
from fedsim.learning import (
    CovariateTable, LogitTable, MlpArchitecture, average_logits,
    cross_entropy, evaluate_accuracy, forward_logits, forward_logits_batch,
    hfd_distill_step, init_weights, leave_one_out, local_covariate_means,
    loss_and_gradient, run_local_epochs, sgd_step, softmax,
)


def small_arch():
    return MlpArchitecture((3, 4, 2))


def small_fixture(seed=0, n=6):
    gen = np.random.default_rng(seed)
    arch = small_arch()
    w = init_weights(arch, gen)
    covariates = gen.uniform(0, 1, (n, 3))
    labels = gen.integers(0, 2, n)
    return arch, w, covariates, labels, gen


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

    def test_bad_descriptor(self):
        with pytest.raises(ValueError):
            MlpArchitecture.from_descriptor("cnn", 5, 3)


class TestForward:
    def test_zero_weights_zero_logits(self):
        arch = small_arch()
        logits = forward_logits(np.zeros(arch.param_count),
                                np.array([0.3, 0.7, 0.1]), arch)
        np.testing.assert_array_equal(logits, np.zeros(2))

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
        np.testing.assert_allclose(forward_logits(w, x, arch), act,
                                   rtol=1e-12)

    def test_final_layer_scaling(self):
        arch, w, covariates, _, _ = small_fixture(seed=4)
        scaled = w.copy()
        last = (4 * 2 + 2)
        scaled[-last:] *= 3.0
        np.testing.assert_allclose(
            forward_logits_batch(scaled, covariates, arch),
            3.0 * forward_logits_batch(w, covariates, arch),
            rtol=1e-9, atol=1e-12)

    def test_non_finite_input_rejected(self):
        arch = small_arch()
        with pytest.raises(ValueError):
            forward_logits(np.zeros(arch.param_count),
                           np.array([np.nan, 0, 0]), arch)


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


class TestCrossEntropy:
    def test_uniform_self_entropy(self):
        assert abs(cross_entropy([0.5, 0.5], [0.5, 0.5])
                   - math.log(2)) < 1e-12

    def test_perfect_prediction(self):
        assert cross_entropy([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_gibbs_inequality(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            a = softmax(gen.standard_normal(5))
            b = softmax(gen.standard_normal(5))
            assert cross_entropy(a, b) >= cross_entropy(a, a) - 1e-12


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
            cov = CovariateTable(values=gen.uniform(0, 1, (2, 3)),
                                 present=np.array([True, True]))
            tgt = LogitTable(values=gen.standard_normal((2, 2)),
                             present=np.array([True, True]))
            labels = np.array([0, 1])

            def loss(v):
                return loss_and_gradient(v, cov.values, labels, arch,
                                         target_rows=tgt.values,
                                         reg_weight=0.5)[0]

            alpha = 0.01
            stepped = hfd_distill_step(w, cov, tgt, alpha, arch,
                                       reg_weight=0.5)
            fd = finite_difference_gradient(loss, w)
            np.testing.assert_allclose(stepped, w - alpha * fd,
                                       rtol=1e-4, atol=1e-10)

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
        table = average_logits(w, data, len(data), gen, arch)
        logits = forward_logits_batch(w, data.covariates, arch)
        for t in range(3):
            mask = data.labels == t
            if mask.any():
                assert table.present[t]
                np.testing.assert_allclose(table.values[t],
                                           logits[mask].mean(axis=0))
            else:
                assert not table.present[t]
                np.testing.assert_array_equal(table.values[t], np.zeros(3))

    def test_singleton_and_pair_means(self):
        arch = MlpArchitecture((2, 2))
        # Identity-ish linear map: logits = x @ M with M = I, bias 0.
        w = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        data = LabeledDataset(np.array([[1.0, 3.0], [3.0, 5.0], [0.5, 0.0]]),
                              np.array([0, 0, 1]), 2)
        gen = np.random.default_rng(0)
        table = average_logits(w, data, 3, gen, arch)
        np.testing.assert_allclose(table.values[0], [2.0, 4.0])
        np.testing.assert_allclose(table.values[1], [0.5, 0.0])

    def test_absent_label_masked(self):
        gen = np.random.default_rng(41)
        arch = MlpArchitecture((3, 3))
        w = init_weights(arch, gen)
        data = LabeledDataset(gen.uniform(0, 1, (4, 3)),
                              np.array([0, 0, 1, 1]), 3)
        table = average_logits(w, data, 4, gen, arch)
        assert not table.present[2]
        np.testing.assert_array_equal(table.values[2], np.zeros(3))


class TestLeaveOneOut:
    def test_direct_evaluation(self):
        np.testing.assert_allclose(
            leave_one_out(np.array([1.0, 2.0]), np.array([0.0, 2.0]), 2),
            [2.0, 2.0])

    def test_own_equals_avg(self):
        avg = np.array([3.0, -1.0])
        np.testing.assert_allclose(leave_one_out(avg, avg, 5), avg)

    def test_mean_identity(self):
        gen = np.random.default_rng(50)
        owns = gen.standard_normal((4, 6))
        avg = owns.mean(axis=0)
        loos = np.stack([leave_one_out(avg, own, 4) for own in owns])
        np.testing.assert_allclose(loos.mean(axis=0), avg, atol=1e-12)

    def test_exact_algebra(self):
        gen = np.random.default_rng(51)
        avg, own = gen.standard_normal((2, 8))
        out = leave_one_out(avg, own, 7)
        np.testing.assert_allclose(7 * avg - own - 6 * out, np.zeros(8),
                                   atol=1e-12)

    def test_single_contributor_rejected(self):
        with pytest.raises(ValueError):
            leave_one_out(np.ones(2), np.ones(2), 1)


class TestCovariateMeans:
    def test_shared_label_mean(self):
        data = LabeledDataset(np.array([[0.0, 2.0], [2.0, 4.0]]) / 4.0,
                              np.array([1, 1]), 3)
        table = local_covariate_means(data, 3)
        np.testing.assert_allclose(table.values[1], [0.25, 0.75])
        assert not table.present[0] and not table.present[2]
        np.testing.assert_array_equal(table.values[0], np.zeros(2))

    def test_single_point(self):
        data = LabeledDataset(np.array([[0.3, 0.9]]), np.array([0]), 2)
        table = local_covariate_means(data, 2)
        np.testing.assert_allclose(table.values[0], [0.3, 0.9])


class TestHfdDistill:
    def test_zero_alpha_identity(self):
        gen = np.random.default_rng(60)
        arch = small_arch()
        w = init_weights(arch, gen)
        cov = CovariateTable(gen.uniform(0, 1, (2, 3)),
                             np.array([True, True]))
        tgt = LogitTable(gen.standard_normal((2, 2)), np.array([True, True]))
        np.testing.assert_array_equal(
            hfd_distill_step(w, cov, tgt, 0.0, arch), w)

    def test_all_masked_noop(self):
        gen = np.random.default_rng(61)
        arch = small_arch()
        w = init_weights(arch, gen)
        cov = CovariateTable(np.zeros((2, 3)), np.array([False, False]))
        tgt = LogitTable(np.zeros((2, 2)), np.array([True, True]))
        np.testing.assert_array_equal(
            hfd_distill_step(w, cov, tgt, 0.1, arch), w)

    def test_masked_row_contributes_nothing(self):
        gen = np.random.default_rng(62)
        arch = small_arch()
        w = init_weights(arch, gen)
        values = gen.uniform(0, 1, (2, 3))
        tgt = LogitTable(gen.standard_normal((2, 2)), np.array([True, True]))
        cov_masked = CovariateTable(values, np.array([True, False]))
        perturbed = values.copy()
        perturbed[1] += 99.0  # must be ignored
        cov_perturbed = CovariateTable(perturbed, np.array([True, False]))
        np.testing.assert_array_equal(
            hfd_distill_step(w, cov_masked, tgt, 0.1, arch),
            hfd_distill_step(w, cov_perturbed, tgt, 0.1, arch))


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

    def test_empty_test_set_rejected(self):
        arch = small_arch()
        with pytest.raises(ValueError):
            evaluate_accuracy(np.zeros(arch.param_count),
                              LabeledDataset(np.ones((1, 3)),
                                             np.array([0]), 2).subset([]),
                              arch)


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
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="non-finite loss"):
            loss_and_gradient(w, covariates, labels, arch)
