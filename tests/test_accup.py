"""Adaptation-math tests with independent brute-force oracles."""

import numpy as np
import pytest

import tsadapt.autodiff as ad
from tsadapt.accup import (
    AccupConfig,
    SupportSet,
    compute_prototypes,
    contrastive_loss,
    ensemble,
    entropy_compare,
    prototype_logits,
    shannon_entropy,
    update_support,
)
from tsadapt.autodiff import Tensor
from tsadapt.errors import ConfigurationError, ContractError, NumericDomainError

from conftest import finite_difference_max_rel_error


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def entropy_oracle(logits):
    """Direct formula: -sum p ln p over the stable softmax."""
    v = np.asarray(logits, dtype=np.float64)
    e = np.exp(v - v.max())
    p = e / e.sum()
    return float(-(p[p > 0] * np.log(p[p > 0])).sum())


def kept_rows(rows, k):
    """Sort one class's full history by (entropy, insertion index), keep k."""
    order = sorted(range(len(rows)), key=lambda i: (rows[i][1], i))
    return [rows[i] for i in order[:k]]


def prototypes_oracle(history, k):
    """Average the kept rows of every class's full history."""
    return np.array([np.mean([f for f, _ in kept_rows(rows, k)], axis=0) for rows in history])


def seeded_support(weight, bound):
    """A support set seeded from classifier rows, plus the test's own record
    of every (feature, entropy) row inserted into each class."""
    support = SupportSet.from_classifier(weight, bound)
    history = [[(row.copy(), 0.0)] for row in weight]
    return support, history


def insert(support, history, features, logits, entropies, labels):
    """update_support, recording each row in the history the oracles read."""
    update_support(support, features, logits, entropies, labels)
    for f, h, y in zip(features, entropies, labels):
        history[int(y)].append((np.array(f, dtype=np.float64), float(h)))


def cos_matrix(p):
    norms = np.linalg.norm(p, axis=1)
    safe = np.where(norms == 0, 1.0, norms)
    unit = np.where(norms[:, None] == 0, 0.0, p / safe[:, None])
    return unit @ unit.T


def contrastive_loss_from_cos(sims, labels, tau):
    """Exhaustive double-loop evaluation, taking the cosine matrix directly."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [k for k in range(n) if labels[k] != labels[i]]
        if not pos or not neg:
            continue
        denom = sum(np.exp(sims[i, k] / tau) for k in neg)
        total += -sum(
            np.log(np.exp(sims[i, j] / tau) / denom) for j in pos
        ) / len(pos)
    return total


def contrastive_oracle(p, labels, tau):
    return contrastive_loss_from_cos(cos_matrix(np.asarray(p)), labels, tau)


def random_support_set(rng, n_classes=4, feature_dim=6, max_entries=20, bound=7):
    support, history = seeded_support(rng.normal(size=(n_classes, feature_dim)), bound)
    for c in range(n_classes):
        for _ in range(rng.integers(0, max_entries)):
            logits = rng.normal(size=n_classes)
            logits[c] += 10.0  # pin the argmax to the class
            insert(
                support,
                history,
                rng.normal(size=(1, feature_dim)),
                logits[None],
                [float(rng.uniform(0, 2))],
                [c],
            )
    return support, history


# ---------------------------------------------------------------------------
# shannon entropy
# ---------------------------------------------------------------------------

class TestShannonEntropy:
    def test_uniform_is_log_c(self):
        assert shannon_entropy(np.zeros(4)) == pytest.approx(np.log(4), abs=1e-12)

    def test_near_one_hot_is_near_zero(self):
        assert shannon_entropy(np.array([50.0, 0, 0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_two_logit_case_against_direct_formula(self):
        # softmax([1,0]) = (0.7311, 0.2689); frozen value from the oracle
        assert shannon_entropy(np.array([1.0, 0.0])) == pytest.approx(
            0.5822031088882179, abs=1e-15
        )
        assert shannon_entropy(np.array([1.0, 0.0])) == pytest.approx(
            entropy_oracle([1.0, 0.0]), abs=1e-15
        )

    def test_batch_rows_match_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 3, size=(50, 5))
        rows = shannon_entropy(logits)
        for i in range(50):
            assert rows[i] == pytest.approx(entropy_oracle(logits[i]), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericDomainError):
            shannon_entropy(np.array([np.inf, 0.0]))


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

class TestEnsemble:
    def test_idempotent_on_equal_views(self):
        f = Tensor(np.random.default_rng(1).normal(size=(4, 6)))
        p = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        for w in (0.1, 0.5, 0.9):
            fe, pe = ensemble(f, p, f, p, w)
            np.testing.assert_allclose(fe.data, f.data, atol=1e-15)
            np.testing.assert_allclose(pe.data, p.data, atol=1e-15)

    def test_halfway_arithmetic(self):
        fe, pe = ensemble(Tensor([[2.0, 0.0]]), Tensor([[2.0, 0.0]]),
                          Tensor([[0.0, 2.0]]), Tensor([[0.0, 2.0]]), 0.5)
        np.testing.assert_array_equal(fe.data, [[1.0, 1.0]])
        np.testing.assert_array_equal(pe.data, [[1.0, 1.0]])

    def test_accepts_the_studied_weight_grid(self):
        for w in np.arange(0.1, 1.0, 0.1):
            AccupConfig(ensemble_weight=float(w))

    def test_rejects_out_of_range_weight(self):
        f = Tensor(np.zeros((1, 2)))
        for w in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ConfigurationError):
                ensemble(f, f, f, f, w)


# ---------------------------------------------------------------------------
# support set and prototypes
# ---------------------------------------------------------------------------

class TestSupportSet:
    def test_init_one_entry_per_class(self):
        support = SupportSet.from_classifier(np.eye(4, 7), 10)
        assert len(support) == 4
        for c in range(4):
            np.testing.assert_array_equal(support.entropies[c], [0.0])
            np.testing.assert_array_equal(support.features[c], np.eye(4, 7)[c:c + 1])

    def test_empty_update_is_noop(self):
        support = SupportSet.from_classifier(np.eye(3, 5), 10)
        update_support(support, np.zeros((0, 5)), np.zeros((0, 3)),
                       np.zeros(0), np.zeros(0, dtype=int))
        assert len(support) == 3

    def test_batch_of_three_grows_by_three(self):
        rng = np.random.default_rng(6)
        support = SupportSet.from_classifier(rng.normal(size=(3, 5)), 10)
        logits = rng.normal(size=(3, 3))
        labels = logits.argmax(axis=1)
        update_support(support, rng.normal(size=(3, 5)), logits,
                       shannon_entropy(logits), labels)
        assert len(support) == 6

    def test_stream_labels_match_stored_argmax(self):
        rng = np.random.default_rng(7)
        support = SupportSet.from_classifier(rng.normal(size=(4, 5)), 10)
        logits = rng.normal(size=(10, 4))
        features, entropies = rng.normal(size=(10, 5)), shannon_entropy(logits)
        labels = logits.argmax(axis=1)
        update_support(support, features, logits, entropies, labels)
        for c in range(4):
            # after the zero-entropy classifier row: the rows whose argmax is
            # c, in entropy order
            rows = labels == c
            np.testing.assert_array_equal(
                support.features[c][1:], features[rows][np.argsort(entropies[rows], kind="stable")]
            )

    def test_mismatched_label_rejected(self):
        support = SupportSet.from_classifier(np.eye(3, 5), 10)
        with pytest.raises(ContractError):
            update_support(support, np.zeros((1, 5)), np.array([[0.0, 1.0, 0.0]]),
                           [0.5], [2])


class TestComputePrototypes:
    def test_single_entry_class(self):
        support = SupportSet.from_classifier(np.array([[1.0, 2, 3], [4, 5, 6]]), 5)
        protos = compute_prototypes(support, k=5)
        np.testing.assert_array_equal(protos, [[1.0, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(support.class_counts(), [1, 1])

    def test_lowest_entropy_wins(self):
        support = SupportSet(2, 2, 3)
        update_support(support, np.array([[1.0, 0.0]]), np.array([[5.0, 0.0]]),
                       [0.1], [0])
        update_support(support, np.array([[0.0, 1.0]]), np.array([[5.0, 0.0]]),
                       [0.9], [0])
        update_support(support, np.array([[7.0, 7.0]]), np.array([[0.0, 5.0]]),
                       [0.2], [1])
        protos = compute_prototypes(support, k=1)
        np.testing.assert_array_equal(protos[0], [1.0, 0.0])

    def test_twenty_entry_class_matches_oracle_exactly(self):
        rng = np.random.default_rng(9)
        support, history = seeded_support(rng.normal(size=(1, 6)), 5)
        for _ in range(20):
            insert(support, history, rng.normal(size=(1, 6)), np.array([[1.0]]),
                   [float(rng.uniform(0, 2))], [0])
        protos = compute_prototypes(support, k=5)
        np.testing.assert_array_equal(protos, prototypes_oracle(history, 5))

    def test_ties_break_by_insertion_order(self):
        support = SupportSet(1, 1, 2)
        for value in (1.0, 2.0, 3.0):
            update_support(support, np.array([[value]]), np.array([[1.0]]),
                           [0.5], [0])
        protos = compute_prototypes(support, k=2)
        # equal entropies: the two earliest entries are kept
        np.testing.assert_array_equal(protos, [[1.5]])

    def test_many_random_sets_match_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            support, history = random_support_set(rng)
            k = int(rng.integers(1, 8))
            protos = compute_prototypes(support, k)
            np.testing.assert_array_equal(protos, prototypes_oracle(history, k))

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            compute_prototypes(SupportSet.from_classifier(np.eye(2), 3), 0)


class TestBoundedStore:
    """The store keeps at most k rows per class and still gives the prototypes
    of the full history, which the test records itself."""

    def test_long_stream_matches_full_history_oracle(self):
        rng = np.random.default_rng(14)
        n_classes, feature_dim, bound = 3, 4, 6
        support, history = seeded_support(rng.normal(size=(n_classes, feature_dim)), bound)
        for _ in range(200):
            b = int(rng.integers(1, 9))
            labels = rng.integers(0, n_classes, size=b)
            logits = rng.normal(size=(b, n_classes))
            logits[np.arange(b), labels] += 10.0
            # half the rows take one of three levels, forcing ties; a 0 ties
            # the classifier-init row
            entropies = np.where(rng.random(b) < 0.5,
                                 rng.choice([0.0, 0.3, 0.7], size=b),
                                 rng.uniform(0.0, 2.0, size=b))
            insert(support, history, rng.normal(size=(b, feature_dim)), logits,
                   entropies, labels)
            np.testing.assert_array_equal(
                support.class_counts(), [min(len(rows), bound) for rows in history]
            )
            for k in range(1, bound + 1):
                protos = compute_prototypes(support, k)
                np.testing.assert_array_equal(protos, prototypes_oracle(history, k))
        assert len(support) == n_classes * bound
        assert sum(len(rows) for rows in history) > 10 * len(support)

    def test_k_above_the_bound_rejected(self):
        support = SupportSet.from_classifier(np.eye(2), 3)
        compute_prototypes(support, 3)
        with pytest.raises(ContractError):
            compute_prototypes(support, 4)

    def test_bound_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SupportSet(2, 2, 0)


# ---------------------------------------------------------------------------
# prototype logits and entropy comparison
# ---------------------------------------------------------------------------

class TestPrototypeLogits:
    def test_orthogonal_two_class_case(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = prototype_logits(np.array([[1.0, 0.0]]), protos, eta=1.0)
        np.testing.assert_allclose(
            p.data, [[0.7310585786300049, 0.2689414213699951]], atol=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        protos = rng.normal(size=(4, 6))
        f = rng.normal(size=(3, 6))
        base = prototype_logits(f, protos, eta=7.0).data
        for alpha in (0.01, 5.0, 300.0):
            np.testing.assert_allclose(
                prototype_logits(alpha * f, protos, eta=7.0).data, base, atol=1e-12
            )

    def test_sharpening_limit(self):
        rng = np.random.default_rng(12)
        protos = rng.normal(size=(3, 5))
        p = prototype_logits(rng.normal(size=(4, 5)), protos, eta=100.0).data
        assert np.all(p.max(axis=1) > 0.99)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        protos = rng.normal(size=(5, 8))
        p = prototype_logits(rng.normal(size=(40, 8)), protos, eta=20.0).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_eta_must_be_positive(self):
        protos = np.eye(2)
        with pytest.raises(ConfigurationError):
            prototype_logits(np.eye(2), protos, eta=0.0)


class TestEntropyCompare:
    def test_strict_inequality_keeps_ensemble(self):
        p_ens = np.array([[3.0, 0.0]])
        p_proto = np.array([[0.2, 0.8]])
        p_out, yhat = entropy_compare(p_ens, [0.1], p_proto, [0.5])
        np.testing.assert_array_equal(p_out.data, p_ens)
        assert yhat[0] == 0

    def test_tie_goes_to_prototype(self):
        p_ens = np.array([[3.0, 0.0]])
        p_proto = np.array([[0.2, 0.8]])
        p_out, yhat = entropy_compare(p_ens, [0.5], p_proto, [0.5])
        np.testing.assert_array_equal(p_out.data, p_proto)
        assert yhat[0] == 1

    def test_mixed_batch_matches_rowwise_oracle(self):
        rng = np.random.default_rng(14)
        p_ens = rng.normal(size=(4, 3))
        p_proto = rng.normal(size=(4, 3))
        h_ens = np.array([0.1, 0.9, 0.5, 0.5])
        h_proto = np.array([0.5, 0.5, 0.5, 0.1])
        p_out, yhat = entropy_compare(p_ens, h_ens, p_proto, h_proto)
        for i in range(4):
            expected = p_ens[i] if h_ens[i] < h_proto[i] else p_proto[i]
            np.testing.assert_array_equal(p_out.data[i], expected)
            assert yhat[i] == expected.argmax()

    def test_selected_row_entropy_is_the_minimum(self):
        rng = np.random.default_rng(15)
        p_ens = rng.normal(0, 4, size=(500, 4))
        p_proto = rng.normal(0, 4, size=(500, 4))
        h_ens = shannon_entropy(p_ens)
        h_proto = shannon_entropy(p_proto)
        p_out, _ = entropy_compare(p_ens, h_ens, p_proto, h_proto)
        np.testing.assert_allclose(
            shannon_entropy(p_out.data), np.minimum(h_ens, h_proto), atol=1e-12
        )


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

class TestContrastiveLoss:
    def test_all_same_label_is_zero(self):
        rng = np.random.default_rng(16)
        loss = contrastive_loss(Tensor(rng.normal(size=(6, 4))), np.zeros(6, dtype=int), 0.7)
        assert loss.item() == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_valid_anchor_is_an_untracked_constant(self, dtype):
        # one class (every anchor lacks a negative) or one sample per class
        # (every anchor lacks a positive): the loss depends on no parameter
        rng = np.random.default_rng(22)
        for labels in (np.zeros(6, dtype=int), np.array([0, 1])):
            p = Tensor(rng.normal(size=(len(labels), 3)).astype(dtype), requires_grad=True)
            loss = contrastive_loss(p, labels, 0.7)
            assert loss.item() == 0.0 and not loss.requires_grad
            assert loss.data.dtype == dtype and loss.shape == ()
            assert len(ad.active_graph()) == 0

    def test_no_positives_is_zero(self):
        # one sample, two classes across the two views
        rng = np.random.default_rng(17)
        loss = contrastive_loss(Tensor(rng.normal(size=(2, 3))), np.array([0, 1]), 0.7)
        assert loss.item() == 0.0

    def test_two_sample_case_matches_double_loop(self):
        p = np.array([[1.0, 0.2, -0.3],
                      [0.4, -1.0, 0.8],
                      [0.9, 0.1, -0.2],
                      [0.3, -0.8, 0.7]])
        labels = np.array([0, 1, 0, 1])
        loss = contrastive_loss(Tensor(p), labels, tau=0.5)
        assert loss.item() == pytest.approx(contrastive_oracle(p, labels, 0.5), abs=1e-12)

    def test_random_batches_match_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            b = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            p = rng.normal(size=(2 * b, c))
            labels = rng.integers(0, c, size=2 * b)
            tau = float(rng.uniform(0.1, 0.9))
            loss = contrastive_loss(Tensor(p), labels, tau)
            assert loss.item() == pytest.approx(
                contrastive_oracle(p, labels, tau), abs=1e-10
            )

    def test_invariant_to_anchor_permutation(self):
        rng = np.random.default_rng(19)
        p = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        base = contrastive_loss(Tensor(p), labels, 0.7).item()
        for _ in range(5):
            perm = rng.permutation(8)
            shuffled = contrastive_loss(Tensor(p[perm]), labels[perm], 0.7).item()
            assert shuffled == pytest.approx(base, abs=1e-10)

    def test_monotone_in_pair_cosines(self):
        # at the cosine-matrix level: raising one positive-pair similarity
        # lowers the loss, raising one negative-pair similarity raises it
        rng = np.random.default_rng(20)
        labels = np.array([0, 0, 1, 1])
        sims = cos_matrix(rng.normal(size=(4, 5)))
        base = contrastive_loss_from_cos(sims, labels, 0.7)
        up_pos = sims.copy()
        up_pos[0, 1] += 0.05
        up_pos[1, 0] += 0.05
        assert contrastive_loss_from_cos(up_pos, labels, 0.7) < base
        up_neg = sims.copy()
        up_neg[0, 2] += 0.05
        up_neg[2, 0] += 0.05
        assert contrastive_loss_from_cos(up_neg, labels, 0.7) > base

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        p = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        labels = rng.integers(0, 3, size=8)
        assert finite_difference_max_rel_error(
            lambda: contrastive_loss(p, labels, 0.7), [p]
        ) < 1e-4

    def test_invalid_temperature(self):
        with pytest.raises(ConfigurationError):
            contrastive_loss(Tensor(np.zeros((2, 2))), np.array([0, 1]), 0.0)
