"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import inspect
import time

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
    shannon_entropy,
    update_support,
)
from tsadapt.adapt import AdaptState, accup_batch, adapt_batch, run_stream
from tsadapt.augment import AugmentSpec, apply_augment, magnitude_warp
from tsadapt.autodiff import Tensor
from tsadapt.backbone import EncoderConfig, Model, pretrain_source
from tsadapt.baselines import StrategyConfig
from tsadapt.data import TimeSeriesBatch, generate_shifted_pair, make_stream
from tsadapt.errors import ContractError
from tsadapt.experiment import HYPERPARAM_PRESETS, default_synthetic_scenario
from tsadapt.metrics import macro_f1

from conftest import finite_difference_max_rel_error, tiny_model


class _report:
    """Print one `criterion N: PASS/FAIL` line when the block exits."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"\nacceptance criterion {self.number:>2}: {status} — {self.description}")
        return False


# ---------------------------------------------------------------------------
# independent oracles (restated here so the gate is self-contained)
# ---------------------------------------------------------------------------

def prototypes_oracle(history, k):
    """Sort each class's full recorded history of (feature, entropy) rows."""
    mu = np.zeros((len(history), len(history[0][0][0])))
    for c, rows in enumerate(history):
        order = sorted(range(len(rows)), key=lambda i: (rows[i][1], i))[:k]
        mu[c] = np.mean([rows[i][0] for i in order], axis=0)
    return mu


def random_support_set(rng, n_classes, feature_dim, max_entries=25, bound=11):
    """A support set bounded at the largest k criterion 01 draws, plus the
    history of every row inserted into each class."""
    weight = rng.normal(size=(n_classes, feature_dim))
    support = SupportSet.from_classifier(weight, bound)
    history = [[(row, 0.0)] for row in weight]
    for c in range(n_classes):
        for _ in range(int(rng.integers(0, max_entries))):
            logits = rng.normal(size=n_classes)
            logits[c] += 10.0
            feature = rng.normal(size=(1, feature_dim))
            entropy = float(rng.uniform(0.0, 2.0))
            update_support(support, feature, logits[None], [entropy], [c])
            history[c].append((feature[0], entropy))
    return support, history


def contrastive_oracle(p, labels, tau):
    p = np.asarray(p)
    norms = np.linalg.norm(p, axis=1)
    unit = np.where(norms[:, None] == 0.0, 0.0,
                    p / np.where(norms == 0.0, 1.0, norms)[:, None])
    sims = unit @ unit.T
    n = len(labels)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [k for k in range(n) if labels[k] != labels[i]]
        if not pos or not neg:
            continue
        denom = sum(np.exp(sims[i, k] / tau) for k in neg)
        total += -sum(np.log(np.exp(sims[i, j] / tau) / denom) for j in pos) / len(pos)
    return total


def macro_f1_oracle(predictions, truth, n_classes):
    cm = np.zeros((n_classes, n_classes), dtype=int)
    for p, t in zip(predictions, truth):
        cm[t, p] += 1
    f1 = np.zeros(n_classes)
    for c in range(n_classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1[c] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f1.mean()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_prototype_oracle_equivalence():
    with _report(1, "compute_prototypes matches the sort-and-mean oracle on "
                    "1000 random support sets, exactly, in under 10 s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            n_classes = int(rng.integers(2, 7))
            feature_dim = int(rng.integers(2, 10))
            support, history = random_support_set(rng, n_classes, feature_dim)
            k = int(rng.integers(1, 12))
            protos = compute_prototypes(support, k)
            np.testing.assert_array_equal(protos, prototypes_oracle(history, k))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_contrastive_oracle_equivalence():
    with _report(2, "contrastive_loss matches the exhaustive double-loop "
                    "oracle on 200 random batches within 1e-10"):
        rng = np.random.default_rng(202)
        for _ in range(200):
            b = int(rng.integers(1, 9))
            c = int(rng.integers(2, 6))
            tau = float(rng.uniform(0.1, 0.9))
            logits = rng.normal(0.0, 2.0, size=(2 * b, c))
            labels = rng.integers(0, c, size=2 * b)
            value = contrastive_loss(Tensor(logits), labels, tau).item()
            assert abs(value - contrastive_oracle(logits, labels, tau)) < 1e-10


def test_criterion_03_gradient_integrity():
    with _report(3, "finite differences on the full adaptation loss over every "
                    "trainable encoder parameter, max rel. error < 1e-4"):
        # B=4 gives two pseudo-label classes and a non-zero loss; B=2 gives
        # one class, whose loss is a constant 0.0 with a zero gradient. At
        # B >= 6 the finite-difference round-off on conv-bias coordinates
        # whose true gradient is 0 reaches the 1e-6 floor.
        for batch in (4, 2):
            model = tiny_model(n_classes=3, in_channels=2, seed=42)
            x_raw = np.random.default_rng(303).normal(size=(batch, 2, 16))
            config = AccupConfig(k_support=5, eta=20.0, tau=0.7, lr=0.0)
            x_aug = apply_augment(x_raw, config.augment, np.random.default_rng(7))

            # prototypes frozen from a small warmed-up support set: the loss
            # is then a pure function of the encoder parameters
            support = SupportSet.from_classifier(model.cls_weight.data, config.k_support)
            with ad.no_grad():
                accup_batch(model, x_raw, x_aug, config, support=support)
            prototypes = compute_prototypes(support, config.k_support)

            def loss_fn():
                _, loss = accup_batch(model, x_raw, x_aug, config,
                                      prototypes=prototypes)
                return loss

            with ad.no_grad():
                pseudo, loss = accup_batch(model, x_raw, x_aug, config,
                                           prototypes=prototypes)
            if batch == 4:
                assert len(set(pseudo.tolist())) >= 2, f"one class: {pseudo}"
                assert loss.item() != 0.0
            else:
                assert len(set(pseudo.tolist())) == 1 and loss.item() == 0.0

            params = list(model.encoder_parameters().values())
            n_params = sum(p.size for p in params)
            err = finite_difference_max_rel_error(loss_fn, params)
            assert err < 1e-4, f"B={batch}: max rel error {err:.3e} over {n_params} parameters"


def test_criterion_04_entropy_comparison_contract():
    with _report(4, "on 10000 random rows entropy(softmax(p_out)) equals "
                    "min(H_ens, H_proto) within 1e-12, ties to the prototype"):
        rng = np.random.default_rng(404)
        p_ens = rng.normal(0.0, 4.0, size=(9_500, 5))
        p_proto = rng.normal(0.0, 4.0, size=(9_500, 5))
        h_ens = shannon_entropy(p_ens)
        h_proto = shannon_entropy(p_proto)
        p_out, yhat = entropy_compare(p_ens, h_ens, p_proto, h_proto)
        np.testing.assert_allclose(
            shannon_entropy(p_out.data), np.minimum(h_ens, h_proto), atol=1e-12
        )
        np.testing.assert_array_equal(yhat, p_out.data.argmax(axis=1))

        # exact ties: reversing a two-logit row preserves the entropy bitwise
        # (two-term sums commute) while flipping the argmax
        t_ens = rng.normal(0.0, 4.0, size=(500, 2))
        t_proto = t_ens[:, ::-1].copy()
        th_ens = shannon_entropy(t_ens)
        th_proto = shannon_entropy(t_proto)
        np.testing.assert_array_equal(th_ens, th_proto)
        t_out, t_yhat = entropy_compare(t_ens, th_ens, t_proto, th_proto)
        np.testing.assert_allclose(
            shannon_entropy(t_out.data), np.minimum(th_ens, th_proto), atol=1e-12
        )
        np.testing.assert_array_equal(t_out.data, t_proto)
        np.testing.assert_array_equal(t_yhat, t_proto.argmax(axis=1))


def test_criterion_05_reduction_identities(pretrained, shift_data):
    with _report(5, "switches off + lr=0 reproduces Source bitwise; TENT at "
                    "lr=0 equals BN-stats bitwise; w=0.5 ensemble is the "
                    "plain average bitwise"):
        _, target = shift_data
        stream = make_stream(target, 32)

        reduced = run_stream(
            pretrained, stream,
            AccupConfig(use_prototypes=False, use_entropy_comparison=False,
                        use_augmentation=False, use_contrast=False,
                        lr=0.0, bn_policy="running"),
            seed=0,
        )
        source = run_stream(pretrained, stream, StrategyConfig("source"))
        assert reduced.batch_predictions == source.batch_predictions

        tent0 = run_stream(pretrained, stream, StrategyConfig("tent", lr=0.0))
        bn = run_stream(pretrained, stream, StrategyConfig("bn-stats"))
        assert tent0.batch_predictions == bn.batch_predictions

        rng = np.random.default_rng(505)
        f_raw, f_aug = rng.normal(size=(16, 12)), rng.normal(size=(16, 12))
        p_raw, p_aug = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        f_ens, p_ens = ensemble(Tensor(f_raw), Tensor(p_raw),
                                Tensor(f_aug), Tensor(p_aug), 0.5)
        np.testing.assert_array_equal(f_ens.data, (f_raw + f_aug) / 2.0)
        np.testing.assert_array_equal(p_ens.data, (p_raw + p_aug) / 2.0)


def test_criterion_06_synthetic_shift_recovery():
    with _report(6, "amplitude x3 + noise 0.5 shift, 3 seeds: adaptation beats "
                    "Source by >= 5 macro-F1 points and is >= BN-stats, each "
                    "full run under 5 minutes"):
        scenario = default_synthetic_scenario()
        train, target = generate_shifted_pair(
            scenario.source, scenario.target,
            (scenario.n_source, scenario.n_target), seed=scenario.gen_seed,
        )
        stream = make_stream(target, 32)
        config = AccupConfig(**HYPERPARAM_PRESETS["synthetic"])
        encoder = EncoderConfig(in_channels=2, filters=(16, 24, 24))

        source_scores, bn_scores, adapted_scores = [], [], []
        for seed in (0, 1, 2):
            start = time.perf_counter()
            model = Model(encoder, scenario.source.n_classes, seed=seed)
            pretrain_source(model, train.values, train.labels, epochs=40,
                            batch_size=32, lr=1e-3, seed=seed)
            adapted_scores.append(run_stream(model, stream, config, seed=seed).macro_f1)
            full_run = time.perf_counter() - start
            assert full_run < 300.0, f"seed {seed} took {full_run:.1f}s"
            source_scores.append(
                run_stream(model, stream, StrategyConfig("source")).macro_f1)
            bn_scores.append(
                run_stream(model, stream, StrategyConfig("bn-stats")).macro_f1)

        source_mean = np.mean(source_scores)
        bn_mean = np.mean(bn_scores)
        adapted_mean = np.mean(adapted_scores)
        print(f"\n  source={source_mean:.4f} bn-stats={bn_mean:.4f} "
              f"adapted={adapted_mean:.4f} (per seed {np.round(adapted_scores, 4)})")
        assert adapted_mean >= source_mean + 0.05, (
            f"adapted {adapted_mean:.4f} vs source {source_mean:.4f}")
        assert adapted_mean >= bn_mean, (
            f"adapted {adapted_mean:.4f} vs bn-stats {bn_mean:.4f}")


def test_criterion_07_streaming_discipline(pretrained, shift_data):
    with _report(7, "prefix causality over 20 random truncations, single-pass "
                    "consumption, and labels unreachable from adaptation"):
        _, target = shift_data
        stream = make_stream(target, 32)
        config = AccupConfig(k_support=10, eta=20.0, tau=0.7, lr=1e-3)
        full = run_stream(pretrained, stream, config, seed=1)
        rng = np.random.default_rng(707)
        for _ in range(20):
            t = int(rng.integers(1, len(stream) + 1))
            prefix = run_stream(pretrained, stream[:t], config, seed=1)
            assert prefix.batch_predictions == full.batch_predictions[:t]

        consumed = []

        def counted():
            for i, b in enumerate(stream):
                consumed.append(i)
                yield b

        run_stream(pretrained, counted(), config, seed=1)
        assert consumed == list(range(len(stream)))

        # type-level: the adaptation entry point takes bare value arrays and
        # rejects labeled batches outright
        sig = inspect.signature(adapt_batch)
        assert sig.parameters["values"].annotation in ("np.ndarray", np.ndarray)
        state = AdaptState(pretrained.clone(), config, seed=0)
        with pytest.raises(ContractError):
            adapt_batch(state, TimeSeriesBatch(target.values[:4], target.labels[:4]))

        # and scoring labels cannot influence predictions
        shuffled = [TimeSeriesBatch(b.values,
                                    np.random.default_rng(0).permutation(b.labels))
                    for b in stream]
        relabeled = run_stream(pretrained, shuffled, config, seed=1)
        assert relabeled.batch_predictions == full.batch_predictions


def test_criterion_08_ablation_wiring(pretrained, shift_data, accup_calls):
    with _report(8, "each ablation preset makes its module verifiably inert"):
        _, target = shift_data
        stream = make_stream(target, 32)[:5]
        batch = target.values[:32]

        # no-contrast: zero gradient, parameters bitwise frozen
        config = AccupConfig(use_contrast=False, lr=1e-3)
        state = AdaptState(pretrained.clone(), config, seed=0)
        before = np.concatenate([p.data.ravel()
                                 for p in state.model.named_parameters().values()])
        for b in stream:
            adapt_batch(state, b.values)
        after = np.concatenate([p.data.ravel()
                                for p in state.model.named_parameters().values()])
        np.testing.assert_array_equal(before, after)

        # no-entcomp: no comparison runs, the ensemble logits give the
        # predictions, and the loss contrasts the unfused view logits
        config = AccupConfig(use_entropy_comparison=False, lr=0.0)
        state = AdaptState(pretrained.clone(), config, seed=0)
        accup_calls.clear()
        with ad.no_grad():
            preds, _ = accup_batch(state.model, batch,
                                   apply_augment(batch, config.augment, state.rng),
                                   config, support=state.support)
        assert accup_calls["entropy_compare"] == []
        ((ens_args, (_, p_ens)),) = accup_calls["ensemble"]
        np.testing.assert_array_equal(preds, p_ens.data.argmax(axis=1))
        ((loss_args, _),) = accup_calls["contrastive_loss"]
        np.testing.assert_array_equal(
            loss_args[0].data, np.concatenate([ens_args[1].data, ens_args[3].data]))

        # no-augmentation: the pipeline behaves exactly as if the augmented
        # view were a bitwise copy of the raw view, and no noise is drawn
        config_off = AccupConfig(use_augmentation=False, lr=0.0)
        config_dup = AccupConfig(use_augmentation=True, lr=0.0)
        m_off, m_dup = pretrained.clone(), pretrained.clone()
        support_off = SupportSet.from_classifier(m_off.cls_weight.data, config_off.k_support)
        support_dup = SupportSet.from_classifier(m_dup.cls_weight.data, config_dup.k_support)
        accup_calls.clear()
        preds_off, loss_off = accup_batch(m_off, batch, None, config_off,
                                          support=support_off)
        calls_off = dict(accup_calls)
        accup_calls.clear()
        preds_dup, loss_dup = accup_batch(m_dup, batch, batch.copy(), config_dup,
                                          support=support_dup)
        calls_dup = dict(accup_calls)
        ad.active_graph().clear()
        ((upd_off, _),) = calls_off["update_support"]
        ((upd_dup, _),) = calls_dup["update_support"]
        np.testing.assert_array_equal(upd_off[1], upd_dup[1])  # ensemble features
        np.testing.assert_array_equal(upd_off[2], upd_dup[2])  # ensemble logits
        np.testing.assert_array_equal(calls_off["entropy_compare"][0][1][0].data,
                                      calls_dup["entropy_compare"][0][1][0].data)  # p_out
        np.testing.assert_array_equal(preds_off, preds_dup)
        assert loss_off.item() == loss_dup.item()
        state = AdaptState(pretrained.clone(), config_off, seed=3)
        rng_before = state.rng.bit_generator.state
        adapt_batch(state, batch)
        assert state.rng.bit_generator.state == rng_before

        # no-prototypes: ensemble-only predictions, no support set at all
        config = AccupConfig(use_prototypes=False, lr=0.0)
        state = AdaptState(pretrained.clone(), config, seed=0)
        assert state.support is None
        accup_calls.clear()
        preds, _, state = adapt_batch(state, batch)
        for name in ("update_support", "compute_prototypes", "prototype_logits",
                     "entropy_compare"):
            assert accup_calls[name] == [], name
        ((_, (_, p_ens)),) = accup_calls["ensemble"]
        np.testing.assert_array_equal(preds, p_ens.data.argmax(axis=1))


def test_criterion_09_augmentation_correctness():
    with _report(9, "magnitude warp: sigma=0 is a bitwise identity; the "
                    "sigma=0.2 warp-curve mean over 10000 draws is in "
                    "[0.99, 1.01]"):
        rng = np.random.default_rng(909)
        x = rng.normal(size=(12, 3, 48))
        out = magnitude_warp(x, AugmentSpec(kind="magnitude-warp", sigma=0.0),
                             np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

        curves = magnitude_warp(np.ones((10_000, 1, 64)),
                                AugmentSpec(kind="magnitude-warp", sigma=0.2),
                                np.random.default_rng(2))
        mean = curves.mean()
        assert 0.99 <= mean <= 1.01, f"warp-curve mean {mean:.5f}"


def test_criterion_10_metric_correctness():
    with _report(10, "macro_f1 equals the confusion-matrix oracle on 1000 "
                     "random label vectors, exactly"):
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            c = int(rng.integers(2, 8))
            n = int(rng.integers(1, 80))
            preds = rng.integers(0, c, size=n)
            truth = rng.integers(0, c, size=n)
            assert macro_f1(preds, truth, c).macro_f1 == macro_f1_oracle(preds, truth, c)
