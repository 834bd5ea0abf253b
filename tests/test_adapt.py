"""Streaming-loop tests: single-pass discipline, causality, reductions.

The stream-discipline tests of TestRunStream run every strategy in
experiment.STRATEGIES through the one loop.
"""

import copy
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

import tsadapt.accup as acc
import tsadapt.adapt as adapt
import tsadapt.autodiff as ad
from tsadapt.accup import AccupConfig
from tsadapt.adapt import (
    AdaptState,
    LayerMask,
    RunRecord,
    accup_batch,
    adapt_batch,
    run_stream,
)
from tsadapt.augment import apply_augment
from tsadapt.baselines import StrategyConfig
from tsadapt.data import TimeSeriesBatch, make_stream
from tsadapt.errors import (
    ConfigurationError,
    ConformanceError,
    ContractError,
    DegenerateBatchError,
    NumericDomainError,
)
from tsadapt.experiment import ABLATION_PRESETS, STRATEGIES, apply_preset


def quiet_config(**overrides):
    base = dict(k_support=10, eta=20.0, tau=0.7, lr=0.0)
    base.update(overrides)
    return AccupConfig(**base)


def stepping_config(strategy: str):
    """A config under which the named strategy updates its model."""
    if strategy == "accup":
        return quiet_config(use_contrast=True, lr=1e-3)
    return StrategyConfig(strategy, lr=1e-3)


def param_vector(model):
    return np.concatenate([p.data.ravel() for p in model.named_parameters().values()])


def unreached_ops(loss):
    """Ops on the tape whose output the loss does not depend on."""
    reached, missed = {id(loss)}, []
    for op, inputs, out, _ in reversed(ad.active_graph().nodes):
        if id(out) in reached:
            reached.update(id(t) for t in inputs)
        else:
            missed.append(op)
    return missed


class TestLayerMask:
    def test_needs_one_trainable_block(self):
        with pytest.raises(ConfigurationError):
            LayerMask(False, False, False)

    def test_masked_blocks_stay_out_of_the_optimizer(self, pretrained):
        config = quiet_config(lr=1e-3)
        state = AdaptState(pretrained.clone(), config, LayerMask(False, False, True))
        names = set(state.model.encoder_parameters((False, False, True)))
        assert len(state.optimizer.params) == len(names)


class TestAdaptBatch:
    def test_zero_lr_is_a_noop_step_with_predictions(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=True, lr=0.0))
        before = param_vector(state.model)
        preds, loss, state = adapt_batch(state, target.values[:32])
        assert preds.shape == (32,)
        assert np.isfinite(loss)
        np.testing.assert_array_equal(param_vector(state.model), before)

    def test_nonzero_lr_moves_parameters(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=True, lr=3e-4))
        before = param_vector(state.model)
        batch = target.values[:32]
        adapt_batch(state, batch)
        adapt_batch(state, batch)  # same batch again: adaptation occurred
        delta = np.linalg.norm(param_vector(state.model) - before)
        assert delta > 0.0

    def test_documented_learning_rates_accepted(self):
        AccupConfig(lr=3e-4)
        AccupConfig(lr=1e-5)

    def test_classifier_parameters_never_move(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=True, lr=1e-3))
        w_before = state.model.cls_weight.data.copy()
        b_before = state.model.cls_bias.data.copy()
        for start in (0, 32, 64):
            adapt_batch(state, target.values[start:start + 32])
        np.testing.assert_array_equal(state.model.cls_weight.data, w_before)
        np.testing.assert_array_equal(state.model.cls_bias.data, b_before)

    def test_one_optimizer_step_per_batch(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=True, lr=1e-4))
        for i, start in enumerate((0, 32, 64)):
            adapt_batch(state, target.values[start:start + 32])
            assert state.optimizer.t == i + 1
            assert state.step == i + 1

    def test_one_class_batch_steps_adam_without_a_backward(self, pretrained, shift_data):
        # a one-class loss is a constant: no backward runs, and the Adam step
        # reads the None gradients as zeros, as a zero-gradient step would
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=True, lr=1e-3))
        preds, loss, _ = adapt_batch(state, target.values[:32])
        assert len(set(preds.tolist())) >= 2 and loss != 0.0
        assert any(p.grad is not None for p in state.optimizer.params)
        twin = copy.deepcopy(state)
        for p in twin.optimizer.params:
            p.grad = np.zeros_like(p.data)
        twin.optimizer.step()

        preds, loss, _ = adapt_batch(state, target.values[32:33])
        assert preds.shape == (1,) and loss == 0.0
        assert len(ad.active_graph()) == 0
        assert all(p.grad is None for p in state.optimizer.params)
        assert state.optimizer.t == twin.optimizer.t == 2
        np.testing.assert_array_equal(param_vector(state.model), param_vector(twin.model))
        np.testing.assert_array_equal(state.optimizer._m, twin.optimizer._m)
        np.testing.assert_array_equal(state.optimizer._v, twin.optimizer._v)

    def test_batch_of_one_stream_steps_once_per_batch(self, pretrained, shift_data):
        # both views of a lone sample share its pseudo-label: every batch is
        # one-class, forward-only, and still takes its Adam step
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=True, lr=1e-3))
        for i, batch in enumerate(make_stream(target, 1)[:5]):
            _, loss, state = adapt_batch(state, batch.values)
            assert loss == 0.0 and len(ad.active_graph()) == 0
            assert state.optimizer.t == state.step == i + 1

    def test_disabling_contrast_freezes_parameters(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=False, lr=1e-3))
        before = param_vector(state.model)
        for start in (0, 32, 64):
            adapt_batch(state, target.values[start:start + 32])
        np.testing.assert_array_equal(param_vector(state.model), before)
        # no loss, so no Adam step is taken; the run still counts its batches
        assert state.optimizer.t == 0
        assert state.step == 3

    def test_labeled_batches_are_rejected(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config())
        labeled = TimeSeriesBatch(target.values[:8], target.labels[:8])
        with pytest.raises(ContractError):
            adapt_batch(state, labeled)

    def test_channel_mismatch_rejected(self, pretrained):
        # checked before ACCUP augments, so every strategy fails alike, on a
        # 2-D batch as on a wrong channel count
        for strategy in STRATEGIES:
            state = AdaptState(pretrained.clone(), stepping_config(strategy))
            for batch in (np.zeros((4, 64)), np.zeros((4, 5, 64))):
                with pytest.raises(ConformanceError, match=r"^step 0: batch shape \("):
                    adapt_batch(state, batch)
            assert state.step == 0 and len(ad.active_graph()) == 0, strategy

    def test_support_set_stays_bounded(self, pretrained, shift_data):
        _, target = shift_data
        config = quiet_config(use_contrast=True, lr=1e-3)
        state = AdaptState(pretrained.clone(), config)
        for i in range(20):
            adapt_batch(state, target.values[16 * i:16 * (i + 1)])
        assert len(state.support) <= pretrained.n_classes * config.k_support

    def test_tape_holds_only_the_loss_graph(self, pretrained, shift_data):
        # the ensemble, prototypes and entropy comparison only choose
        # pseudo-labels; none of their ops may sit on the tape
        _, target = shift_data
        config = apply_preset(AccupConfig(), "synthetic")
        model = pretrained.clone()
        support = acc.SupportSet.from_classifier(model.cls_weight.data, config.k_support)
        batch = target.values[:32]
        x_aug = apply_augment(batch, config.augment, np.random.default_rng(0))
        try:
            _, loss = accup_batch(model, batch, x_aug, config, support=support)
            assert unreached_ops(loss) == []
        finally:
            ad.active_graph().clear()

        quiet = replace(config, use_contrast=False)
        _, loss = accup_batch(model, batch, x_aug, quiet, support=support)
        assert loss is None and len(ad.active_graph()) == 0
        adapt_batch(AdaptState(pretrained.clone(), quiet), batch)
        assert len(ad.active_graph()) == 0

    def test_raising_step_leaves_the_tape_empty(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), quiet_config(tau=1e-3))
        with pytest.raises(NumericDomainError,
                           match="^step 0: exp: result contains non-finite values$"):
            adapt_batch(state, target.values[:32])
        assert len(ad.active_graph()) == 0

    def test_prototype_call_contract(self, pretrained, shift_data, monkeypatch):
        # perfbench/tracer.py wraps compute_prototypes and reads (support, k)
        # positionally, then support.class_counts()
        _, target = shift_data
        calls = []
        compute = acc.compute_prototypes

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return compute(*args, **kwargs)

        monkeypatch.setattr(acc, "compute_prototypes", recorder)
        state = AdaptState(pretrained.clone(), quiet_config(use_contrast=True))
        adapt_batch(state, target.values[:16])
        ((args, kwargs),) = calls
        assert kwargs == {}
        support, k = args
        assert support is state.support and k == state.config.k_support
        counts = support.class_counts()
        assert counts.shape == (pretrained.n_classes,) and counts.sum() == len(support)

    def test_state_call_contract(self, pretrained):
        # perfbench/workloads.py builds AdaptState(model, config, None, seed)
        # positionally, for ACCUP and for every baseline
        for config in (quiet_config(), StrategyConfig("tent")):
            state = AdaptState(pretrained.clone(), config, None, 7)
            assert state.config is config and state.layer_mask == LayerMask()
            assert state.rng.bit_generator.state == np.random.default_rng(7).bit_generator.state

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stream_step_call_contract(self, strategy, pretrained, shift_data, monkeypatch):
        # perfbench/tracer.py times every batch through the module attribute
        # adapt.adapt_batch, and names a baseline's span from the first
        # argument of baseline_adapt_batch: "baselines.<config.kind>.batch"
        _, target = shift_data
        steps, baseline_steps = [], []

        def recording(calls, fn):
            def recorder(*args, **kwargs):
                calls.append((args, kwargs))
                return fn(*args, **kwargs)
            return recorder

        monkeypatch.setattr(adapt, "adapt_batch", recording(steps, adapt.adapt_batch))
        monkeypatch.setattr(adapt, "baseline_adapt_batch",
                            recording(baseline_steps, adapt.baseline_adapt_batch))
        run_stream(pretrained, make_stream(target, 32)[:3], stepping_config(strategy))
        assert len(steps) == 3
        if strategy == "accup":
            assert baseline_steps == []
        else:
            assert len(baseline_steps) == 3
            for args, kwargs in baseline_steps:
                assert kwargs == {} and args[0].config.kind == strategy


def contract_configs():
    """The four baselines, and ACCUP under each ablation preset and BN policy."""
    configs = [pytest.param(StrategyConfig(kind, lr=1e-3), id=kind)
               for kind in STRATEGIES if kind != "accup"]
    for policy in ("batch", "running"):
        base = quiet_config(use_contrast=True, lr=1e-3, bn_policy=policy)
        configs.append(pytest.param(base, id=f"accup-{policy}-bn"))
        configs.extend(pytest.param(apply_preset(base, preset), id=f"accup-{policy}-bn-{preset}")
                       for preset in ABLATION_PRESETS)
    return configs


class TestStepContract:
    """Every strategy's step returns (predictions, loss tensor or None)."""

    @pytest.mark.parametrize("config", contract_configs())
    def test_predictions_and_loss(self, config, pretrained, shift_data, monkeypatch):
        _, target = shift_data
        returned = []

        def recording(fn):
            def recorder(*args, **kwargs):
                returned.append(fn(*args, **kwargs))
                return returned[-1]
            return recorder

        for name in ("accup_batch", "baseline_adapt_batch"):
            monkeypatch.setattr(adapt, name, recording(getattr(adapt, name)))
        state = AdaptState(pretrained.clone(), config)
        preds_out, loss_value, _ = adapt_batch(state, target.values[:16])
        ((preds, loss),) = returned
        assert isinstance(preds, np.ndarray) and preds.shape == (16,)
        assert np.issubdtype(preds.dtype, np.integer)
        assert preds_out is preds
        steps = config.takes_step() if isinstance(config, StrategyConfig) else config.use_contrast
        if steps:
            assert isinstance(loss, ad.Tensor) and loss.shape == ()
            assert loss_value == loss.item()
        else:
            assert loss is None and loss_value == 0.0

    @pytest.mark.parametrize("strategy", STRATEGIES + ("accup-running-bn",))
    def test_empty_batch_is_degenerate(self, strategy, pretrained):
        config = (quiet_config(use_contrast=True, bn_policy="running")
                  if strategy == "accup-running-bn" else stepping_config(strategy))
        state = AdaptState(pretrained.clone(), config)
        adapt_batch(state, np.zeros((4, 2, 64)))
        with pytest.raises(DegenerateBatchError, match="^step 1: empty batch"):
            adapt_batch(state, np.zeros((0, 2, 64)))
        assert state.step == 1 and len(ad.active_graph()) == 0


class TestFrozenParameters:
    """Only the optimizer's parameters train: backward gives no other
    parameter a gradient, whatever the strategy."""

    @pytest.mark.parametrize("strategy", STRATEGIES + ("accup-block-3",))
    def test_no_gradient_outside_the_optimizer(self, strategy, pretrained, shift_data):
        _, target = shift_data
        mask = LayerMask(False, False, True) if strategy == "accup-block-3" else None
        config = stepping_config("accup" if mask else strategy)
        state = AdaptState(pretrained.clone(), config, mask)
        for start in (0, 32, 64):
            adapt_batch(state, target.values[start:start + 32])
        owned = {id(p) for p in state.optimizer.params}
        params = state.model.named_parameters()
        assert id(params["cls.w"]) not in owned and id(params["cls.b"]) not in owned
        for name, p in params.items():
            if id(p) in owned:
                assert p.requires_grad and p.grad is not None, name
            else:
                assert not p.requires_grad and p.grad is None, name


class TestModuleSwitchWiring:
    def test_no_prototypes_and_no_entcomp_yield_ensemble_logits(self, pretrained, shift_data,
                                                                 accup_calls):
        _, target = shift_data
        config = quiet_config(use_prototypes=False, use_entropy_comparison=False)
        with ad.no_grad():
            preds, _ = accup_batch(pretrained.clone(), target.values[:16],
                                   target.values[:16], config)
        assert accup_calls["prototype_logits"] == [] and accup_calls["entropy_compare"] == []
        ((_, (_, p_ens)),) = accup_calls["ensemble"]
        np.testing.assert_array_equal(preds, p_ens.data.argmax(axis=1))


class TestRunStream:
    # each discipline test loops over STRATEGIES; its failure message names
    # the strategy

    def test_empty_stream_rejected(self, pretrained):
        for strategy in STRATEGIES:
            with pytest.raises(ContractError):
                run_stream(pretrained, [], stepping_config(strategy))

    def test_input_model_is_not_mutated(self, pretrained, shift_data):
        _, target = shift_data
        before = param_vector(pretrained)
        bn_before = [(blk.bn.running_mean.copy(), blk.bn.running_var.copy())
                     for blk in pretrained.blocks]
        for strategy in STRATEGIES:
            run_stream(pretrained, make_stream(target, 32)[:4],
                       stepping_config(strategy), seed=0)
            np.testing.assert_array_equal(param_vector(pretrained), before,
                                          err_msg=strategy)
            for blk, (rm, rv) in zip(pretrained.blocks, bn_before):
                np.testing.assert_array_equal(blk.bn.running_mean, rm, err_msg=strategy)
                np.testing.assert_array_equal(blk.bn.running_var, rv, err_msg=strategy)

    def test_prefix_causality(self, pretrained, shift_data):
        _, target = shift_data
        stream = make_stream(target, 32)
        for strategy in STRATEGIES:
            config = stepping_config(strategy)
            full = run_stream(pretrained, stream, config, seed=3)
            rng = np.random.default_rng(0)
            for _ in range(5):
                t = int(rng.integers(1, len(stream)))
                prefix = run_stream(pretrained, stream[:t], config, seed=3)
                assert prefix.batch_predictions == full.batch_predictions[:t], strategy

    def test_each_batch_consumed_once(self, pretrained, shift_data):
        _, target = shift_data
        for strategy in STRATEGIES:
            consumed = []

            def stream():
                for i, batch in enumerate(make_stream(target, 32)[:4]):
                    consumed.append(i)
                    yield batch

            run_stream(pretrained, stream(), stepping_config(strategy), seed=0)
            assert consumed == [0, 1, 2, 3], strategy

    @pytest.mark.parametrize("strategy", ["source", "tent", "accup"])
    def test_pulls_each_batch_after_the_previous_step(self, strategy, pretrained, shift_data,
                                                      monkeypatch):
        _, target = shift_data
        events = []

        def stream():
            for i, batch in enumerate(make_stream(target, 32)[:4]):
                events.append(("pull", i))
                yield batch

        step = adapt.adapt_batch

        def stepped(state, values):
            out = step(state, values)
            events.append(("step", state.step - 1))
            return out

        monkeypatch.setattr(adapt, "adapt_batch", stepped)
        run_stream(pretrained, stream(), stepping_config(strategy), seed=0)
        assert events == [(kind, i) for i in range(4) for kind in ("pull", "step")]

    def test_earlier_batches_are_released(self, pretrained, shift_data):
        _, target = shift_data
        for strategy in STRATEGIES:
            refs = []

            def stream():
                for batch in make_stream(target, 32)[:5]:
                    # batch i may still be bound while batch i+1 is produced
                    alive = [j for j, r in enumerate(refs[:-1]) if r() is not None]
                    assert alive == [], f"{strategy}: batches {alive} alive at pull {len(refs)}"
                    fresh = TimeSeriesBatch(batch.values.copy(), batch.labels.copy())
                    refs.append(weakref.ref(fresh.values))
                    yield fresh

            record = run_stream(pretrained, stream(), stepping_config(strategy), seed=0)
            assert len(refs) == 5 and record.macro_f1 is not None, strategy

    def test_item_without_values_is_named(self, pretrained, shift_data):
        _, target = shift_data
        batch = make_stream(target, 32)[0]
        for item in (batch.values, None):
            with pytest.raises(ContractError, match="stream item 1"):
                run_stream(pretrained, [batch, item], quiet_config())

    def test_labels_only_affect_scoring(self, pretrained, shift_data):
        _, target = shift_data
        stream = make_stream(target, 32)[:6]
        rng = np.random.default_rng(1)
        shuffled = [TimeSeriesBatch(b.values, rng.permutation(b.labels)) for b in stream]
        for strategy in STRATEGIES:
            a = run_stream(pretrained, stream, stepping_config(strategy), seed=2)
            b = run_stream(pretrained, shuffled, stepping_config(strategy), seed=2)
            assert a.batch_predictions == b.batch_predictions, strategy
            assert a.macro_f1 != b.macro_f1, strategy

    def test_record_carries_strategy_name(self, pretrained, shift_data):
        _, target = shift_data
        for strategy in STRATEGIES:
            record = run_stream(pretrained, make_stream(target, 32)[:2],
                                stepping_config(strategy))
            assert record.strategy == strategy

    def test_unlabeled_stream_has_no_score(self, pretrained, shift_data):
        _, target = shift_data
        stream = [TimeSeriesBatch(b.values) for b in make_stream(target, 32)[:3]]
        record = run_stream(pretrained, stream, quiet_config(), seed=0)
        assert record.macro_f1 is None

    def test_all_switches_off_with_frozen_bn_reproduces_source(self, pretrained, shift_data):
        _, target = shift_data
        stream = make_stream(target, 32)
        config = quiet_config(
            use_prototypes=False, use_entropy_comparison=False,
            use_augmentation=False, use_contrast=False,
            lr=0.0, bn_policy="running",
        )
        reduced = run_stream(pretrained, stream, config, seed=0)
        source = run_stream(pretrained, stream, StrategyConfig("source"))
        assert reduced.batch_predictions == source.batch_predictions
        assert reduced.macro_f1 == source.macro_f1

    def test_three_seed_records_aggregate(self, pretrained, shift_data):
        from tsadapt.metrics import aggregate_reports, macro_f1

        _, target = shift_data
        stream = make_stream(target, 32)[:6]
        reports = []
        for seed in (0, 1, 2):
            rec = run_stream(pretrained, stream, quiet_config(use_contrast=True, lr=1e-3),
                             seed=seed)
            truth = np.concatenate([b.labels for b in stream])
            reports.append(macro_f1(rec.all_predictions(), truth, 3))
        agg = aggregate_reports(reports)
        assert agg.mean == pytest.approx(np.mean(agg.per_seed))
        assert agg.std == pytest.approx(np.std(agg.per_seed))
        assert len(agg.per_seed) == 3


class TestRunRecord:
    def test_json_round_trip(self):
        rec = RunRecord(strategy="accup", seed=3, config_hash="abc",
                        batch_losses=[np.float64(1.0), 2.0],
                        batch_predictions=[np.array([0, 1]), [2, 0]],
                        macro_f1=np.float64(0.5), wall_ms=12.5)
        expected = {
            "strategy": "accup", "seed": 3, "config_hash": "abc",
            "batch_losses": [1.0, 2.0], "batch_predictions": [[0, 1], [2, 0]],
            "macro_f1": 0.5, "wall_ms": 12.5,
        }
        assert rec.to_dict() == expected
        assert json.loads(rec.to_json()) == expected
