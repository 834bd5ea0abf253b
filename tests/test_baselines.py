"""Baseline strategies: reductions, parameter discipline, entropy behaviour."""

import dataclasses

import numpy as np
import pytest

import tsadapt.autodiff as ad
from tsadapt.accup import shannon_entropy
from tsadapt.adapt import AdaptState, adapt_batch, run_stream
from tsadapt.backbone import forward
from tsadapt.baselines import KINDS, StrategyConfig
from tsadapt.data import make_stream
from tsadapt.errors import (
    ConfigurationError,
    ContractError,
    DegenerateBatchError,
    NumericDomainError,
)


class TestStrategyConfig:
    def test_known_kinds_only(self):
        with pytest.raises(ConfigurationError):
            StrategyConfig("gradient-storm")

    def test_value_record(self):
        config = StrategyConfig("tent", lr=1e-3)
        assert config == StrategyConfig("tent") and config != StrategyConfig("tent", lr=0.0)
        assert repr(config) == "StrategyConfig(kind='tent', lr=0.001)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.lr = 0.0
        assert StrategyConfig.from_dict(config.to_dict()) == config
        for lr in ("0.001", True, float("nan"), -1.0):
            with pytest.raises(ConfigurationError, match="lr"):
                StrategyConfig.from_dict({"kind": "tent", "lr": lr})

    def test_source_and_bn_take_no_step(self, pretrained, shift_data):
        _, target = shift_data
        for kind in ("source", "bn-stats"):
            state = AdaptState(pretrained.clone(), StrategyConfig(kind))
            assert state.optimizer.params == []
            adapt_batch(state, target.values[:16])
            assert state.optimizer.t == 0


    def test_raising_step_leaves_the_tape_empty(self, pretrained):
        # one sample of length 2 leaves one value per channel at the second norm
        state = AdaptState(pretrained.clone(), StrategyConfig("tent"))
        with pytest.raises(DegenerateBatchError):
            adapt_batch(state, np.arange(4.0).reshape(1, 2, 2))
        assert len(ad.active_graph()) == 0
        # the largest float32 value overflows the first convolution
        adapt_batch(state, np.ones((4, 2, 16)))
        with np.errstate(over="ignore"), pytest.raises(
                NumericDomainError, match="^step 1: conv1d: result contains non-finite values$"):
            adapt_batch(state, np.full((4, 2, 16), np.finfo(np.float32).max))
        assert len(ad.active_graph()) == 0


class TestSource:
    def test_equals_plain_batched_inference(self, pretrained, shift_data):
        _, target = shift_data
        stream = make_stream(target, 32)
        record = run_stream(pretrained, stream, StrategyConfig("source"))
        with ad.no_grad():
            _, logits = forward(pretrained, target.values, "running-stats")
        np.testing.assert_array_equal(record.all_predictions(), logits.data.argmax(axis=1))

    def test_never_mutates_anything(self, pretrained, shift_data):
        _, target = shift_data
        rm = [blk.bn.running_mean.copy() for blk in pretrained.blocks]
        run_stream(pretrained, make_stream(target, 32)[:3], StrategyConfig("source"))
        for blk, before in zip(pretrained.blocks, rm):
            np.testing.assert_array_equal(blk.bn.running_mean, before)


class TestTent:
    def test_zero_lr_equals_bn_stats_bitwise(self, pretrained, shift_data):
        _, target = shift_data
        stream = make_stream(target, 32)
        tent = run_stream(pretrained, stream, StrategyConfig("tent", lr=0.0))
        bn = run_stream(pretrained, stream, StrategyConfig("bn-stats"))
        assert tent.batch_predictions == bn.batch_predictions

    def test_touches_only_bn_affine_parameters(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), StrategyConfig("tent", lr=1e-3))
        conv_before = [blk.weight.data.copy() for blk in state.model.blocks]
        bias_before = [blk.bias.data.copy() for blk in state.model.blocks]
        cls_before = state.model.cls_weight.data.copy()
        gamma_before = [blk.gamma.data.copy() for blk in state.model.blocks]
        adapt_batch(state, target.values[:32])
        for blk, w, b in zip(state.model.blocks, conv_before, bias_before):
            np.testing.assert_array_equal(blk.weight.data, w)
            np.testing.assert_array_equal(blk.bias.data, b)
        np.testing.assert_array_equal(state.model.cls_weight.data, cls_before)
        moved = any(
            not np.array_equal(blk.gamma.data, g)
            for blk, g in zip(state.model.blocks, gamma_before)
        )
        assert moved

    def test_step_reduces_entropy_on_same_batch(self, pretrained, shift_data):
        _, target = shift_data
        batch = target.values[:32]
        state = AdaptState(pretrained.clone(), StrategyConfig("tent", lr=1e-3))

        def mean_entropy():
            with ad.no_grad():
                _, logits = forward(state.model, batch, bn_mode="train-stats")
            return shannon_entropy(logits.data).mean()

        before = mean_entropy()
        adapt_batch(state, batch)
        assert mean_entropy() < before


class TestPseudoLabel:
    def test_takes_steps_on_norm_parameters(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained.clone(), StrategyConfig("pseudo-label", lr=1e-3))
        gamma_before = [blk.gamma.data.copy() for blk in state.model.blocks]
        conv_before = [blk.weight.data.copy() for blk in state.model.blocks]
        adapt_batch(state, target.values[:32])
        assert any(
            not np.array_equal(blk.gamma.data, g)
            for blk, g in zip(state.model.blocks, gamma_before)
        )
        for blk, w in zip(state.model.blocks, conv_before):
            np.testing.assert_array_equal(blk.weight.data, w)


class TestStreamingDiscipline:
    # test_adapt.py::TestRunStream covers the rest of the stream-level
    # discipline for every strategy

    def test_prefix_causality_all_kinds(self, pretrained, shift_data):
        _, target = shift_data
        stream = make_stream(target, 32)
        for kind in KINDS:
            config = StrategyConfig(kind, lr=1e-3)
            full = run_stream(pretrained, stream, config)
            half = run_stream(pretrained, stream[: len(stream) // 2], config)
            assert half.batch_predictions == full.batch_predictions[: len(stream) // 2], kind

    def test_empty_stream_rejected(self, pretrained):
        with pytest.raises(ContractError):
            run_stream(pretrained, [], StrategyConfig("source"))

    def test_labeled_batch_rejected_inside(self, pretrained, shift_data):
        from tsadapt.data import TimeSeriesBatch

        _, target = shift_data
        state = AdaptState(pretrained.clone(), StrategyConfig("source"))
        with pytest.raises(ContractError):
            adapt_batch(state, TimeSeriesBatch(target.values[:4], target.labels[:4]))


@pytest.mark.parametrize("kind", KINDS)
def test_stream_records_step_losses(kind, pretrained, shift_data):
    _, target = shift_data
    record = run_stream(pretrained, make_stream(target, 32)[:3],
                        StrategyConfig(kind, lr=1e-3))
    losses = np.array(record.batch_losses)
    assert losses.shape == (3,)
    if StrategyConfig(kind).takes_step():
        assert np.all(np.isfinite(losses)) and np.all(losses != 0.0)
    else:
        np.testing.assert_array_equal(losses, 0.0)
