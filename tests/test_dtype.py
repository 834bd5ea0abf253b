"""Compute precision: ACCUP adapts in float32 and predicts what a float64 run
does; the baselines adapt in float64; the engine keeps one dtype per op."""

from dataclasses import replace

import numpy as np
import pytest

import tsadapt.adapt as adapt
import tsadapt.autodiff as ad
from tsadapt.accup import AccupConfig
from tsadapt.adapt import AdaptState, adapt_batch, run_stream
from tsadapt.autodiff import BNState, Tensor
from tsadapt.backbone import (
    EncoderConfig,
    Model,
    encode,
    forward,
    load_model,
    pretrain_source,
    save_model,
)
from tsadapt.baselines import StrategyConfig
from tsadapt.data import generate_shifted_pair, make_stream
from tsadapt.errors import ConformanceError, NumericDomainError
from tsadapt.experiment import HYPERPARAM_PRESETS, default_synthetic_scenario

from conftest import tiny_model

ACCUP_STEPS = {
    "batch-bn": AccupConfig(lr=1e-3),
    "running-bn": AccupConfig(lr=1e-3, bn_policy="running"),
}


@pytest.fixture(scope="module")
def desk():
    """The desk stream: `synthetic` preset, seed 0, 50 batches of 32."""
    sc = default_synthetic_scenario()
    train, target = generate_shifted_pair(sc.source, sc.target, (sc.n_source, sc.n_target),
                                          seed=0)
    model = Model(EncoderConfig(2, filters=(16, 24, 24)), 3, seed=0)
    pretrain_source(model, train.values, train.labels, epochs=40, seed=0)
    return model, make_stream(target, 32)


def param_bytes(model):
    arrays = [p.data for p in model.named_parameters().values()]
    return b"".join(a.tobytes() for a in arrays + list(model.named_buffers().values()))


def both_dtypes(monkeypatch, model, stream, config):
    """(float32 record, float64 record) of one ACCUP stream."""
    r32 = run_stream(model, stream, config, seed=0)
    with monkeypatch.context() as m:
        m.setattr(adapt, "ACCUP_DTYPE", np.float64)
        r64 = run_stream(model, stream, config, seed=0)
    return r32, r64


class TestAccupPrecision:
    @pytest.mark.parametrize("policy", ["batch", "running"])
    def test_desk_stream_float32_predicts_what_float64_does(self, desk, monkeypatch, policy):
        model, stream = desk
        config = AccupConfig(**HYPERPARAM_PRESETS["synthetic"], bn_policy=policy)
        r32, r64 = both_dtypes(monkeypatch, model, stream, config)
        assert r32.batch_predictions == r64.batch_predictions
        np.testing.assert_allclose(r32.batch_losses, r64.batch_losses, rtol=1e-5, atol=0.0)
        assert len(r64.batch_predictions) == 50 and min(r64.batch_losses) > 0.0

    @pytest.mark.parametrize("preset, channels, length, epochs",
                             [("ucihar", 9, 128, 2), ("ssc", 1, 3000, 1)])
    def test_paper_shape_float32_predicts_what_float64_does(self, monkeypatch, preset,
                                                             channels, length, epochs):
        # the default (64, 128, 128) encoder, briefly pretrained: enough for
        # every batch to hold two pseudo-label classes, so every step has a loss
        sc = default_synthetic_scenario()
        shape = {"channels": channels, "length": length}
        train, target = generate_shifted_pair(replace(sc.source, **shape),
                                              replace(sc.target, **shape), (32, 24), seed=0)
        model = Model(EncoderConfig(channels), 3, seed=0)
        pretrain_source(model, train.values, train.labels, epochs=epochs, batch_size=8, seed=0)
        config = AccupConfig(**HYPERPARAM_PRESETS[preset])
        r32, r64 = both_dtypes(monkeypatch, model, make_stream(target, 8), config)
        assert r32.batch_predictions == r64.batch_predictions
        np.testing.assert_allclose(r32.batch_losses, r64.batch_losses, rtol=1e-5, atol=0.0)
        assert len(r64.batch_losses) == 3 and min(r64.batch_losses) > 0.0


class TestStrategyDtype:
    @pytest.mark.parametrize("config", ACCUP_STEPS.values(), ids=ACCUP_STEPS.keys())
    def test_every_accup_output_and_gradient_is_float32(self, config, pretrained, shift_data,
                                                        monkeypatch):
        _, target = shift_data
        emit, dtypes = ad._emit, {"outputs": set(), "gradients": set()}

        def checking_emit(op, inputs, out_data, bwd):
            def checking_bwd(g):
                grads = bwd(g)
                dtypes["gradients"].update(np.asarray(x).dtype for x in grads if x is not None)
                return grads

            out = emit(op, inputs, out_data, checking_bwd)
            dtypes["outputs"].add(out.data.dtype)
            return out

        monkeypatch.setattr(ad, "_emit", checking_emit)
        state = AdaptState(pretrained, config, seed=0)
        # 64 rows: both policies find two pseudo-label classes
        _, loss, _ = adapt_batch(state, target.values[:64])
        assert loss != 0.0
        assert dtypes == {"outputs": {np.dtype(np.float32)}, "gradients": {np.dtype(np.float32)}}
        for p in state.optimizer.params:
            assert p.data.dtype == np.float32 and p.grad.dtype == np.float32
        # the running statistics stay float64 buffers
        for buf in state.model.named_buffers().values():
            assert buf.dtype == np.float64

    @pytest.mark.parametrize("kind", ["source", "bn-stats", "tent", "pseudo-label"])
    def test_baselines_adapt_in_float64(self, kind, pretrained):
        state = AdaptState(pretrained.clone(np.float32), StrategyConfig(kind))
        assert state.model.dtype == np.float64

    @pytest.mark.parametrize("config", [AccupConfig(lr=1e-3), StrategyConfig("tent"),
                                        StrategyConfig("pseudo-label")],
                             ids=["accup", "tent", "pseudo-label"])
    def test_logit_spread_beyond_float32_softmax_log_steps(self, config, pretrained,
                                                           shift_data):
        # in float32, exp(-104) is below the smallest subnormal, so the log of
        # a softmax over logits that spread past about 104 is log(0)
        _, target = shift_data
        model = pretrained.clone()
        model.cls_weight.data *= 40.0
        model.cls_bias.data *= 40.0
        batch = target.values[:64]
        with ad.no_grad():
            _, logits = forward(model, batch)
        spread = np.ptp(logits.data, axis=1)
        assert 104.0 < spread.max() < 700.0
        state = AdaptState(model, config, seed=0)
        _, loss, _ = adapt_batch(state, batch)
        assert np.isfinite(loss)

    def test_accup_batch_beyond_float32_range_is_a_numeric_error(self, pretrained, shift_data):
        _, target = shift_data
        state = AdaptState(pretrained, AccupConfig(lr=1e-3), seed=0)
        adapt_batch(state, target.values[:16])
        with pytest.raises(NumericDomainError,
                           match="^step 1: tensor values must be finite$"):
            adapt_batch(state, np.full((16, 2, 64), 1e39))
        assert len(ad.active_graph()) == 0

    def test_encode_casts_an_array_batch_to_the_model_dtype(self, shift_data):
        _, target = shift_data
        model = tiny_model().clone(np.float32)
        with ad.no_grad():
            assert encode(model, target.values[:4]).data.dtype == np.float32
        with pytest.raises(ConformanceError, match="float64"):
            encode(model, Tensor(target.values[:4]))


class TestMixedDtypes:
    def test_every_binary_op_rejects_mixed_inputs(self):
        rng = np.random.default_rng(0)
        a64, b64 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        a, b = Tensor(a64.astype(np.float32), requires_grad=True), Tensor(b64)
        x32 = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
        w, bias = Tensor(rng.normal(size=(4, 3, 3))), Tensor(np.zeros(4, np.float32))
        ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3, np.float32))
        cases = {
            "add": lambda: ad.add(a, b), "sub": lambda: ad.sub(b, a),
            "mul": lambda: ad.mul(a, b),
            "linear": lambda: ad.linear(a, Tensor(rng.normal(size=(5, 4))),
                                        Tensor(np.zeros(5, np.float32))),
            "cosine-similarity": lambda: ad.cosine_pairs(a, b),
            "concatenate": lambda: ad.concat([a, b]),
            "conv1d": lambda: ad.conv1d(x32, w, bias, padding=1),
            "batch_norm1d": lambda: ad.batch_norm1d(x32, ones, zeros, BNState(3)),
        }
        for op, case in cases.items():
            with pytest.raises(ConformanceError, match=op):
                case()
        assert len(ad.active_graph()) == 0


class TestAdaptStateCopy:
    @pytest.mark.parametrize("config", [AccupConfig(lr=1e-3), StrategyConfig("tent")],
                             ids=["accup", "tent"])
    def test_callers_model_is_untouched(self, config, pretrained, shift_data):
        _, target = shift_data
        before = param_bytes(pretrained)
        state = AdaptState(pretrained, config, seed=0)
        assert state.model is not pretrained
        for batch in make_stream(target, 32)[:3]:
            adapt_batch(state, batch.values)
        assert param_bytes(pretrained) == before
        assert pretrained.dtype == np.float64

    def test_float32_model_saves_as_float64_and_loads_back(self, pretrained, shift_data,
                                                          tmp_path):
        _, target = shift_data
        state = AdaptState(pretrained, AccupConfig(lr=1e-3), seed=0)
        adapt_batch(state, target.values[:16])
        assert state.model.dtype == np.float32
        path = tmp_path / "adapted.ttaw"
        save_model(path, state.model)
        # the reader takes 8 bytes per value, and rejects a file short of them
        loaded = load_model(path)
        assert loaded.dtype == np.float64
        for name, p in state.model.named_parameters().items():
            np.testing.assert_array_equal(loaded.named_parameters()[name].data, p.data)
