"""Compute precision: every model is built, pretrained and adapted in
float32, and predicts what a float64 clone does; the engine keeps one dtype
per op."""

from dataclasses import replace

import numpy as np
import pytest

import tsadapt.adapt as adapt
import tsadapt.autodiff as ad
import tsadapt.optim as optim
from tsadapt.accup import AccupConfig
from tsadapt.adapt import AdaptState, adapt_batch, run_stream
from tsadapt.autodiff import BNState, Tensor
from tsadapt.backbone import (
    EncoderConfig,
    Model,
    classify,
    cross_entropy,
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
    """The desk stream: `synthetic` preset, seed 0, 50 batches of 32, and a
    model pretrained from a float64 clone."""
    sc = default_synthetic_scenario()
    train, target = generate_shifted_pair(sc.source, sc.target, (sc.n_source, sc.n_target),
                                          seed=0)
    model = Model(EncoderConfig(2, filters=(16, 24, 24)), 3, seed=0).clone(np.float64)
    pretrain_source(model, train.values, train.labels, epochs=40, seed=0)
    return model, make_stream(target, 32)


def param_bytes(model):
    arrays = [p.data for p in model.named_parameters().values()]
    return b"".join(a.tobytes() for a in arrays + list(model.named_buffers().values()))


def paper_shape(channels, length, epochs):
    """(model, stream): the default (64, 128, 128) encoder, briefly pretrained
    on a (channels, length) shift, and three target batches of 8."""
    sc = default_synthetic_scenario()
    shape = {"channels": channels, "length": length}
    train, target = generate_shifted_pair(replace(sc.source, **shape),
                                          replace(sc.target, **shape), (32, 24), seed=0)
    model = Model(EncoderConfig(channels), 3, seed=0)
    pretrain_source(model, train.values, train.labels, epochs=epochs, batch_size=8, seed=0)
    return model, make_stream(target, 8)


def both_dtypes(monkeypatch, model, stream, config):
    """(float32 record, float64 record) of one stream, each adapting a clone
    of the model in that dtype; every step must run in it."""
    step, seen, records = adapt.adapt_batch, [], []

    def recording_step(state, values):
        seen.extend(p.data.dtype for p in state.model.named_parameters().values())
        return step(state, values)

    monkeypatch.setattr(adapt, "adapt_batch", recording_step)
    for dtype in (np.float32, np.float64):
        seen.clear()
        records.append(run_stream(model.clone(dtype), stream, config, seed=0))
        assert set(seen) == {np.dtype(dtype)}
    return tuple(records)


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
        # enough pretraining for every batch to hold two pseudo-label
        # classes, so every step has a loss
        config = AccupConfig(**HYPERPARAM_PRESETS[preset])
        r32, r64 = both_dtypes(monkeypatch, *paper_shape(channels, length, epochs), config)
        assert r32.batch_predictions == r64.batch_predictions
        np.testing.assert_allclose(r32.batch_losses, r64.batch_losses, rtol=1e-5, atol=0.0)
        assert len(r64.batch_losses) == 3 and min(r64.batch_losses) > 0.0


class TestBaselinePrecision:
    @pytest.mark.parametrize("kind", ["source", "bn-stats", "tent", "pseudo-label"])
    def test_desk_stream_float32_predicts_what_float64_does(self, desk, monkeypatch, kind):
        model, stream = desk
        r32, r64 = both_dtypes(monkeypatch, model, stream, StrategyConfig(kind))
        assert r32.batch_predictions == r64.batch_predictions
        np.testing.assert_allclose(r32.batch_losses, r64.batch_losses, rtol=1e-5, atol=0.0)
        assert len(r64.batch_predictions) == 50

    @pytest.mark.parametrize("kind", ["tent", "pseudo-label"])
    def test_ucihar_shape_float32_predicts_what_float64_does(self, monkeypatch, kind):
        r32, r64 = both_dtypes(monkeypatch, *paper_shape(9, 128, 2),
                               StrategyConfig(kind, lr=3e-4))
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

    @pytest.mark.parametrize("config", [AccupConfig(lr=1e-3), StrategyConfig("tent"),
                                        StrategyConfig("pseudo-label")],
                             ids=["accup", "tent", "pseudo-label"])
    def test_logit_spread_beyond_float32_softmax_log_steps(self, config, pretrained,
                                                           shift_data):
        # the log of a softmax is log(0) once a row's logits spread past about
        # 104 in float32 and about 745 in float64; log_softmax never is
        _, target = shift_data
        batch = target.values[:64]
        with ad.no_grad():
            _, logits = forward(pretrained.clone(), batch, "train-stats")
        unit = np.ptp(logits.data, axis=1).max()
        for spread in (104.0, 745.0, 1e4):
            # the features do not depend on the classifier: scaling it scales
            # every logit, and the widest row spreads 5 % past `spread`
            model = pretrained.clone()
            model.cls_weight.data *= 1.05 * spread / unit
            model.cls_bias.data *= 1.05 * spread / unit
            for dtype in (np.float32, np.float64):
                state = AdaptState(model.clone(dtype), config, seed=0)
                _, loss, _ = adapt_batch(state, batch)
                assert np.isfinite(loss), (spread, dtype)
                for p in state.optimizer.params:
                    assert p.grad.dtype == dtype and np.all(np.isfinite(p.grad)), (spread, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy_at_wide_logit_spreads(self, dtype):
        # pretraining's loss: each label picks its row's lowest logit
        for spread in (104.0, 745.0, 1e4):
            z = np.array([[0.0, 1.05 * spread, 0.5 * spread], [1.05 * spread, 0.0, 1.0]])
            logits = Tensor(z.astype(dtype), requires_grad=True)
            loss = cross_entropy(logits, np.array([0, 1]))
            assert loss.data.dtype == dtype
            np.testing.assert_allclose(loss.item(), 1.05 * spread, rtol=1e-6)
            ad.backward(loss)
            assert np.all(np.isfinite(logits.grad)), (spread, dtype)

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

    def test_classify_casts_an_array_of_features_to_the_model_dtype(self):
        model = tiny_model().clone(np.float32)
        feats = np.random.default_rng(5).normal(size=(4, model.config.feature_dim))
        with ad.no_grad():
            logits = classify(model, feats)
            assert logits.data.dtype == np.float32
            np.testing.assert_array_equal(
                logits.data, classify(model, Tensor(feats.astype(np.float32))).data)
            with pytest.raises(ConformanceError, match="float64"):
                classify(model, Tensor(feats))


class TestPretrainDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pretraining_runs_in_the_models_dtype(self, dtype, shift_data, monkeypatch):
        train, _ = shift_data
        opts = []

        class RecordingAdam(optim.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(optim, "Adam", RecordingAdam)
        model = tiny_model().clone(dtype)
        losses = []
        pretrain_source(model, train.values[:64], train.labels[:64], epochs=2, seed=0,
                        epoch_losses=losses)
        (opt,) = opts
        assert opt.t == 4 and np.isfinite(losses).all()
        assert {p.data.dtype for p in opt.params} == {np.dtype(dtype)}
        assert {p.grad.dtype for p in opt.params} == {np.dtype(dtype)}
        assert opt._m.dtype == opt._v.dtype == dtype
        # the running statistics stay float64 buffers, and moved
        for name, buf in model.named_buffers().items():
            assert buf.dtype == np.float64
            assert not np.array_equal(buf, np.zeros_like(buf) if "rmean" in name
                                      else np.ones_like(buf))

    def test_a_new_model_is_the_float32_rounding_of_its_float64_draw(self):
        # the draws of a float64 model, in the order Model makes them
        config = EncoderConfig(2, filters=(3, 4, 5), kernel_sizes=(3, 4, 5))
        rng, cin, draws = np.random.default_rng(3), 2, []
        for f, k in zip(config.filters, config.kernel_sizes):
            draws.append(rng.normal(0.0, np.sqrt(2.0 / (cin * k)), (f, cin, k)))
            cin = f
        draws.append(rng.normal(0.0, np.sqrt(1.0 / 5), (3, 5)))
        model = Model(config, 3, seed=3)
        weights = [blk.weight for blk in model.blocks] + [model.cls_weight]
        for w, d in zip(weights, draws):
            assert w.data.dtype == np.float32
            assert w.data.tobytes() == d.astype(np.float32).tobytes()


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
        assert pretrained.dtype == state.model.dtype == np.float32

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
        assert loaded.dtype == np.float32
        assert param_bytes(loaded) == param_bytes(state.model)
