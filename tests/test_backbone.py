"""Backbone tests: shapes, determinism, pretraining, and snapshot round-trips."""

import numpy as np
import pytest

import tsadapt.autodiff as ad
from tsadapt.autodiff import Tensor
from tsadapt.backbone import (
    BN_MODES,
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
from tsadapt.data import ShiftSpec, generate_shifted_pair
from tsadapt.errors import (
    ConfigurationError,
    ConformanceError,
    ContractError,
    LabelRangeError,
    NumericDomainError,
)

from conftest import finite_difference_max_rel_error, tiny_model


class TestEncoderConfig:
    def test_defaults_match_three_block_shape(self):
        cfg = EncoderConfig(in_channels=9)
        assert cfg.filters == (64, 128, 128)
        assert cfg.feature_dim == 128

    def test_requires_three_blocks(self):
        with pytest.raises(ContractError):
            EncoderConfig(in_channels=1, filters=(32, 32))

    @pytest.mark.parametrize("name", ["filters", "kernel_sizes", "strides", "pool_widths"])
    def test_block_sizes_must_be_positive(self, name):
        with pytest.raises(ContractError, match=name):
            EncoderConfig(in_channels=1, **{name: (2, 0, 2)})

    @pytest.mark.parametrize("name", ["filters", "kernel_sizes", "strides", "pool_widths"])
    def test_block_sizes_must_be_integers(self, name):
        for sizes in ((4.5, 6, 6), (2, 2.0, 2), (2, True, 2)):
            with pytest.raises(ContractError, match=name):
                EncoderConfig(in_channels=1, **{name: sizes})

    @pytest.mark.parametrize("cin", [1.5, 2.0, True, "2", 0])
    def test_in_channels_must_be_a_positive_integer(self, cin):
        with pytest.raises(ContractError, match="in_channels"):
            EncoderConfig(in_channels=cin)

    def test_numpy_integer_sizes_accepted(self):
        cfg = EncoderConfig(in_channels=np.int64(2), filters=tuple(np.arange(4, 7)))
        assert cfg.feature_dim == 6


class TestBlockOrder:
    """encode pools before relu. The usual relu-then-pool block is the same
    function, with the same gradients and running statistics, bit for bit."""

    @staticmethod
    def relu_then_pool(model, x, bn_mode, pool_inputs):
        t = Tensor(x)
        cfg = model.config
        for blk, k, s, p in zip(model.blocks, cfg.kernel_sizes, cfg.strides, cfg.pool_widths):
            t = ad.conv1d(t, blk.weight, blk.bias, stride=s, padding=k // 2)
            t = ad.batch_norm1d(t, blk.gamma, blk.beta, blk.bn, mode=bn_mode)
            pool_inputs.append((t.data.copy(), p))
            t = ad.max_pool1d(ad.relu(t), p)
        return ad.mean(t, axis=2)

    @pytest.mark.parametrize("bn_mode", BN_MODES)
    @pytest.mark.parametrize("pool", [2, 3])
    def test_pool_then_relu_equals_relu_then_pool(self, bn_mode, pool):
        cfg = EncoderConfig(2, filters=(4, 5, 6), kernel_sizes=(3, 3, 2),
                            pool_widths=(pool, pool, pool))
        model = Model(cfg, 3, seed=0).clone(np.float64)
        # integer weights and inputs give integer conv outputs, so pooling
        # windows hold exact ties, zeros and no positive value at all
        rng = np.random.default_rng(21)
        for blk in model.blocks:
            blk.weight.data[...] = rng.integers(-2, 3, size=blk.weight.shape)
        x = rng.integers(-3, 4, size=(4, 2, 56)).astype(np.float64)
        labels = np.array([0, 1, 2, 1])
        twin = model.clone()

        def step(m, feats):
            logits = classify(m, feats)
            ad.backward(cross_entropy(logits, labels))
            return (feats.data, logits.data, [p.grad for p in m.named_parameters().values()],
                    list(m.named_buffers().values()))

        pool_inputs = []
        f_new, l_new, g_new, b_new = step(model, encode(model, x, bn_mode))
        f_old, l_old, g_old, b_old = step(twin, self.relu_then_pool(twin, x, bn_mode, pool_inputs))
        assert np.array_equal(f_new, f_old)
        assert np.array_equal(l_new, l_old)
        assert all(np.array_equal(a, b) for a, b in zip(g_new, g_old))
        assert all(np.any(blk.weight.grad != 0.0) for blk in model.blocks)
        assert all(np.array_equal(a, b) for a, b in zip(b_new, b_old))
        # the cases that could tell the two orders apart do occur
        windows = [v[..., : v.shape[-1] // p * p].reshape(*v.shape[:2], -1, p)
                   for v, p in pool_inputs]
        top = [w.max(axis=-1, keepdims=True) for w in windows]
        assert any(np.any((w == t).sum(axis=-1) > 1) for w, t in zip(windows, top))
        assert any(np.any(t < 0.0) for t in top)


class TestReleasedActivations:
    def test_encode_keeps_only_what_backward_reads(self):
        model = tiny_model()
        x = np.random.default_rng(22).normal(size=(4, 2, 16))
        feats = encode(model, x, "train-stats")
        held = {}
        for op, _, out, _ in ad.active_graph().nodes:
            held.setdefault(op, []).append(out.data is not None)
        assert held == {"conv1d": [True] * 3, "batch_norm1d": [False] * 3,
                        "max_pool1d": [False] * 3, "relu": [True] * 3, "mean": [True]}
        ad.backward(ad.tensor_sum(feats))
        assert all(np.any(blk.weight.grad != 0.0) for blk in model.blocks)


class TestEncode:
    def test_default_feature_dim_is_128(self):
        # UCIHAR-shaped input (B, 9, 128) through the default encoder
        model = Model(EncoderConfig(in_channels=9), 6, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 9, 128))
        feats = encode(model, x, "running-stats")
        assert feats.shape == (3, 128)

    def test_channel_mismatch_rejected(self):
        model = Model(EncoderConfig(in_channels=9), 6, seed=0)
        with pytest.raises(ConformanceError):
            encode(model, np.zeros((2, 8, 128)))

    def test_identical_samples_identical_features(self):
        model = tiny_model()
        row = np.random.default_rng(1).normal(size=(2, 16))
        x = np.stack([row, row, row])
        feats = encode(model, x, "running-stats")
        np.testing.assert_array_equal(feats.data[0], feats.data[1])
        np.testing.assert_array_equal(feats.data[0], feats.data[2])

    def test_deterministic_in_running_mode(self):
        model = tiny_model()
        x = np.random.default_rng(2).normal(size=(4, 2, 16))
        with ad.no_grad():
            a = encode(model, x, "running-stats").data
            b = encode(model, x, "running-stats").data
        np.testing.assert_array_equal(a, b)


class TestClassify:
    def test_zero_features_give_bias(self):
        model = tiny_model()
        model.cls_bias.data[...] = [0.5, -1.0, 2.0]
        logits = classify(model, np.zeros((2, model.config.feature_dim)))
        np.testing.assert_array_equal(logits.data, [[0.5, -1.0, 2.0]] * 2)

    def test_identity_block_copies_features(self):
        model = tiny_model()
        f = model.config.feature_dim
        model.cls_weight.data[...] = np.eye(3, f)
        model.cls_bias.data[...] = 0.0
        feats = np.random.default_rng(3).normal(size=(2, f))
        np.testing.assert_allclose(classify(model, feats).data, feats[:, :3], atol=0)

    def test_hand_matmul_case(self):
        model = Model(EncoderConfig(in_channels=1, filters=(2, 2, 3),
                                    kernel_sizes=(3, 3, 3)), 2, seed=0)
        model.cls_weight.data[...] = [[1.0, 2, 3], [4, 5, 6]]
        model.cls_bias.data[...] = [1.0, -1.0]
        logits = classify(model, np.array([[1.0, 0.5, 2.0]]))
        # rows of W dotted with the feature vector by hand
        np.testing.assert_array_equal(logits.data, [[1 + 1 + 6 + 1, 4 + 2.5 + 12 - 1]])

    def test_six_class_head_emits_six_logits(self):
        model = Model(EncoderConfig(in_channels=9), 6, seed=0)
        x = np.random.default_rng(4).normal(size=(2, 9, 128))
        _, logits = forward(model, x)
        assert logits.shape == (2, 6)


class TestPretrain:
    def test_linearly_separable_synthetic(self):
        # distinct-frequency classes are linearly separable in feature space
        spec = ShiftSpec(channels=1, length=32, class_freqs=(2.0, 6.0),
                         amplitude=1.0, noise_std=0.05)
        train, _ = generate_shifted_pair(spec, spec, (64, 8), seed=0)
        model = Model(EncoderConfig(in_channels=1, filters=(4, 6, 6),
                                    kernel_sizes=(5, 3, 3)), 2, seed=0)
        pretrain_source(model, train.values, train.labels, epochs=40,
                        batch_size=32, lr=1e-3, seed=0)
        with ad.no_grad():
            _, logits = forward(model, train.values, "running-stats")
        acc = (logits.data.argmax(axis=1) == train.labels).mean()
        assert acc > 0.95

    def test_loss_trend_over_three_seeds(self):
        spec = ShiftSpec(channels=1, length=32, class_freqs=(2.0, 6.0),
                         amplitude=1.0, noise_std=0.2)
        train, _ = generate_shifted_pair(spec, spec, (96, 8), seed=1)
        histories = []
        for seed in (0, 1, 2):
            model = Model(EncoderConfig(in_channels=1, filters=(4, 6, 6),
                                        kernel_sizes=(5, 3, 3)), 2, seed=seed)
            hist = []
            pretrain_source(model, train.values, train.labels, epochs=6,
                            batch_size=32, lr=1e-3, seed=seed, epoch_losses=hist)
            histories.append(hist)
        mean = np.mean(histories, axis=0)
        assert np.all(mean[1:] <= mean[0])

    def test_empty_dataset_rejected(self):
        model = tiny_model()
        with pytest.raises(ContractError):
            pretrain_source(model, np.zeros((0, 2, 16)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("kw", [{"batch_size": 0}, {"epochs": -3}, {"seed": -1},
                                    {"lr": float("inf")}, {"lr": float("nan")}],
                             ids=["batch_size", "epochs", "seed", "lr-inf", "lr-nan"])
    def test_bad_arguments_rejected(self, kw):
        model = tiny_model()
        with pytest.raises(ConfigurationError):
            pretrain_source(model, np.zeros((4, 2, 16)), np.array([0, 1, 2, 0]), **kw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "beyond-float32"])
    def test_non_finite_sample_rejected_before_any_step(self, bad):
        # the caller's model, running statistics included, stays bitwise as it was
        model = tiny_model().clone(np.float32)
        x = np.random.default_rng(3).normal(size=(40, 2, 16))
        x[37, 1, 5] = x[39, 0, 0] = bad

        def model_bytes():
            arrays = {k: p.data for k, p in model.named_parameters().items()}
            arrays.update(model.named_buffers())
            return {k: a.tobytes() for k, a in arrays.items()}

        before = model_bytes()
        with pytest.raises(NumericDomainError, match="^training sample 37 "):
            pretrain_source(model, x, np.arange(40) % 3, epochs=2, batch_size=8)
        assert model_bytes() == before
        assert len(ad.active_graph()) == 0

    def test_negative_model_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            Model(EncoderConfig(in_channels=2), 3, seed=-1)

    def test_label_out_of_range_rejected(self):
        model = tiny_model(n_classes=3)
        x = np.zeros((4, 2, 16))
        with pytest.raises(LabelRangeError):
            pretrain_source(model, x, np.array([0, 1, 2, 3]))

    def test_cross_entropy_gradient(self):
        model = tiny_model(seed=5)
        x = np.random.default_rng(6).normal(size=(2, 2, 16))
        y = np.array([0, 2])
        params = list(model.named_parameters().values())

        def loss_fn():
            _, logits = forward(model, x, "train-stats")
            return cross_entropy(logits, y)

        assert finite_difference_max_rel_error(loss_fn, params) < 1e-4


class TestSnapshots:
    def test_round_trip_reproduces_logits_bitwise(self, tmp_path):
        # a snapshot loads as a float32 model, so round-trip a float32 one
        model = tiny_model(seed=7).clone(np.float32)
        # make running stats non-trivial before saving
        x = np.random.default_rng(8).normal(size=(6, 2, 16))
        with ad.no_grad():
            forward(model, x, "train-stats")
        path = tmp_path / "model.ttaw"
        save_model(path, model)
        restored = load_model(path)
        with ad.no_grad():
            _, original = forward(model, x, "running-stats")
            _, reloaded = forward(restored, x, "running-stats")
        np.testing.assert_array_equal(original.data, reloaded.data)

    def test_float32_snapshot_round_trips_exactly(self, tmp_path):
        model = Model(tiny_model().config, 3, seed=4)
        x = np.random.default_rng(9).normal(size=(6, 2, 16))
        with ad.no_grad():
            forward(model, x, "train-stats")
        path = tmp_path / "model.ttaw"
        save_model(path, model)
        restored = load_model(path)
        # the format is unchanged: a 12-byte header, then per tensor its
        # name, rank and extents and 8 bytes per value
        tensors = {n: p.data for n, p in model.named_parameters().items()}
        tensors.update(model.named_buffers())
        assert path.stat().st_size == 12 + sum(3 + len(n) + 8 * (a.ndim + a.size)
                                               for n, a in tensors.items())
        assert restored.dtype == model.dtype == np.float32
        for name, p in model.named_parameters().items():
            got = restored.named_parameters()[name].data
            assert got.dtype == np.float32 and got.tobytes() == p.data.tobytes()
        for name, buf in model.named_buffers().items():
            got = restored.named_buffers()[name]
            assert got.dtype == np.float64 and got.tobytes() == buf.tobytes()

    def test_sidecar_restores_architecture(self, tmp_path):
        model = tiny_model(seed=9)
        path = tmp_path / "model.ttaw"
        save_model(path, model)
        restored = load_model(path)
        assert restored.config == model.config
        assert restored.n_classes == model.n_classes
