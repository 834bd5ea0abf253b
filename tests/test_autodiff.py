"""Engine tests: primitive semantics, gradients, the tape, and snapshots."""

import inspect
import itertools
import re
import struct
import tracemalloc

import numpy as np
import pytest

import tsadapt.autodiff as ad
from tsadapt.autodiff import BNState, Tensor
from tsadapt.accup import AccupConfig
from tsadapt.adapt import AdaptState, adapt_batch
from tsadapt.backbone import EncoderConfig, Model, cross_entropy, encode, forward, pretrain_source
from tsadapt.baselines import StrategyConfig
from tsadapt.errors import (
    ConformanceError,
    ContractError,
    DegenerateBatchError,
    FormatError,
    NumericDomainError,
)

from conftest import finite_difference_max_rel_error, tiny_model

# the name of every op the engine records
EMITTED_OPS = set(re.findall(r'_emit\("([^"]+)"', inspect.getsource(ad)))


class TestTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericDomainError):
            Tensor([1.0, np.inf])
        with pytest.raises(NumericDomainError):
            Tensor([np.nan])

    def test_grad_is_none_until_backward(self):
        frozen, t = Tensor([3.0, 4.0]), Tensor([1.0, 2.0], requires_grad=True)
        assert frozen.grad is None and t.grad is None
        ad.backward(ad.tensor_sum(ad.mul(t, frozen)))
        assert frozen.grad is None
        np.testing.assert_array_equal(t.grad, frozen.data)

    def test_double_precision(self):
        # float64 is the default: every input that is not a float32 array
        for data in ([1.5], np.float16([1.5]), np.int32([1]), 2.0):
            assert Tensor(data).data.dtype == np.float64

    def test_float32_stays_float32(self):
        t = Tensor(np.float32([1.5]), requires_grad=True)
        ad.backward(ad.tensor_sum(ad.mul(t, t)))
        assert t.data.dtype == np.float32 and t.grad.dtype == np.float32


class TestPrimitiveSemantics:
    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.25, 0.25, 0.25, 0.25])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.softmax(Tensor(rng.normal(0, 5, (200, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_cosine_scale_invariance(self):
        v = np.array([[1.0, 2.0, -0.5]])
        for alpha in (0.5, 3.0, 1e-3):
            cos = ad.cosine_pairs(Tensor(v), Tensor(alpha * v))
            assert cos.data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cosine_zero_norm_is_zero(self):
        cos = ad.cosine_pairs(Tensor([[0.0, 0.0]]), Tensor([[1.0, 2.0]]))
        assert cos.data[0, 0] == 0.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ConformanceError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_column_broadcast_rejected(self):
        # add, sub and mul take identical shapes only: no column, row or
        # one-element operand broadcasts, in either position
        m = Tensor(np.zeros((3, 4)))
        for op in (ad.add, ad.sub, ad.mul):
            for other in ((3, 1), (4,), (1, 4), (1,), (), (1, 1)):
                with pytest.raises(ConformanceError):
                    op(m, Tensor(np.zeros(other)))
                with pytest.raises(ConformanceError):
                    op(Tensor(np.zeros(other)), m)

    def test_log_domain_error(self):
        with pytest.raises(NumericDomainError):
            ad.log(Tensor([1.0, 0.0]))

    def test_exp_overflow_error(self):
        with pytest.raises(NumericDomainError):
            ad.exp(Tensor([1000.0]))

    def test_concat(self):
        t = Tensor([[1.0, 2], [3, 4], [5, 6]])
        both = ad.concat([t, t], axis=0)
        assert both.shape == (6, 2)


class TestConv1d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 1, 9))
        out = ad.conv1d(Tensor(x), Tensor(np.ones((1, 1, 1))), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, x)

    def test_pairwise_sums(self):
        out = ad.conv1d(
            Tensor([[[1.0, 2, 3, 4]]]), Tensor([[[1.0, 1.0]]]), Tensor([0.0])
        )
        np.testing.assert_array_equal(out.data, [[[3.0, 5, 7]]])

    @staticmethod
    def naive_conv(x, w, b, stride, padding):
        bsz, cin, length = x.shape
        cout, _, k = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        lout = (length + 2 * padding - k) // stride + 1
        out = np.zeros((bsz, cout, lout))
        for n in range(bsz):
            for o in range(cout):
                for t in range(lout):
                    acc = 0.0
                    for c in range(cin):
                        for j in range(k):
                            acc += xp[n, c, t * stride + j] * w[o, c, j]
                    out[n, o, t] = acc + b[o]
        return out

    def test_matches_naive_loop_exactly_on_integers(self):
        # integer-valued doubles make every summation order exact
        rng = np.random.default_rng(1)
        x = rng.integers(-4, 5, size=(1, 2, 8)).astype(np.float64)
        w = rng.integers(-3, 4, size=(3, 2, 3)).astype(np.float64)
        b = rng.integers(-2, 3, size=3).astype(np.float64)
        out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=0)
        np.testing.assert_array_equal(out.data, self.naive_conv(x, w, b, 1, 0))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 1), (3, 4)])
    def test_matches_naive_loop_float(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        np.testing.assert_allclose(
            out.data, self.naive_conv(x, w, b, stride, padding), rtol=1e-13, atol=1e-13
        )

    @staticmethod
    def naive_conv_grads(x, w, g, stride, padding):
        """(dx, dw, db) of sum(g * conv1d(x, w, b)) by scattering every product."""
        bsz, cin, length = x.shape
        cout, _, k = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w)
        for n in range(bsz):
            for o in range(cout):
                for t in range(g.shape[2]):
                    for c in range(cin):
                        for j in range(k):
                            dxp[n, c, t * stride + j] += g[n, o, t] * w[o, c, j]
                            dw[o, c, j] += g[n, o, t] * xp[n, c, t * stride + j]
        return dxp[:, :, padding:padding + length], dw, g.sum(axis=(0, 2))

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("same_padding", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_matches_naive_loop(self, stride, same_padding, k):
        rng = np.random.default_rng(5)
        padding = k // 2 if same_padding else 0
        x = Tensor(rng.normal(size=(2, 3, 11)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, k)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = ad.conv1d(x, w, b, stride, padding)
        g = rng.normal(size=out.shape)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        for got, want in zip((x.grad, w.grad, b.grad),
                             self.naive_conv_grads(x.data, w.data, g, stride, padding)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("length,k,stride,padding", [(1, 5, 1, 2), (2, 5, 2, 4)])
    def test_taps_that_only_see_padding(self, length, k, stride, padding):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 2, length)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, k)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = ad.conv1d(x, w, b, stride, padding)
        np.testing.assert_allclose(
            out.data, self.naive_conv(x.data, w.data, b.data, stride, padding),
            rtol=1e-12, atol=1e-12)
        g = rng.normal(size=out.shape)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        for got, want in zip((x.grad, w.grad, b.grad),
                             self.naive_conv_grads(x.data, w.data, g, stride, padding)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_kernel_wider_than_padded_input(self):
        with pytest.raises(ConformanceError):
            ad.conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))),
                      Tensor([0.0]))


class TestBatchNorm:
    def test_constant_input_outputs_beta(self):
        x = Tensor(np.full((2, 3, 4), 7.0))
        beta = Tensor([1.0, -2.0, 0.5])
        out = ad.batch_norm1d(x, Tensor(np.ones(3)), beta, BNState(3), "train-stats")
        for c in range(3):
            np.testing.assert_allclose(out.data[:, c, :], beta.data[c], atol=1e-12)

    def test_train_stats_normalizes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(2.0, 3.0, (4, 2, 8)))
        out = ad.batch_norm1d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                              BNState(2), "train-stats")
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-6)

    def test_momentum_update_hand_formula(self):
        # one batch [1,2,3,4] on one channel: mean 2.5, unbiased var 5/3
        state = BNState(1, momentum=0.1)
        x = Tensor(np.array([1.0, 2, 3, 4]).reshape(2, 1, 2))
        ad.batch_norm1d(x, Tensor([1.0]), Tensor([0.0]), state, "train-stats")
        assert state.running_mean[0] == pytest.approx(0.25, abs=1e-15)
        assert state.running_var[0] == pytest.approx(1.0666666666666667, abs=1e-15)

    def test_running_mode_leaves_state_untouched(self):
        state = BNState(2)
        before = (state.running_mean.copy(), state.running_var.copy())
        ad.batch_norm1d(Tensor(np.ones((2, 2, 3))), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)), state, "running-stats")
        np.testing.assert_array_equal(state.running_mean, before[0])
        np.testing.assert_array_equal(state.running_var, before[1])

    @staticmethod
    def textbook_train_stats(x, gamma, beta, g, eps=1e-5):
        """Forward, running-stat update and (dx, dgamma, dbeta) by the textbook formulas."""
        mu = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu[None, :, None]) * inv[None, :, None]
        out = gamma[None, :, None] * xhat + beta[None, :, None]
        gx = g * gamma[None, :, None]
        dx = inv[None, :, None] * (
            gx
            - gx.mean(axis=(0, 2), keepdims=True)
            - xhat * (gx * xhat).mean(axis=(0, 2), keepdims=True)
        )
        m = x.shape[0] * x.shape[2]
        return out, mu, var * m / (m - 1), (dx, (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2)))

    def test_train_stats_matches_textbook_formula(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(1.5, 2.0, (3, 4, 9)), requires_grad=True)
        gamma = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=4), requires_grad=True)
        g = rng.normal(size=(3, 4, 9))
        state = BNState(4, momentum=1.0)
        out = ad.batch_norm1d(x, gamma, beta, state, "train-stats")
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        want_out, want_mean, want_var, want_grads = self.textbook_train_stats(
            x.data, gamma.data, beta.data, g)
        np.testing.assert_allclose(out.data, want_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(state.running_mean, want_mean, rtol=1e-10)
        np.testing.assert_allclose(state.running_var, want_var, rtol=1e-10)
        for got, want in zip((x.grad, gamma.grad, beta.grad), want_grads):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            ad.batch_norm1d(Tensor(np.ones((1, 2, 1))), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), BNState(2), "train-stats")


class TestMaxPool:
    @pytest.mark.parametrize("width", [2, 3])
    def test_ties_match_max_and_route_to_first_maximum(self, width):
        # small integers force ties; length 11 leaves a remainder at both widths
        rng = np.random.default_rng(7)
        x = Tensor(rng.integers(0, 3, size=(2, 3, 11)).astype(np.float64),
                   requires_grad=True)
        out = ad.max_pool1d(x, width)
        lout = 11 // width
        view = x.data[:, :, :lout * width].reshape(2, 3, lout, width)
        np.testing.assert_array_equal(out.data, view.max(axis=-1))
        assert (view == view.max(axis=-1, keepdims=True)).sum(axis=-1).max() > 1
        g = rng.normal(size=out.shape)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        want = np.zeros((2, 3, 11))
        first = view.argmax(axis=-1)
        for n, c, t in np.ndindex(out.shape):
            want[n, c, t * width + first[n, c, t]] = g[n, c, t]
        np.testing.assert_array_equal(x.grad, want)

    def test_wide_window_matches_max_and_routes_to_first_maximum(self):
        # width 300 needs 16-bit window indices; length 617 leaves a remainder
        # of 17, and values in 0..39 tie at every window's maximum
        rng = np.random.default_rng(9)
        x = Tensor(rng.integers(0, 40, size=(2, 3, 617)).astype(np.float64),
                   requires_grad=True)
        out = ad.max_pool1d(x, 300)
        view = x.data[:, :, :600].reshape(2, 3, 2, 300)
        np.testing.assert_array_equal(out.data, view.max(axis=-1))
        assert (view == view.max(axis=-1, keepdims=True)).sum(axis=-1).min() > 1
        g = rng.normal(size=out.shape)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        want = np.zeros((2, 3, 617))
        first = view.argmax(axis=-1)
        for n, c, t in np.ndindex(out.shape):
            want[n, c, t * 300 + first[n, c, t]] = g[n, c, t]
        np.testing.assert_array_equal(x.grad, want)

    def test_remainder_columns_get_zero_gradient(self):
        x = Tensor(np.random.default_rng(10).normal(size=(1, 2, 11)), requires_grad=True)
        out = ad.max_pool1d(x, 3)
        bwd = ad.active_graph().nodes[-1][3]
        ad.active_graph().clear()
        for _ in range(3):
            junk = np.full(x.shape, np.nan)  # a freed block the gradient may reuse
            del junk
            dx = bwd(np.ones(out.shape))[0]
            np.testing.assert_array_equal(dx[:, :, 9:], 0.0)


class TestBlockOpLayout:
    """Block ops return C-contiguous (B, C, L) outputs and input gradients."""

    @staticmethod
    def check(op, x, *args):
        x = Tensor(x, requires_grad=True)
        out = op(x, *args)
        assert out.data.flags.c_contiguous and out.ndim == 3
        _, inputs, node_out, bwd = ad.active_graph().nodes[-1]
        assert node_out is out and inputs[0] is x
        dx = bwd(np.ones(out.shape))[0]
        ad.active_graph().clear()
        assert dx.shape == x.shape and dx.flags.c_contiguous

    def test_all_four_ops(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 11))
        params = [Tensor(rng.normal(size=3), requires_grad=True) for _ in range(2)]
        for stride, padding in ((1, 0), (1, 2), (2, 1)):
            w = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
            self.check(ad.conv1d, x, w, Tensor(np.zeros(4)), stride, padding)
        for mode in ("train-stats", "running-stats"):
            self.check(ad.batch_norm1d, x, *params, BNState(3), mode)
        self.check(ad.relu, x)
        for width in (2, 3):
            self.check(ad.max_pool1d, x, width)


class TestBackward:
    def test_quadratic(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-15)

    def test_fanout_accumulates(self):
        x = Tensor([5.0], requires_grad=True)
        ad.backward(ad.tensor_sum(ad.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(x, x))
        ad.active_graph().clear()

    def test_loss_off_the_tape_rejected(self):
        # a constant, or an op output recorded under no_grad, has no graph to
        # differentiate; the caller must skip backward for it
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            untracked = ad.tensor_sum(ad.mul(x, x))
        for loss in (Tensor(0.0), untracked):
            with pytest.raises(ContractError, match="not connected"):
                ad.backward(loss)
        assert x.grad is None and len(ad.active_graph()) == 0

    def test_graph_cleared_after_backward(self):
        x = Tensor([1.0], requires_grad=True)
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
        assert len(ad.active_graph()) == 0

    def test_no_grad_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            ad.tensor_sum(ad.mul(x, x))
        assert len(ad.active_graph()) == 0

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 6)))

        def run():
            x.grad = None
            ad.backward(ad.tensor_sum(ad.mul(ad.log(ad.softmax(x)), w)))
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())


class TestGradientOwnership:
    """Op outputs hold a gradient only while backward passes through them."""

    def test_first_gradient_is_copied_not_aliased(self):
        # add hands p and q one array; p then gets its w2 term added, which
        # must not leak into q's gradient
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w1, w2 = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
        p, q = ad.scalar_mul(a, 2.0), ad.scalar_mul(b, 3.0)
        s2 = ad.tensor_sum(ad.mul(w2, p))
        s1 = ad.tensor_sum(ad.mul(w1, ad.add(p, q)))
        ad.backward(ad.add(s2, s1))
        np.testing.assert_array_equal(a.grad, 2.0 * (w1.data + w2.data))
        np.testing.assert_array_equal(b.grad, 3.0 * w1.data)

    def test_first_gradient_is_adopted_not_copied(self):
        # y's node must receive the very array z's node returned for it
        x = Tensor([1.0, -2.0], requires_grad=True)
        sent, seen = np.array([3.0, 4.0]), []

        def receive(g):
            seen.append(g)
            return (g,)

        y = ad._emit("receive", (x,), x.data.copy(), receive)
        z = ad._emit("send", (y,), y.data.copy(), lambda g: (sent,))
        ad.backward(ad.tensor_sum(z))
        assert seen[0] is sent
        np.testing.assert_array_equal(x.grad, sent)

    def test_concat_views_stay_apart_after_a_later_contribution(self):
        # concat hands p and q views of the one array that add also hands to
        # r; p then gets its w2 term, which must reach neither q nor r
        rng = np.random.default_rng(15)
        a, b, e = (Tensor(rng.normal(size=(n, 4)), requires_grad=True) for n in (2, 3, 5))
        w1, w2 = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(2, 4)))
        p, q, r = ad.scalar_mul(a, 2.0), ad.scalar_mul(b, 3.0), ad.scalar_mul(e, 5.0)
        s2 = ad.tensor_sum(ad.mul(w2, p))
        s1 = ad.tensor_sum(ad.mul(w1, ad.add(ad.concat([p, q]), r)))
        ad.backward(ad.add(s2, s1))
        np.testing.assert_array_equal(a.grad, 2.0 * (w1.data[:2] + w2.data))
        np.testing.assert_array_equal(b.grad, 3.0 * w1.data[2:])
        np.testing.assert_array_equal(e.grad, 5.0 * w1.data)

    def test_leaves_handed_one_array_accumulate_apart(self):
        # add hands a and b one array; a second backward adds to each leaf's
        # gradient out of place, so neither call writes into the other's
        rng = np.random.default_rng(17)
        a, b = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(2))
        w1, w2 = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
        ad.backward(ad.tensor_sum(ad.add(a, b)))
        first = a.grad
        assert b.grad is first
        np.testing.assert_array_equal(first, np.ones(3))
        ad.backward(ad.tensor_sum(ad.add(ad.mul(a, w1), ad.mul(b, w2))))
        np.testing.assert_array_equal(a.grad, 1.0 + w1.data)
        np.testing.assert_array_equal(b.grad, 1.0 + w2.data)
        np.testing.assert_array_equal(first, np.ones(3))

    def test_leaf_loss_adds_out_of_place(self):
        # a loss that is itself a leaf gets a gradient of one per backward,
        # and an earlier gradient array is never written into
        t = Tensor([2.0], requires_grad=True)
        ad.backward(t)
        first = t.grad
        ad.backward(t)
        np.testing.assert_array_equal(first, [1.0])
        np.testing.assert_array_equal(t.grad, [2.0])

    def test_backward_releases_op_gradients_and_tape(self):
        model = tiny_model()
        x = np.random.default_rng(13).normal(size=(4, 2, 16))
        loss = cross_entropy(forward(model, x, "train-stats")[1], np.array([0, 1, 2, 0]))
        outs = [out for _, _, out, _ in ad.active_graph().nodes]
        leaves = list(model.named_parameters().values())
        ad.backward(loss)
        assert len(ad.active_graph()) == 0
        assert all(out.grad is None for out in outs)
        assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)
        assert any(np.any(t.grad != 0.0) for t in leaves)

    def test_node_off_the_loss_path_never_runs(self):
        x = Tensor([1.0, -2.0], requires_grad=True)

        def boom(g):
            raise AssertionError("backward ran for an output that got no gradient")

        unused = Tensor([0.0, 0.0])
        unused.requires_grad = True
        ad.active_graph().nodes.append(("boom", (x,), unused, boom))
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)
        assert len(ad.active_graph()) == 0

    def test_peak_memory_of_a_training_step(self, monkeypatch):
        # against the bytes of every op output the step produced: lazy
        # gradients alone peaked at 1.11x; encoder blocks that also release
        # their batch-norm and max-pool outputs peak at 0.72x
        model = Model(EncoderConfig(1), 3, seed=0)
        x = np.random.default_rng(14).normal(size=(4, 1, 1024))
        out_bytes = []
        emit = ad._emit

        def counting_emit(*args):
            out = emit(*args)
            out_bytes.append(out.data.nbytes)
            return out

        monkeypatch.setattr(ad, "_emit", counting_emit)
        tracemalloc.start()
        try:
            f = encode(model, x, "train-stats")
            ad.backward(ad.tensor_sum(ad.mul(f, f)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = sum(out_bytes)
        assert peak <= 0.9 * total, f"peak {peak} B against {total} B of op outputs"


class TestBackwardContract:
    """No backward function writes into the g it is handed: backward adopts
    first gradients without copying, so one array may be the gradient of
    several tensors at once."""

    def test_no_primitive_mutates_its_g(self):
        rng = np.random.default_rng(16)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        m, n = leaf(3, 4), leaf(3, 4)
        positive = Tensor(rng.uniform(1.0, 2.0, size=(3, 4)), requires_grad=True)
        x, w, bias = leaf(2, 3, 11), leaf(4, 3, 3), leaf(4)
        gamma, beta = leaf(3), leaf(3)
        cases = [
            lambda: ad.add(m, n), lambda: ad.sub(m, n),
            lambda: ad.mul(m, n), lambda: ad.scalar_mul(m, 2.5),
            lambda: ad.linear(m, leaf(5, 4), leaf(5)),
            lambda: ad.relu(m), lambda: ad.exp(m), lambda: ad.log(positive),
            lambda: ad.mean(m), lambda: ad.mean(m, axis=1),
            lambda: ad.tensor_sum(m), lambda: ad.tensor_sum(m, axis=0),
            lambda: ad.softmax(m), lambda: ad.log_softmax(m),
            lambda: ad.cosine_pairs(m, leaf(2, 4)),
            lambda: ad.concat([m, n]), lambda: ad.concat([m, n], axis=1),
            lambda: ad.conv1d(x, w, bias, 2, 1), lambda: ad.conv1d(Tensor(x.data), w, bias),
            lambda: ad.batch_norm1d(x, gamma, beta, BNState(3), "train-stats"),
            lambda: ad.batch_norm1d(x, gamma, beta, BNState(3), "running-stats"),
            lambda: ad.max_pool1d(x, 2), lambda: ad.max_pool1d(x, 3),
        ]
        seen = set()
        for case in cases:
            out = case()
            op, _, _, bwd = ad.active_graph().nodes[-1]
            ad.active_graph().clear()
            g = np.asarray(rng.normal(size=out.shape))
            before = g.tobytes()
            bwd(g)
            assert g.tobytes() == before, f"{op} backward wrote into its g"
            seen.add(op)
        assert seen == EMITTED_OPS


class TestFrozenInputs:
    """The network ops return None for each input that needs no gradient, and
    the gradients of the others are bitwise the all-trainable ones."""

    @staticmethod
    def grads(op, inputs, trainable, extra, g):
        for t, on in zip(inputs, trainable):
            t.requires_grad = on
        op(*inputs, *extra)
        _, _, _, bwd = ad.active_graph().nodes[-1]
        ad.active_graph().clear()
        return bwd(g)

    def check(self, op, shapes, extra, out_shape):
        rng = np.random.default_rng(18)
        inputs = [Tensor(rng.normal(size=s) + 1.0) for s in shapes]
        g = rng.normal(size=out_shape)
        full = self.grads(op, inputs, [True] * len(inputs), extra, g)
        for trainable in itertools.product([False, True], repeat=len(inputs)):
            if not any(trainable):
                continue
            got = self.grads(op, inputs, trainable, extra, g)
            for on, a, want in zip(trainable, got, full):
                if on:
                    assert a.tobytes() == want.tobytes(), (op.__name__, trainable)
                else:
                    assert a is None, (op.__name__, trainable)

    def test_linear(self):
        self.check(ad.linear, [(4, 3), (5, 3), (5,)], (), (4, 5))

    @pytest.mark.parametrize("stride,padding", [(1, 2), (2, 1)])
    def test_conv1d(self, stride, padding):
        out = ad.conv1d(Tensor(np.zeros((2, 3, 11))), Tensor(np.zeros((4, 3, 5))),
                        Tensor(np.zeros(4)), stride, padding)
        self.check(ad.conv1d, [(2, 3, 11), (4, 3, 5), (4,)], (stride, padding), out.shape)

    @pytest.mark.parametrize("mode", ["train-stats", "running-stats"])
    def test_batch_norm1d(self, mode):
        self.check(ad.batch_norm1d, [(2, 3, 7), (3,), (3,)], (BNState(3), mode), (2, 3, 7))

    def test_op_with_only_frozen_inputs_is_not_recorded(self):
        x, w, b = Tensor(np.ones((2, 3, 8))), Tensor(np.ones((4, 3, 3))), Tensor(np.zeros(4))
        ad.conv1d(x, w, b, 1, 1)
        assert len(ad.active_graph()) == 0


class TestRelease:
    """A released tensor keeps its place on the tape but no op reads it."""

    def test_release_drops_the_data_and_keeps_the_gradient_path(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        mid = ad.scalar_mul(x, 2.0)
        out = ad.relu(mid)
        mid.release()
        assert mid.data is None
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 2.0])

    def test_every_op_rejects_a_released_input(self):
        rng = np.random.default_rng(17)
        m, x = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(2, 3, 6)))
        w, bias = Tensor(rng.normal(size=(4, 3, 3))), Tensor(np.zeros(4))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        cases = [
            ("add", lambda r: ad.add(m, r)), ("sub", lambda r: ad.sub(r, m)),
            ("mul", lambda r: ad.mul(m, r)), ("scalar-mul", lambda r: ad.scalar_mul(r, 2.0)),
            ("linear", lambda r: ad.linear(m, r, bias)), ("relu", ad.relu),
            ("exp", ad.exp), ("log", ad.log), ("mean", ad.mean), ("sum", ad.tensor_sum),
            ("softmax", ad.softmax), ("log_softmax", ad.log_softmax),
            ("cosine-similarity", lambda r: ad.cosine_pairs(m, r)),
            ("concatenate", lambda r: ad.concat([m, r])),
            ("conv1d", lambda r: ad.conv1d(x, w, r)),
            ("batch_norm1d", lambda r: ad.batch_norm1d(x, gamma, r, BNState(3))),
            ("max_pool1d", lambda r: ad.max_pool1d(r, 2)),
        ]
        for op, case in cases:
            released = Tensor(np.ones((3, 4)), requires_grad=True)
            released.release()
            with pytest.raises(ContractError, match="released"):
                case(released)
        assert len(ad.active_graph()) == 0
        assert {op for op, _ in cases} == EMITTED_OPS


class TestOpSurface:
    """The engine holds only the ops the system records."""

    def test_every_op_is_recorded_by_the_system(self, monkeypatch, shift_data):
        train, target = shift_data
        emit, seen = ad._emit, set()

        def recording_emit(op, *args):
            seen.add(op)
            return emit(op, *args)

        monkeypatch.setattr(ad, "_emit", recording_emit)
        # a batch with two pseudo-label classes: ACCUP's loss on a one-class
        # batch is a constant and records nothing
        for config in (AccupConfig(), StrategyConfig("tent"), StrategyConfig("pseudo-label")):
            preds, _, _ = adapt_batch(AdaptState(tiny_model(), config, seed=0),
                                      target.values[8:16])
            if isinstance(config, AccupConfig):
                assert len(set(preds.tolist())) >= 2, f"one pseudo-label class: {preds}"
        pretrain_source(tiny_model(), train.values[:16], train.labels[:16], epochs=1,
                        batch_size=8, lr=1e-3, seed=0)
        assert seen == EMITTED_OPS


class TestFiniteDifferences:
    """Every primitive passes a central-difference check at rel. error < 1e-4."""

    def test_every_op_is_checked(self, monkeypatch):
        emit, seen = ad._emit, set()

        def recording_emit(op, *args):
            seen.add(op)
            return emit(op, *args)

        monkeypatch.setattr(ad, "_emit", recording_emit)
        for name in dir(self):
            if name.startswith("test_") and name != "test_every_op_is_checked":
                getattr(self, name)()
        assert seen == EMITTED_OPS

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        cases = [
            (lambda: ad.tensor_sum(ad.mul(ad.add(x, y), y)), [x, y]),
            (lambda: ad.tensor_sum(ad.sub(x, y), axis=None), [x, y]),
            (lambda: ad.mean(ad.exp(ad.scalar_mul(x, 0.3))), [x]),
            (lambda: ad.tensor_sum(ad.mul(ad.log(ad.softmax(x)), y)), [x, y]),
            (lambda: ad.tensor_sum(ad.mul(ad.log_softmax(x), y)), [x, y]),
            (lambda: ad.tensor_sum(ad.relu(x)), [x]),
            (lambda: ad.tensor_sum(ad.mean(x, axis=1)), [x]),
        ]
        for fn, tensors in cases:
            assert finite_difference_max_rel_error(fn, tensors) < 1e-4

    def test_linear_concat(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)), requires_grad=True)
        mix = Tensor(rng.normal(size=(4, 3)))
        assert finite_difference_max_rel_error(
            lambda: ad.tensor_sum(ad.linear(a, w, bias)), [a, w, bias]) < 1e-4
        assert finite_difference_max_rel_error(
            lambda: ad.tensor_sum(ad.mul(ad.concat([a, ad.scalar_mul(a, 2.0)]), mix)),
            [a]) < 1e-4

    def test_cosine_pairs(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        assert finite_difference_max_rel_error(
            lambda: ad.tensor_sum(ad.mul(ad.cosine_pairs(a, b), w)), [a, b]) < 1e-4

    def test_conv_and_pool(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 3, 10)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert finite_difference_max_rel_error(
            lambda: ad.tensor_sum(ad.conv1d(x, w, b, 2, 1)), [x, w, b]) < 1e-4
        assert finite_difference_max_rel_error(
            lambda: ad.tensor_sum(ad.max_pool1d(x, 2)), [x]) < 1e-4

    def test_batch_norm_both_modes(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(3,)) + 2.0, requires_grad=True)
        beta = Tensor(rng.normal(size=(3,)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 6)))
        state = BNState(3)
        assert finite_difference_max_rel_error(
            lambda: ad.tensor_sum(
                ad.mul(ad.batch_norm1d(x, gamma, beta, state.clone(), "train-stats"), w)
            ),
            [x, gamma, beta],
        ) < 1e-4
        assert finite_difference_max_rel_error(
            lambda: ad.tensor_sum(
                ad.mul(ad.batch_norm1d(x, gamma, beta, state, "running-stats"), w)
            ),
            [x, gamma, beta],
        ) < 1e-4


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        named = {
            "weights": Tensor(rng.normal(size=(3, 4, 5))),
            "bias": Tensor(rng.normal(size=(7,))),
            "scalar": Tensor(3.5),
        }
        path = tmp_path / "params.ttaw"
        ad.save_tensors(path, named)
        loaded = ad.load_tensors(path)
        assert set(loaded) == set(named)
        for name, t in named.items():
            np.testing.assert_array_equal(loaded[name], t.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ttaw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            ad.load_tensors(path)

    def test_name_that_is_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "params.ttaw"
        path.write_bytes(b"TTAW" + struct.pack("<IIH", 1, 1, 1) + b"\xff"
                         + struct.pack("<B", 0) + np.ones(1, "<f8").tobytes())
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*not utf-8"):
            ad.load_tensors(path)

    def test_extent_beyond_the_file_is_a_format_error(self, tmp_path):
        # a 2**40 extent must not reach a read of that many bytes
        path = tmp_path / "params.ttaw"
        path.write_bytes(b"TTAW" + struct.pack("<IIH", 1, 1, 1) + b"w"
                         + struct.pack("<BQ", 1, 2**40) + np.ones(10, "<f8").tobytes())
        with pytest.raises(FormatError, match="truncated while reading values of 'w'"):
            ad.load_tensors(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "params.ttaw"
        ad.save_tensors(path, {"w": Tensor(np.ones(10))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(FormatError):
            ad.load_tensors(path)
