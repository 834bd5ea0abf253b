#!/usr/bin/env python3
"""Tour of the tensor engine: primitives, gradients, snapshots.

The engine computes in float32 or float64, whichever its inputs hold; this
tour uses float64 throughout, which the central difference below needs.

Run from the repository root:  python3 demos/01_tensor_engine.py
"""

import tempfile
from pathlib import Path

import numpy as np

import tsadapt.autodiff as ad
from tsadapt.autodiff import Tensor

rng = np.random.default_rng(0)

# --- forward primitives ----------------------------------------------------
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(2, 3)))
b = Tensor(np.zeros(2))

print("softmax rows sum to", ad.softmax(x).data.sum(axis=1))
print("linear x @ w.T + b, (4,3) by (2,3) ->", ad.linear(x, w, b).shape)
ad.active_graph().clear()

# --- reverse-mode gradients --------------------------------------------------
# loss = sum(x * x) has the textbook gradient 2x; x.grad is None until then
ad.backward(ad.tensor_sum(ad.mul(x, x)))
print("quadratic gradient matches 2x:", np.allclose(x.grad, 2 * x.data))

# a quick central-difference check on a composite expression
y = Tensor(rng.normal(size=(4, 3)), requires_grad=True)


def loss_fn():
    return ad.tensor_sum(ad.mul(ad.log(ad.softmax(y)), Tensor(np.ones((4, 3)))))


loss = loss_fn()
ad.backward(loss)
analytic = y.grad.copy()
h = 1e-5
i = (2, 1)
y.data[i] += h
with ad.no_grad():
    up = loss_fn().item()
y.data[i] -= 2 * h
with ad.no_grad():
    down = loss_fn().item()
y.data[i] += h
numeric = (up - down) / (2 * h)
print(f"finite difference at one coordinate: analytic={analytic[i]:.8f} "
      f"numeric={numeric:.8f}")

# --- network ops --------------------------------------------------------------
signal = Tensor(rng.normal(size=(2, 3, 16)), requires_grad=True)
kernels = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
bias = Tensor(np.zeros(5), requires_grad=True)
conv = ad.conv1d(signal, kernels, bias, stride=1, padding=2)
print("conv1d (2,3,16) with 5 kernels of width 4, padding 2 ->", conv.shape)

state = ad.BNState(5)
normed = ad.batch_norm1d(conv, Tensor(np.ones(5)), Tensor(np.zeros(5)), state,
                         "train-stats")
print("batch norm per-channel mean ~0:", np.allclose(normed.data.mean(axis=(0, 2)), 0,
                                                     atol=1e-10))
# the encoder's block order: pooling first, so relu runs on half the values
activated = ad.relu(ad.max_pool1d(normed, 2))
ad.backward(ad.tensor_sum(activated))
print("gradient flowed back to the input:", float(np.abs(signal.grad).sum()) > 0)

# --- parameter snapshots -------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "params.ttaw"
    ad.save_tensors(path, {"kernels": kernels, "bias": bias})
    loaded = ad.load_tensors(path)
    print("snapshot round trip bitwise:",
          np.array_equal(loaded["kernels"], kernels.data))
