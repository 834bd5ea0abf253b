"""Adam over one flat moment buffer: bitwise a per-tensor Adam."""

import numpy as np
import pytest

from tsadapt.autodiff import Tensor
from tsadapt.errors import ConfigurationError
from tsadapt.optim import Adam

SHAPES = [(), (3,), (2, 3, 4), (5, 1), (1,)]


def reference_adam(params, grads, steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Standard Adam with one pair of moments per tensor; grads[s][i] is
    parameter i's gradient at step s."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        for p, g, mi, vi in zip(params, grads[t - 1], m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            mhat = mi / (1.0 - b1 ** t)
            vhat = vi / (1.0 - b2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)
    return params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lr", [1e-3, 0.0])
def test_flat_adam_equals_per_tensor_adam_bitwise(dtype, lr):
    rng = np.random.default_rng(0)
    start = [rng.normal(size=s).astype(dtype) for s in SHAPES]
    grads = [[rng.normal(size=s).astype(dtype) for s in SHAPES] for _ in range(5)]
    params = [Tensor(p, requires_grad=True) for p in start]
    opt = Adam(params, lr=lr)
    for step_grads in grads:
        opt.zero_grad()
        assert all(p.grad is None for p in params)
        for p, g in zip(params, step_grads):
            p.grad = g
        opt.step()
    expected = reference_adam([p.copy() for p in start], grads, 5, lr)
    assert opt.t == 5
    for p, want in zip(params, expected):
        assert p.data.dtype == dtype and p.data.shape == want.shape
        assert p.data.tobytes() == want.tobytes()
    if lr == 0.0:
        assert all(p.data.tobytes() == s.tobytes() for p, s in zip(params, start))


def test_no_parameters_still_counts_steps():
    opt = Adam([], lr=1e-3)
    opt.zero_grad()
    opt.step()
    opt.step()
    assert opt.t == 2 and opt.params == []


def test_parameters_of_two_dtypes_are_rejected():
    a = Tensor(np.zeros(2, np.float32), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ConfigurationError, match="one dtype"):
        Adam([a, b])


def test_missing_gradient_reads_as_zeros():
    # a parameter backward never reached steps as if its gradient were zero
    rng = np.random.default_rng(1)
    start = [rng.normal(size=s) for s in SHAPES]
    grads = [[rng.normal(size=s) for s in SHAPES] for _ in range(3)]
    for step_grads in grads:
        step_grads[1] = np.zeros(SHAPES[1])
    params = [Tensor(p, requires_grad=True) for p in start]
    opt = Adam(params, lr=1e-3)
    for step_grads in grads:
        opt.zero_grad()
        for i, (p, g) in enumerate(zip(params, step_grads)):
            if i != 1:
                p.grad = g
        opt.step()
    expected = reference_adam([p.copy() for p in start], grads, 3, 1e-3)
    assert params[1].grad is None
    for p, want in zip(params, expected):
        assert p.data.tobytes() == want.tobytes()


def test_frozen_parameters_are_rejected():
    with pytest.raises(ConfigurationError, match="requires_grad"):
        Adam([Tensor(np.zeros(2), requires_grad=True), Tensor(np.zeros(2))])
