"""Shared test helpers: finite differences, toy models, a tiny shift scenario."""

import json
from collections import defaultdict

import numpy as np
import pytest

import tsadapt.accup as acc
import tsadapt.autodiff as ad
from tsadapt.backbone import EncoderConfig, Model, pretrain_source
from tsadapt.data import ShiftSpec, generate_shifted_pair


def finite_difference_max_rel_error(loss_fn, tensors, h=1e-5, floor=1e-6):
    """Compare analytic gradients of loss_fn() against central differences.

    loss_fn must rebuild the graph on every call; tensors are the leaves to
    check. Returns the worst relative error over all coordinates. The floor
    keeps coordinates whose true gradient is zero (e.g. a conv bias feeding a
    train-mode batch norm) in the absolute-error regime instead of comparing
    float noise against float noise. Every checked tensor must be float64:
    a step of h = 1e-5 is below float32's resolution. A tensor backward never
    reaches keeps grad None, which reads as a zero gradient. A loss that depends on
    no tensor (requires_grad False, as ACCUP's on a one-class batch) gets no backward,
    so every gradient reads as zero.
    """
    for t in tensors:
        assert t.data.dtype == np.float64, f"central differences need float64, got {t.data.dtype}"
        t.grad = None
    loss = loss_fn()
    if loss.requires_grad:
        ad.backward(loss)
    else:
        ad.active_graph().clear()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
    worst = 0.0
    for t, g in zip(tensors, grads):
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                up = loss_fn().item()
            flat[i] = orig - h
            with ad.no_grad():
                down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(numeric), abs(gflat[i]), floor)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


def tiny_model(n_classes=3, in_channels=2, seed=0):
    """A small but fully wired float64 model for fast gradient and pipeline
    tests (central differences need float64)."""
    config = EncoderConfig(
        in_channels=in_channels,
        filters=(3, 4, 5),
        kernel_sizes=(3, 3, 3),
        pool_widths=(2, 1, 2),
    )
    return Model(config, n_classes, seed=seed).clone(np.float64)


# (dotted key, value) pairs the experiment config reader must reject, naming
# the key: strings for bools, floats for ints, non-lists for lists, NaN and
# ±Infinity (which Python's json reads) for floats, and the encoder's
# in_channels, which the data fix
WRONG_TYPED_CONFIG_VALUES = [
    ("accup.use_contrast", "false"),
    ("layer_mask.conv1", "false"),
    ("accup.augment.knots", 2.9),
    ("data.source.channels", 2.7),
    ("seeds", ["a"]),
    ("seeds", 5),
    ("batch_size", "x"),
    ("accup.eta", "big"),
    ("accup.lr", float("nan")),
    ("accup.tau", float("inf")),
    ("data.target.amplitude", float("-inf")),
    ("pretrain_lr", float("nan")),
    ("accup", [1]),
    ("data.kind", "tape"),
    ("data.kind", ["synthetic"]),
    ("encoder.filters", [4.5, 6, 6]),
    ("encoder.kernel_sizes", 5),
    ("encoder.strides", [1, True, 1]),
    ("encoder", [16, 24, 24]),
    ("encoder.in_channels", 2),
]
WRONG_TYPED_CONFIG_IDS = [f"{key}={json.dumps(value)}"
                          for key, value in WRONG_TYPED_CONFIG_VALUES]

# well-typed (key, value) pairs out of range, which must fail at load naming
# the key: a zero pretraining batch or a negative seed used to die late with
# a bare ValueError, a repeated seed overwrote its own snapshot, and a
# negative baseline_lr was written into the summary of an ACCUP run
OUT_OF_RANGE_CONFIG_VALUES = [
    ("pretrain_batch", 0),
    ("pretrain_epochs", -1),
    ("pretrain_lr", -1.0),
    ("baseline_lr", -1.0),
    ("seeds", [-1]),
    ("seeds", [0, 0]),
]
OUT_OF_RANGE_CONFIG_IDS = [f"{key}={json.dumps(value)}"
                           for key, value in OUT_OF_RANGE_CONFIG_VALUES]


def set_dotted(d: dict, key: str, value) -> dict:
    """Set d[a][b][c] = value for key "a.b.c"; returns d."""
    *parents, last = key.split(".")
    node = d
    for name in parents:
        node = node[name]
    node[last] = value
    return d


SOURCE_SPEC = ShiftSpec(amplitude=0.1, noise_std=0.03)
TARGET_SPEC = ShiftSpec(amplitude=0.3, noise_std=0.5)


@pytest.fixture(scope="session")
def shift_data():
    """One small source/target draw shared across tests."""
    return generate_shifted_pair(SOURCE_SPEC, TARGET_SPEC, (192, 320), seed=0)


@pytest.fixture(scope="session")
def pretrained(shift_data):
    """A quickly pretrained compact model on the shared source split."""
    train, _ = shift_data
    model = Model(EncoderConfig(in_channels=2, filters=(8, 12, 12)), 3, seed=0)
    pretrain_source(model, train.values, train.labels, epochs=8, batch_size=32,
                    lr=1e-3, seed=0)
    return model


@pytest.fixture
def accup_calls(monkeypatch):
    """Record the calls the ACCUP step makes into tsadapt.accup.

    Maps each function name to a list of (positional args, result), in call
    order; clear it to start a new record.
    """
    calls = defaultdict(list)

    def spy(name, fn):
        def recorder(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append((args, out))
            return out
        return recorder

    for name in ("ensemble", "update_support", "compute_prototypes",
                 "prototype_logits", "entropy_compare", "contrastive_loss"):
        monkeypatch.setattr(acc, name, spy(name, getattr(acc, name)))
    return calls
