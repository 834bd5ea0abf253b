"""Three-block 1D-CNN encoder, linear classifier, and source pretraining.

Each encoder block is conv1d -> batch norm -> max pool -> relu; a global
average pool over time turns the last block's activations into one feature
vector per sample. The classifier is a single linear layer.

Pooling before relu is the same function as the usual relu-then-pool
order: the windows do not overlap, and max(max_j x_j, 0) = max_j max(x_j, 0).
The gradients are the same as well. A window whose maximum is positive
routes its gradient to the same first maximum either way, and a window
whose maximum is not positive passes none in either order. relu then runs
on the pooled values only, half of them at pool width 2.

Once relu has run, `encode` releases the batch-norm and max-pool outputs,
because no backward reads them (see the autodiff module docstring). Each
block keeps only its conv1d output, which batch norm's backward reads, and
its relu output, which relu's own backward and the next block's conv1d
read.

Every model is built in MODEL_DTYPE (float32), and pretraining and
adaptation run in the dtype of the model they are handed; only the batch
norm running statistics stay float64. `Model.clone(np.float64)` gives a
float64 copy, which the gradient checks and the precision tests use.
Snapshots store every value as float64, which holds a float32 value
exactly, and `load_model` rounds what it reads into a float32 model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BNState, Tensor
from .config import Record, is_count, read_json_object
from .errors import (
    ConfigurationError,
    ConformanceError,
    ContractError,
    FormatError,
    LabelRangeError,
    NumericDomainError,
    TsadaptError,
)

BN_MODES = ("train-stats", "running-stats")

# The dtype every model is built in. float32 halves the bytes the
# memory-bound encoder moves, and at the desk, ucihar, ssc and mfd shapes it
# predicts what float64 does.
MODEL_DTYPE = np.float32


@dataclass(frozen=True)
class EncoderConfig(Record):
    """Shape of the encoder: three blocks of (filters, kernel, stride, pool).

    Convolutions use padding = kernel // 2 ("same" up to parity), so pooling
    does all the shrinking. The feature dimension equals the last filter
    count because of the global average pool.
    """

    in_channels: int
    filters: tuple[int, ...] = (64, 128, 128)
    kernel_sizes: tuple[int, ...] = (8, 5, 3)
    strides: tuple[int, ...] = (1, 1, 1)
    pool_widths: tuple[int, ...] = (2, 2, 2)

    def __post_init__(self):
        if not is_count(self.in_channels) or self.in_channels < 1:
            raise ContractError(f"in_channels must be a positive integer, got {self.in_channels!r}")
        for name in ("filters", "kernel_sizes", "strides", "pool_widths"):
            counts = getattr(self, name)
            if len(counts) != 3:
                raise ContractError(f"{name} must list exactly three blocks")
            if not all(is_count(n) and n >= 1 for n in counts):
                raise ContractError(f"{name} must all be positive integers, got {counts!r}")

    @property
    def feature_dim(self) -> int:
        return self.filters[-1]


class ConvBlock:
    __slots__ = ("weight", "bias", "gamma", "beta", "bn")

    def __init__(self, weight, bias, gamma, beta, bn: BNState):
        self.weight = weight
        self.bias = bias
        self.gamma = gamma
        self.beta = beta
        self.bn = bn


class Model:
    """Encoder parameters (conv + BN per block) and a linear classifier.

    The parameters are drawn in float64 and rounded to MODEL_DTYPE.
    """

    def __init__(self, config: EncoderConfig, n_classes: int, seed: int = 0):
        if n_classes < 2:
            raise ContractError("need at least two classes")
        if seed < 0:
            raise ConfigurationError(f"model seed must be non-negative, got {seed}")
        self.config = config
        self.n_classes = n_classes
        rng = np.random.default_rng(seed)

        def param(values):
            return Tensor(values.astype(MODEL_DTYPE), requires_grad=True)

        self.blocks: list[ConvBlock] = []
        cin = config.in_channels
        for f, k in zip(config.filters, config.kernel_sizes):
            std = np.sqrt(2.0 / (cin * k))
            self.blocks.append(
                ConvBlock(
                    weight=param(rng.normal(0.0, std, (f, cin, k))),
                    bias=param(np.zeros(f)),
                    gamma=param(np.ones(f)),
                    beta=param(np.zeros(f)),
                    bn=BNState(f),
                )
            )
            cin = f
        fdim = config.feature_dim
        self.cls_weight = param(rng.normal(0.0, np.sqrt(1.0 / fdim), (n_classes, fdim)))
        self.cls_bias = param(np.zeros(n_classes))

    def encoder_parameters(self, blocks=(True, True, True)) -> dict:
        params = {}
        for i, (blk, on) in enumerate(zip(self.blocks, blocks)):
            if not on:
                continue
            params[f"enc.{i}.conv.w"] = blk.weight
            params[f"enc.{i}.conv.b"] = blk.bias
            params[f"enc.{i}.bn.gamma"] = blk.gamma
            params[f"enc.{i}.bn.beta"] = blk.beta
        return params

    def bn_parameters(self) -> dict:
        params = {}
        for i, blk in enumerate(self.blocks):
            params[f"enc.{i}.bn.gamma"] = blk.gamma
            params[f"enc.{i}.bn.beta"] = blk.beta
        return params

    def named_parameters(self) -> dict:
        params = self.encoder_parameters()
        params["cls.w"] = self.cls_weight
        params["cls.b"] = self.cls_bias
        return params

    def named_buffers(self) -> dict:
        bufs = {}
        for i, blk in enumerate(self.blocks):
            bufs[f"enc.{i}.bn.rmean"] = blk.bn.running_mean
            bufs[f"enc.{i}.bn.rvar"] = blk.bn.running_var
        return bufs

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter; BN running statistics stay float64."""
        return self.cls_weight.data.dtype

    def clone(self, dtype=None) -> "Model":
        """A copy with its parameters in `dtype` (default: the model's own)."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)

        def param(t):
            return Tensor(t.data.astype(dtype, copy=False), requires_grad=True)

        other = Model.__new__(Model)
        other.config = self.config
        other.n_classes = self.n_classes
        other.blocks = [
            ConvBlock(
                weight=param(b.weight),
                bias=param(b.bias),
                gamma=param(b.gamma),
                beta=param(b.beta),
                bn=b.bn.clone(),
            )
            for b in self.blocks
        ]
        other.cls_weight = param(self.cls_weight)
        other.cls_bias = param(self.cls_bias)
        return other


def cast(values, dtype) -> np.ndarray:
    """`values` as a `dtype` array. A value beyond the dtype's range becomes
    inf, which the first Tensor built from it rejects."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=dtype)


def encode(model: Model, x, bn_mode: str = "running-stats") -> Tensor:
    """Run the encoder on a (B, Cin, L) batch, returning (B, F) features.

    An array batch is cast to the model's dtype; a Tensor batch must already
    have it.
    """
    if bn_mode not in BN_MODES:
        raise ContractError(f"unknown bn mode {bn_mode!r}")
    t = x if isinstance(x, Tensor) else Tensor(cast(x, model.dtype))
    if t.ndim != 3 or t.shape[1] != model.config.in_channels:
        raise ConformanceError(
            f"encode: input shape {t.shape} does not conform to "
            f"(B, {model.config.in_channels}, L)"
        )
    cfg = model.config
    for blk, k, s, p in zip(model.blocks, cfg.kernel_sizes, cfg.strides, cfg.pool_widths):
        t = ad.conv1d(t, blk.weight, blk.bias, stride=s, padding=k // 2)
        normed = ad.batch_norm1d(t, blk.gamma, blk.beta, blk.bn, mode=bn_mode)
        pooled = ad.max_pool1d(normed, p)
        t = ad.relu(pooled)
        normed.release()
        pooled.release()
    return ad.mean(t, axis=2)


def classify(model: Model, features) -> Tensor:
    """Linear classifier: logits = features @ W.T + bias.

    An array of features is cast to the model's dtype; a Tensor must already
    have it.
    """
    f = features if isinstance(features, Tensor) else Tensor(cast(features, model.dtype))
    return ad.linear(f, model.cls_weight, model.cls_bias)


def forward(model: Model, x, bn_mode: str = "running-stats"):
    feats = encode(model, x, bn_mode)
    return feats, classify(model, feats)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the given integer labels."""
    n, c = logits.shape
    onehot = np.zeros((n, c), logits.data.dtype)
    onehot[np.arange(n), labels] = 1.0
    picked = ad.mul(ad.log_softmax(logits), Tensor(onehot))
    return ad.scalar_mul(ad.tensor_sum(picked), -1.0 / n)


def pretrain_source(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int = 40,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    epoch_losses: list | None = None,
) -> Model:
    """Empirical risk minimization with Adam and cross-entropy.

    Trains encoder and classifier jointly with BN in train-stats mode, in
    the model's dtype (x is cast to it once); the model is updated in place
    and returned. epoch_losses, when given, is filled with the mean
    minibatch loss of each epoch. A sample with a value that is not finite
    in the model's dtype raises NumericDomainError naming the first such
    sample before any step, so the model is left untouched.
    """
    from .optim import Adam

    if epochs < 0:
        raise ConfigurationError(f"pretraining epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ConfigurationError(f"pretraining batch size must be >= 1, got {batch_size}")
    if seed < 0:
        raise ConfigurationError(f"pretraining seed must be non-negative, got {seed}")
    x = cast(x, model.dtype)
    y = np.asarray(y)
    if x.ndim != 3 or len(x) != len(y):
        raise ContractError(f"bad training data shapes {x.shape} / {y.shape}")
    if len(x) == 0:
        raise ContractError("empty training dataset")
    bad = ~np.isfinite(x).all(axis=(1, 2))
    if bad.any():
        raise NumericDomainError(
            f"training sample {int(bad.argmax())} has values that are not finite "
            f"in {x.dtype.name}"
        )
    if not np.issubdtype(y.dtype, np.integer) or y.min() < 0 or y.max() >= model.n_classes:
        raise LabelRangeError(
            f"labels must be integers in 0..{model.n_classes - 1}"
        )
    opt = Adam(list(model.named_parameters().values()), lr=lr)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        losses = []
        for start in range(0, len(x), batch_size):
            idx = order[start:start + batch_size]
            _, logits = forward(model, x[idx], bn_mode="train-stats")
            loss = cross_entropy(logits, y[idx])
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            losses.append(loss.item())
        if epoch_losses is not None:
            epoch_losses.append(float(np.mean(losses)))
    return model


def predict(model: Model, x, bn_mode: str = "running-stats") -> np.ndarray:
    """Argmax class of each sample, without recording a graph."""
    with ad.no_grad():
        _, logits = forward(model, x, bn_mode)
    return logits.data.argmax(axis=1)


# ---------------------------------------------------------------------------
# snapshots: binary tensors plus a JSON sidecar with the architecture
# ---------------------------------------------------------------------------

@dataclass
class _Sidecar(Record):
    """The `<snapshot>.json` file that describes a snapshot's architecture."""

    encoder: EncoderConfig
    n_classes: int


def save_model(path, model: Model) -> None:
    tensors = dict(model.named_parameters())
    tensors.update(model.named_buffers())
    ad.save_tensors(path, tensors)
    sidecar = _Sidecar(model.config, model.n_classes)
    with open(f"{path}.json", "w") as f:
        json.dump(sidecar.to_dict(), f, indent=2, sort_keys=True)


def load_model(path) -> Model:
    """Rebuild a snapshot in MODEL_DTYPE, rounding each stored value to it.

    A malformed sidecar, a missing or misshapen tensor, and a value beyond
    the model dtype's range raise FormatError naming the file.
    """
    d = read_json_object(f"{path}.json")
    try:
        sidecar = _Sidecar.from_dict(d)
        model = Model(sidecar.encoder, sidecar.n_classes)
    except TsadaptError as err:
        raise FormatError(f"{path}.json: {err}") from None
    tensors = ad.load_tensors(path)
    targets = {name: p.data for name, p in model.named_parameters().items()}
    targets.update(model.named_buffers())
    for name, arr in targets.items():
        if name not in tensors:
            raise FormatError(f"{path}: snapshot is missing tensor {name!r}")
        if tensors[name].shape != arr.shape:
            raise FormatError(
                f"{path}: snapshot tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {arr.shape}"
            )
        arr[...] = cast(tensors[name], arr.dtype)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: snapshot tensor {name!r} has values beyond {arr.dtype}")
    return model
