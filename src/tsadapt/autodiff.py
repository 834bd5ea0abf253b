"""Dense float tensors with tape-based reverse-mode differentiation.

Conventions:
  * one dtype per graph: a Tensor keeps a float32 array as float32 and makes
    anything else float64; an op computes in its inputs' dtype, allocates
    its buffers and gradients in it, and raises ConformanceError when handed
    inputs of both dtypes, so a dtype leak fails loudly instead of upcasting
  * every op output is checked for finiteness
  * conv1d uses the cross-correlation convention (no kernel flip)
  * softmax and log_softmax subtract the row max before exponentiating
  * the tape records primitive applications in execution order and is
    consumed (and cleared) by backward(); a fresh graph is built on every
    forward pass, never reused across batches
  * gradients are lazy, one rule for every tensor: `grad` is None until
    backward reaches it, the first contribution is adopted without a copy
    and every later one is added out of place. An op output keeps its
    gradient only while backward passes through it, and backward pops the
    tape node by node, releasing each node's closure and activations
  * a backward function bwd(g) returns one input gradient per input: a
    fresh array, a view of g, or None (linear, conv1d and batch_norm1d
    compute none for an input that needs none). It never mutates g, since
    one array may be the gradient of several tensors at once

The encoder-block ops (conv1d, batch_norm1d, relu, max_pool1d) return
C-contiguous (B, C, L) outputs, and their backward functions return
C-contiguous input gradients: no op hands the next one a transposed view
that would force a copy. Nothing the size of an activation is kept for
their backward beyond the tensors the tape already holds: conv1d works tap
by tap from x instead of keeping its im2col columns, batch_norm1d
recomputes xhat from x, relu rebuilds its mask from its output, and
max_pool1d keeps only small-integer window indices.

Which arrays a backward reads is part of the contract:
  * conv1d reads its input x and its weight, never its output
  * batch_norm1d reads its input x, never its output
  * relu reads only its own output
  * max_pool1d reads only its window indices, neither its input nor its
    output
A caller that knows no later op or backward reads a tensor's array may
drop it with Tensor.release(); the tensor stays on the tape for its
gradient, and an op handed it afterwards raises ContractError.

add, sub and mul take operands of identical shape and do not broadcast;
any other pair raises ConformanceError.

Tensors may move between threads, but the active tape is a single shared
structure: recording and backward must stay on one thread at a time.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import (
    ConformanceError,
    ContractError,
    DegenerateBatchError,
    FormatError,
    NumericDomainError,
)


class Tensor:
    """A dense float32 or float64 array plus its gradient, once it has one.

    A float32 array stays float32; anything else becomes float64.

    `grad` starts as None for every tensor. backward gives it to a leaf with
    requires_grad=True (the optimizer reads it) and to an op output only
    while it passes through; it may share memory with another tensor's
    gradient, so nothing may write into it.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        float32 = getattr(data, "dtype", None) == np.float32
        arr = np.array(data, dtype=np.float32 if float32 else np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise NumericDomainError("tensor values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def release(self) -> None:
        """Drop the array of an activation no backward reads (see the module
        docstring); the tensor can still carry a gradient, but no op may
        take it as an input again."""
        self.data = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    if not isinstance(x, Tensor):
        return Tensor(x)
    if x.data is None:
        raise ContractError("tensor was released: its data is gone")
    return x


class Graph:
    """Execution-ordered tape of recorded primitive applications.

    Each node is (op name, input tensors, output tensor, backward fn); inputs
    always precede their consumers because nodes are appended as ops run.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list = []

    def clear(self) -> None:
        self.nodes.clear()

    @contextmanager
    def guard(self, label: str):
        """Clear the tape if the block raises, so no stale node reaches the
        next backward. A NumericDomainError is re-raised with `label`
        prefixed to its message."""
        try:
            yield
        except NumericDomainError as err:
            self.clear()
            raise NumericDomainError(f"{label}: {err}") from err
        except BaseException:
            self.clear()
            raise

    def __len__(self) -> int:
        return len(self.nodes)


_graph = Graph()
_grad_enabled = True


def active_graph() -> Graph:
    return _graph


@contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _emit(op: str, inputs: tuple, out_data: np.ndarray, bwd) -> Tensor:
    out_data = np.asarray(out_data)
    if any(t.data.dtype != out_data.dtype for t in inputs):
        raise ConformanceError(
            f"{op}: inputs of dtype {', '.join(t.data.dtype.name for t in inputs)} "
            f"gave a {out_data.dtype.name} result; an op takes one dtype")
    if out_data.size and not np.all(np.isfinite(out_data)):
        raise NumericDomainError(f"{op}: result contains non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    track = _grad_enabled and any(t.requires_grad for t in inputs)
    out.requires_grad = track
    out.grad = None
    if track:
        _graph.nodes.append((op, inputs, out, bwd))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf; clear the tape.

    Nodes are popped off the tape one at a time, and each output's gradient
    is taken and cleared before its node runs; a node whose output received
    no gradient is skipped. A tensor's first gradient is stored as the
    backward function returned it, with no copy: it may be the array handed
    to another input as well (add) or a view of the consumer's g (concat),
    so every later contribution, the loss's own included, is added out of
    place.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ContractError("backward expects a scalar tensor")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to the active graph")
    ones = np.ones_like(loss.data)
    loss.grad = ones if loss.grad is None else loss.grad + ones
    nodes = _graph.nodes
    try:
        while nodes:
            _, inputs, out, bwd = nodes.pop()
            g_out, out.grad = out.grad, None
            if g_out is None:
                continue
            for t, g in zip(inputs, bwd(g_out)):
                if g is not None and t.requires_grad:
                    t.grad = g if t.grad is None else t.grad + g
    finally:
        _graph.clear()


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def _check_binary(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ConformanceError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary("add", a, b)

    def bwd(g):
        return g, g

    return _emit("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary("sub", a, b)

    def bwd(g):
        return g, -g

    return _emit("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary("mul", a, b)
    da, db = a.data, b.data

    def bwd(g):
        return g * db, g * da

    return _emit("mul", (a, b), da * db, bwd)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _emit("scalar-mul", (a,), a.data * c, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for x (n,f), w (c,f), b (c,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ConformanceError(
            f"linear: shapes {x.shape}, {w.shape}, {b.shape} do not conform"
        )
    dx, dw = x.data, w.data

    def bwd(g):
        return (g @ dw if x.requires_grad else None,
                g.T @ dx if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _emit("linear", (x, w, b), dx @ dw.T + b.data, bwd)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (out > 0),)

    return _emit("relu", (a,), out, bwd)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _emit("exp", (a,), out, bwd)


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    da = a.data

    def bwd(g):
        return (g / da,)

    return _emit("log", (a,), out, bwd)


def _expand_reduced(g: np.ndarray, shape: tuple, axis) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    return np.broadcast_to(np.expand_dims(g, axis), shape).copy()


def mean(a: Tensor, axis=None) -> Tensor:
    a = _as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    shape = a.shape

    def bwd(g):
        return (_expand_reduced(g, shape, axis) / n,)

    return _emit("mean", (a,), a.data.mean(axis=axis), bwd)


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    def bwd(g):
        return (_expand_reduced(g, shape, axis),)

    return _emit("sum", (a,), a.data.sum(axis=axis), bwd)


def softmax(a: Tensor) -> Tensor:
    """Row-stable softmax over the last axis; rows sum to one."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _emit("softmax", (a,), s, bwd)


def log_softmax(a: Tensor) -> Tensor:
    """Row-stable log of the softmax over the last axis: the shifted logits
    minus their log-sum-exp. The sum holds exp(0) = 1, so no row takes
    log(0) however far its logits spread."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _emit("log_softmax", (a,), out, bwd)


def cosine_pairs(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarity between rows of a (n,d) and b (m,d).

    Pairs involving a zero-norm row get similarity 0 and zero gradient.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ConformanceError(
            f"cosine-similarity: shapes {a.shape} and {b.shape} do not conform"
        )
    da, db = a.data, b.data
    na = np.sqrt((da * da).sum(axis=1))
    nb = np.sqrt((db * db).sum(axis=1))
    inv_a = np.where(na == 0.0, 0.0, 1.0 / np.where(na == 0.0, 1.0, na))
    inv_b = np.where(nb == 0.0, 0.0, 1.0 / np.where(nb == 0.0, 1.0, nb))
    denom = inv_a[:, None] * inv_b[None, :]
    cos = (da @ db.T) * denom

    def bwd(g):
        gd = g * denom
        row = (g * cos).sum(axis=1) * inv_a * inv_a
        col = (g * cos).sum(axis=0) * inv_b * inv_b
        return gd @ db - row[:, None] * da, gd.T @ da - col[:, None] * db

    return _emit("cosine-similarity", (a, b), cos, bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(_as_tensor(t) for t in tensors)
    if not tensors:
        raise ContractError("concatenate needs at least one tensor")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    shapes = {t.shape[:axis] + t.shape[axis + 1:] for t in tensors}
    if len(shapes) != 1:
        raise ConformanceError(
            f"concatenate: shapes {[t.shape for t in tensors]} do not conform"
        )

    def bwd(g):
        sl = [slice(None)] * g.ndim
        pieces = []
        for i in range(len(sizes)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return _emit("concatenate", tensors, np.concatenate([t.data for t in tensors], axis=axis), bwd)


# ---------------------------------------------------------------------------
# network ops: 1-D convolution, batch norm, max pooling
# ---------------------------------------------------------------------------

def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate x (B,Cin,L) with kernels w (Cout,Cin,k) plus bias b (Cout,).

    Lout = floor((L + 2*padding - k) / stride) + 1.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ConformanceError(
            f"conv1d: shapes {x.shape}, {w.shape}, {b.shape} do not conform"
        )
    if stride < 1 or padding < 0:
        raise ContractError("conv1d: stride must be >= 1 and padding >= 0")
    bsz, cin, length = x.shape
    cout, _, k = w.shape
    if length + 2 * padding < k:
        raise ConformanceError(
            f"conv1d: kernel of width {k} wider than padded input of length "
            f"{length + 2 * padding}"
        )
    lout = (length + 2 * padding - k) // stride + 1
    # tap j of output t reads x[..., j - padding + stride*t]; padding is the
    # zero part of the columns, so x itself is never padded or copied whole
    taps = []
    for j in range(k):
        off = j - padding
        t0 = max(0, -(off // stride))
        t1 = min(lout, (length - 1 - off) // stride + 1)
        if t1 > t0:
            taps.append((j, t0, t1, slice(off + stride * t0, off + stride * (t1 - 1) + 1, stride)))
    # channel-first columns (B, Cin*k, Lout), so that the product is a
    # C-contiguous (B, Cout, Lout); they are freed before _emit allocates
    dtype = x.data.dtype
    cols = (np.zeros if padding else np.empty)((bsz, cin, k, lout), dtype)
    for j, t0, t1, src in taps:
        cols[:, :, j, t0:t1] = x.data[:, :, src]
    out = w.data.reshape(cout, cin * k) @ cols.reshape(bsz, cin * k, lout)
    del cols
    out += b.data[:, None]

    def bwd(g):
        dx = dw = None
        if w.requires_grad:
            dw = np.zeros((cout, cin, k), dtype)
            for j, t0, t1, src in taps:
                dw[:, :, j] = (g[:, :, t0:t1] @ x.data[:, :, src].transpose(0, 2, 1)).sum(axis=0)
        if x.requires_grad:
            dx = np.zeros((bsz, cin, length), dtype)
            dtap = np.empty((bsz, cin, lout), dtype)
            for j, t0, t1, src in taps:
                np.matmul(w.data[:, :, j].T, g, out=dtap)
                dx[:, :, src] += dtap[:, :, t0:t1]
        return dx, dw, g.sum(axis=(0, 2)) if b.requires_grad else None

    return _emit("conv1d", (x, w, b), out, bwd)


class BNState:
    """Running statistics of one batch-norm layer (one float64 value per channel)."""

    __slots__ = ("running_mean", "running_var", "momentum")

    def __init__(self, channels: int, momentum: float = 0.1):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = float(momentum)

    def clone(self) -> "BNState":
        c = BNState(len(self.running_mean), self.momentum)
        c.running_mean = self.running_mean.copy()
        c.running_var = self.running_var.copy()
        return c


def batch_norm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BNState,
    mode: str = "train-stats",
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel normalization of x (B,C,L); output = gamma * xhat + beta.

    train-stats normalizes with current batch statistics and folds them into
    the running estimates (momentum update, unbiased variance); running-stats
    normalizes with the stored estimates and mutates nothing. The running
    estimates stay float64 whatever x's dtype; running-stats normalizes with
    a copy cast to x's dtype.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 3 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ConformanceError(
            f"batch_norm1d: shapes {x.shape}, {gamma.shape}, {beta.shape} do not conform"
        )
    if mode not in ("train-stats", "running-stats"):
        raise ContractError(f"batch_norm1d: unknown mode {mode!r}")
    bsz, _, length = x.shape
    m = bsz * length
    g_dat, b_dat = gamma.data, beta.data

    if mode == "train-stats":
        if m < 2:
            raise DegenerateBatchError(
                f"batch_norm1d: need at least 2 values per channel, got {m}"
            )
        mu = x.data.mean(axis=(0, 2))
        out = x.data - mu[None, :, None]
        var = np.einsum("bcl,bcl->c", out, out) / m
        mom = state.momentum
        state.running_mean = (1.0 - mom) * state.running_mean + mom * mu
        state.running_var = (1.0 - mom) * state.running_var + mom * var * (m / (m - 1))
    else:
        # copies in x's dtype: backward must see the statistics this forward used
        mu, var = state.running_mean.astype(x.data.dtype), state.running_var.astype(x.data.dtype)
        out = x.data - mu[None, :, None]
    inv = 1.0 / np.sqrt(var + eps)
    s = g_dat * inv
    out *= s[None, :, None]
    out += b_dat[None, :, None]

    def bwd(g):
        # xhat is recomputed from x rather than kept alive on the tape
        xhat = x.data - mu[None, :, None]
        xhat *= inv[None, :, None]
        dgamma = np.einsum("bcl,bcl->c", g, xhat)
        dbeta = g.sum(axis=(0, 2))
        dx = None  # stays None for the output of a frozen conv
        if x.requires_grad and mode == "running-stats":
            dx = g * s[None, :, None]
        elif x.requires_grad:
            # s * (g - mean(g) - xhat * mean(g * xhat)), in the buffer of xhat
            dx = xhat
            dx *= (-dgamma / m)[None, :, None]
            dx += g
            dx -= (dbeta / m)[None, :, None]
            dx *= s[None, :, None]
        return (dx, dgamma if gamma.requires_grad else None,
                dbeta if beta.requires_grad else None)

    return _emit("batch_norm1d", (x, gamma, beta), out, bwd)


def max_pool1d(x: Tensor, width: int) -> Tensor:
    """Non-overlapping max pooling over time; trailing remainder is dropped."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ConformanceError(f"max_pool1d: expected 3-d input, got {x.shape}")
    bsz, ch, length = x.shape
    if width < 1 or length < width:
        raise ConformanceError(
            f"max_pool1d: pool width {width} does not fit length {length}"
        )
    lout = length // width
    dtype = x.data.dtype
    view = x.data[:, :, : lout * width].reshape(bsz, ch, lout, width)
    # width - 1 compares over the window view; strict > keeps the first
    # maximum, as argmax would, and since j exceeds every index recorded so
    # far, max(arg, win * j) records j exactly where window slot j wins
    out = view[..., 0].copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(width - 1))
    for j in range(1, width):
        np.maximum(arg, (view[..., j] > out) * arg.dtype.type(j), out=arg)
        np.maximum(out, view[..., j], out=out)

    def bwd(g):
        # each window slot is written once; only the dropped remainder is
        # zero-filled
        dx = np.empty((bsz, ch, length), dtype)
        dview = dx[:, :, : lout * width].reshape(bsz, ch, lout, width)
        for j in range(width):
            np.multiply(g, arg == j, out=dview[..., j])
        dx[:, :, lout * width:] = 0.0
        return (dx,)

    return _emit("max_pool1d", (x,), out, bwd)


# ---------------------------------------------------------------------------
# parameter snapshots ("TTAW" little-endian container)
# ---------------------------------------------------------------------------

_MAGIC = b"TTAW"
_VERSION = 1


def save_tensors(path, named: dict) -> None:
    """Write named tensors: magic, version u32, count u32, then per tensor
    (name length u16, utf-8 name, rank u8, extents u64 each, f64 values)."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(named)))
        for name, t in named.items():
            arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
            enc = name.encode("utf-8")
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<B", arr.ndim))
            if arr.ndim:
                f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def load_tensors(path) -> dict:
    """Read a snapshot back as name -> float64 ndarray; every declared size
    is checked against the bytes left in the file before it is read."""

    def take(f, n, what):
        left = os.fstat(f.fileno()).st_size - f.tell()
        if n > left:
            raise FormatError(f"{path}: snapshot truncated while reading {what}: "
                              f"{n} bytes needed, {left} left")
        return f.read(n)

    out = {}
    with open(path, "rb") as f:
        if take(f, 4, "magic") != _MAGIC:
            raise FormatError(f"{path}: bad magic: not a TTAW snapshot")
        version, count = struct.unpack("<II", take(f, 8, "header"))
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported snapshot version {version}")
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(f, 2, "name length"))
            raw = take(f, nlen, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: tensor name {raw!r} is not utf-8") from None
            (rank,) = struct.unpack("<B", take(f, 1, "rank"))
            shape = struct.unpack(f"<{rank}Q", take(f, 8 * rank, "extents")) if rank else ()
            vals = np.frombuffer(take(f, 8 * math.prod(shape), f"values of {name!r}"),
                                 dtype="<f8")
            if vals.size and not np.all(np.isfinite(vals)):
                raise NumericDomainError(
                    f"{path}: snapshot tensor {name!r} contains non-finite values"
                )
            out[name] = vals.reshape(shape).astype(np.float64)
    return out
