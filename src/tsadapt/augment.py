"""Shape- and label-preserving time-series augmentations.

All functions take and return (B, C, L) arrays and draw nothing outside the
numpy Generator they are handed, so a fixed seed stream reproduces any
augmentation bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .config import Record, is_count
from .errors import ConfigurationError, ContractError

KINDS = ("magnitude-warp", "jitter", "scale", "permutation", "compose", "none")


@dataclass(frozen=True)
class AugmentSpec(Record):
    """One augmentation (or a left-to-right composition of several).

    sigma is the dispersion of the warp/jitter/scale draw, knots the number
    of warp control points (endpoints included), segments the number of
    permutation chunks.
    """

    kind: str = "magnitude-warp"
    sigma: float = 0.2
    knots: int = 4
    segments: int = 5
    parts: tuple[AugmentSpec, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown augmentation kind {self.kind!r}")
        if not 0 <= self.sigma < math.inf:
            raise ConfigurationError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not is_count(self.knots) or self.knots < 2:
            raise ConfigurationError(f"knots must be an integer >= 2, got {self.knots!r}")
        if not is_count(self.segments) or self.segments < 1:
            raise ConfigurationError(f"segments must be an integer >= 1, got {self.segments!r}")
        if self.kind == "compose" and not self.parts:
            raise ConfigurationError("compose needs a non-empty part list")


def _require_kind(spec: AugmentSpec, kind: str) -> None:
    if spec.kind != kind:
        raise ContractError(f"expected a {kind} spec, got {spec.kind!r}")


def magnitude_warp(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Multiply each (sample, channel) series by a smooth random curve around 1.

    Knot values are drawn from Normal(1, sigma^2) at `knots` evenly spaced
    positions and interpolated to length L with a natural cubic spline. One
    curve is drawn per sample-channel pair so inter-channel timing is
    preserved.
    """
    _require_kind(spec, "magnitude-warp")
    b, c, length = x.shape
    if length < spec.knots:
        raise ConfigurationError(
            f"series length {length} shorter than {spec.knots} warp knots"
        )
    pos = np.linspace(0.0, length - 1.0, spec.knots)
    vals = rng.normal(1.0, spec.sigma, size=(b, c, spec.knots))
    flat = vals.reshape(b * c, spec.knots).T  # (knots, B*C)
    t = np.arange(length, dtype=np.float64)
    curve = CubicSpline(pos, flat, axis=0, bc_type="natural")(t)
    return x * curve.T.reshape(b, c, length)


def jitter(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Add Normal(0, sigma^2) noise per element."""
    _require_kind(spec, "jitter")
    return x + rng.normal(0.0, spec.sigma, size=x.shape)


def scale(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Multiply each sample-channel series by one Normal(1, sigma^2) scalar."""
    _require_kind(spec, "scale")
    b, c, _ = x.shape
    return x * rng.normal(1.0, spec.sigma, size=(b, c, 1))


def permutation(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Split the time axis into equal-as-possible chunks and shuffle them.

    One permutation per sample, shared across channels.
    """
    _require_kind(spec, "permutation")
    b, _, length = x.shape
    if spec.segments > length:
        raise ConfigurationError(
            f"cannot split length {length} into {spec.segments} segments"
        )
    chunks = np.array_split(np.arange(length), spec.segments)
    out = np.empty_like(x)
    for i in range(b):
        order = rng.permutation(spec.segments)
        idx = np.concatenate([chunks[j] for j in order])
        out[i] = x[i][:, idx]
    return out


_DISPATCH = {
    "magnitude-warp": magnitude_warp,
    "jitter": jitter,
    "scale": scale,
    "permutation": permutation,
}


def apply_augment(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Apply an AugmentSpec to a (B, C, L) batch of values."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ContractError(f"expected a (B, C, L) batch, got shape {x.shape}")
    if spec.kind == "none":
        return x
    if spec.kind == "compose":
        for part in spec.parts:
            x = apply_augment(x, part, rng)
        return x
    return _DISPATCH[spec.kind](x, spec, rng)
