"""Dataset container format, loaders, and the synthetic domain-shift generator.

The binary container ("TTSD") is little-endian: magic, version u32, Cin u32,
C u32, L u32, N u64, then N records of (label i32, Cin*L f32 values,
row-major channel-then-time), read and written as one structured numpy
block. A CSV alternative (one row = label followed by Cin*L values) is
accepted for imports.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Record, read_json_object
from .errors import (
    ConfigurationError,
    ConformanceError,
    ContractError,
    FormatError,
    LabelRangeError,
)

_MAGIC = b"TTSD"
_VERSION = 1

# (channels, classes, length) of the named dataset profiles
PROFILES = {
    "ucihar": (9, 6, 128),
    "mfd": (1, 3, 5120),
    "ssc": (1, 5, 3000),
}


@dataclass
class TimeSeriesBatch:
    """A (B, Cin, L) block of signals with optional integer labels."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ContractError(f"expected (B, Cin, L) values, got {self.values.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.intp)
            if self.labels.shape != (len(self.values),):
                raise ContractError(
                    f"labels shape {self.labels.shape} does not match batch of "
                    f"{len(self.values)}"
                )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DatasetMeta(Record):
    name: str
    channels: int
    classes: int
    length: int
    n_train: int = 0
    n_test: int = 0

    def __post_init__(self):
        if self.name in PROFILES and PROFILES[self.name] != (
            self.channels, self.classes, self.length
        ):
            raise ConfigurationError(
                f"{self.name} profile is {PROFILES[self.name]}, got "
                f"({self.channels}, {self.classes}, {self.length})"
            )

    @classmethod
    def profile(cls, name: str, n_train: int = 0, n_test: int = 0) -> "DatasetMeta":
        if name not in PROFILES:
            raise ConfigurationError(f"unknown dataset profile {name!r}")
        c, k, l = PROFILES[name]
        return cls(name, c, k, l, n_train, n_test)


def _record_dtype(cin: int, length: int) -> np.dtype:
    try:
        return np.dtype([("label", "<i4"), ("values", "<f4", (cin, length))])
    except ValueError:
        raise FormatError(f"record shape ({cin}, {length}) is too large") from None


def _check_values(where, values: np.ndarray, dtype) -> None:
    """Raise FormatError naming `where` and the first record holding a value
    that is NaN, infinite or too large for dtype."""
    bad = ~(np.abs(values) <= np.finfo(dtype).max)
    if bad.any():
        raise FormatError(f"{where}: record {np.nonzero(bad)[0][0]} holds a value that "
                          f"is not a finite {np.dtype(dtype).name}")


def _check_split(where, batch: TimeSeriesBatch, n_classes: int) -> None:
    if batch.labels is None:
        raise ContractError("container splits must be labeled")
    if batch.labels.min(initial=0) < 0 or batch.labels.max(initial=0) >= n_classes:
        raise LabelRangeError(f"labels must lie in 0..{n_classes - 1}")
    _check_values(where, batch.values, np.float32)


def save_split(path, batch: TimeSeriesBatch, n_classes: int) -> None:
    """Write one labeled split in the binary container format; every value
    must be a finite float32."""
    _check_split(path, batch, n_classes)
    b, cin, length = batch.values.shape
    records = np.empty(b, dtype=_record_dtype(cin, length))
    records["label"] = batch.labels
    records["values"] = batch.values
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIIIQ", _VERSION, cin, n_classes, length, b))
        f.write(records.tobytes())


def load_split(path, meta: DatasetMeta | None = None) -> TimeSeriesBatch:
    """Read one split; validates format, shape against meta, and label range.
    The declared record count is checked against the file before reading."""

    def take(f, n, what):
        left = os.fstat(f.fileno()).st_size - f.tell()
        if n > left:
            raise FormatError(f"container truncated while reading {what}: "
                              f"{n} bytes needed, {left} left")
        return f.read(n)

    with open(path, "rb") as f:
        if take(f, 4, "magic") != _MAGIC:
            raise FormatError("bad magic: not a TTSD container")
        version, cin, n_classes, length, n = struct.unpack("<IIIIQ", take(f, 24, "header"))
        if version != _VERSION:
            raise FormatError(f"unsupported container version {version}")
        if meta is not None and (cin, n_classes, length) != (
            meta.channels, meta.classes, meta.length
        ):
            raise ConformanceError(
                f"container declares ({cin}, {n_classes}, {length}), metadata "
                f"expects ({meta.channels}, {meta.classes}, {meta.length})"
            )
        block = take(f, n * (4 + 4 * cin * length), f"{n} records")
        records = np.frombuffer(block, dtype=_record_dtype(cin, length))
    values = np.ascontiguousarray(records["values"], dtype=np.float64)
    _check_values(path, values, np.float32)
    labels = records["label"].astype(np.intp)
    if n and (labels.min() < 0 or labels.max() >= n_classes):
        raise LabelRangeError(
            f"label {labels.max()} out of range for {n_classes} classes"
        )
    return TimeSeriesBatch(values, labels)


def load_csv_split(path, meta: DatasetMeta) -> TimeSeriesBatch:
    """CSV import: one row per sample, label first, then Cin*L values."""
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise FormatError(f"malformed CSV split: {err}") from None
    _check_values(path, table, np.float64)
    expected = 1 + meta.channels * meta.length
    if table.shape[1] != expected:
        raise ConformanceError(
            f"CSV rows have {table.shape[1]} columns, expected {expected}"
        )
    labels = table[:, 0]
    if np.any(labels != np.round(labels)):
        raise FormatError("CSV labels must be integers")
    labels = labels.astype(np.intp)
    if len(labels) and (labels.min() < 0 or labels.max() >= meta.classes):
        raise LabelRangeError(
            f"label {labels.max()} out of range for {meta.classes} classes"
        )
    values = table[:, 1:].reshape(-1, meta.channels, meta.length)
    return TimeSeriesBatch(values, labels)


def save_dataset(directory, train: TimeSeriesBatch, test: TimeSeriesBatch,
                 meta: DatasetMeta) -> None:
    """Write both splits plus the directory's meta.json (see load_meta).
    Both splits are checked before anything is written."""
    d = Path(directory)
    _check_split(d / "train.ttsd", train, meta.classes)
    _check_split(d / "test.ttsd", test, meta.classes)
    d.mkdir(parents=True, exist_ok=True)
    save_split(d / "train.ttsd", train, meta.classes)
    save_split(d / "test.ttsd", test, meta.classes)
    with open(d / "meta.json", "w") as f:
        json.dump(meta.to_dict(), f, indent=2, sort_keys=True)


def load_meta(directory) -> DatasetMeta:
    """Read the DatasetMeta that save_dataset wrote into a directory; a
    meta.json that is not a JSON object, or has an unknown, missing or
    wrong-typed key, raises FormatError naming the file."""
    path = Path(directory) / "meta.json"
    m = read_json_object(path)
    try:
        return DatasetMeta.from_dict({"name": "custom", **m})
    except ConfigurationError as err:
        raise FormatError(f"{path}: {err}") from None


def load_dataset(directory, meta: DatasetMeta):
    """Load (train, test) splits from a dataset directory.

    Binary containers take precedence; CSV files are accepted as a fallback.
    """
    d = Path(directory)
    splits = []
    for name in ("train", "test"):
        binary = d / f"{name}.ttsd"
        csv = d / f"{name}.csv"
        if binary.exists():
            splits.append(load_split(binary, meta))
        elif csv.exists():
            splits.append(load_csv_split(csv, meta))
        else:
            raise FormatError(f"no {name} split found under {d}")
    return tuple(splits)


# ---------------------------------------------------------------------------
# synthetic domain-shift generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftSpec(Record):
    """Class-conditional sinusoid-plus-noise generator parameters.

    Classes are told apart by frequency (cycles per window) so that amplitude
    warping and scaling are label-preserving by construction. amplitude is a
    per-channel factor (scalars broadcast), noise_std the additive noise
    level, offset a constant baseline. class_probs defaults to uniform.
    """

    channels: int = 2
    length: int = 64
    class_freqs: tuple[float, ...] = (2.0, 5.0, 8.0)
    class_phases: tuple[float, ...] | None = None
    amplitude: float | tuple[float, ...] = 1.0
    noise_std: float = 0.1
    offset: float = 0.0
    class_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("channels", "length"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("class_freqs", "class_phases", "amplitude", "noise_std", "offset"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if len(set(self.class_freqs)) != len(self.class_freqs):
            raise ConfigurationError("class frequencies must be distinct")
        if self.class_phases is not None and len(self.class_phases) != len(self.class_freqs):
            raise ConfigurationError("need one phase per class")
        if self.noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.class_probs is not None:
            p = np.asarray(self.class_probs, dtype=np.float64)
            if len(p) != len(self.class_freqs) or np.any(p < 0) or not np.isclose(p.sum(), 1.0):
                raise ConfigurationError("class_probs must be a distribution over the classes")

    @property
    def n_classes(self) -> int:
        return len(self.class_freqs)

    def amplitudes(self) -> np.ndarray:
        a = np.asarray(self.amplitude, dtype=np.float64)
        if a.ndim == 0:
            return np.full(self.channels, float(a))
        if a.shape != (self.channels,):
            raise ConfigurationError(
                f"amplitude must be scalar or one factor per channel, got {a.shape}"
            )
        return a

    def probs(self) -> np.ndarray:
        if self.class_probs is None:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        return np.asarray(self.class_probs, dtype=np.float64)


def _quota_labels(n: int, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Deterministic per-class counts (largest remainder), shuffled order.

    Uniform probabilities therefore yield counts that differ by at most one.
    """
    quota = n * probs
    counts = np.floor(quota).astype(np.intp)
    short = n - counts.sum()
    if short:
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:short]] += 1
    labels = np.repeat(np.arange(len(probs)), counts)
    rng.shuffle(labels)
    return labels


def _synthesize(spec: ShiftSpec, n: int, rng: np.random.Generator) -> TimeSeriesBatch:
    labels = _quota_labels(n, spec.probs(), rng)
    amps = spec.amplitudes()
    t = np.arange(spec.length) / spec.length
    base_phase = (
        np.zeros(spec.n_classes)
        if spec.class_phases is None
        else np.asarray(spec.class_phases, dtype=np.float64)
    )
    chan_shift = np.linspace(0.0, np.pi / 2.0, spec.channels, endpoint=False)
    freqs = np.asarray(spec.class_freqs, dtype=np.float64)
    sample_phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phase = base_phase[labels] + sample_phase  # (n,)
    angles = (
        2.0 * np.pi * freqs[labels][:, None, None] * t[None, None, :]
        + phase[:, None, None]
        + chan_shift[None, :, None]
    )
    values = amps[None, :, None] * np.sin(angles) + spec.offset
    values += rng.normal(0.0, spec.noise_std, size=values.shape)
    return TimeSeriesBatch(values, labels)


def generate_shifted_pair(
    spec_source: ShiftSpec,
    spec_target: ShiftSpec,
    sizes: tuple,
    seed: int = 0,
):
    """Draw a labeled source dataset and a labeled target stream.

    Both specs must declare the same classes; target labels exist for scoring
    only. A fixed seed reproduces both splits bitwise.
    """
    if spec_source.class_freqs != spec_target.class_freqs:
        raise ConfigurationError("source and target must share the class definition")
    n_source, n_target = sizes
    for name, n in (("n_source", n_source), ("n_target", n_target)):
        if n < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    source = _synthesize(spec_source, n_source, rng)
    target = _synthesize(spec_target, n_target, rng)
    return source, target


def make_stream(batch: TimeSeriesBatch, batch_size: int) -> list:
    """Chop a dataset into an ordered list of streaming batches."""
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    out = []
    for start in range(0, len(batch), batch_size):
        sl = slice(start, start + batch_size)
        labels = None if batch.labels is None else batch.labels[sl]
        out.append(TimeSeriesBatch(batch.values[sl], labels))
    return out
