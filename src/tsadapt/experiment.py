"""Experiment configuration, orchestration, sweeps, and summary files.

An experiment loads its splits once, pretrains (or loads) a source model per
seed, replays the target stream once per seed under the chosen strategy with
`adapt.run_stream`, and writes a JSON summary plus a CSV with one row per
(scenario, strategy, seed). Runs are scored by `run_stream`; the summary
aggregates those scores. A sweep streams every value over one such set-up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .accup import AccupConfig
from .adapt import LayerMask, run_stream
from .backbone import EncoderConfig, Model, load_model, pretrain_source, save_model
from .baselines import KINDS as BASELINE_KINDS
from .baselines import StrategyConfig
from .data import DatasetMeta, ShiftSpec, generate_shifted_pair, load_dataset, make_stream
from .config import Record, read_json_object
from .errors import ConfigurationError, ConformanceError, TsadaptError
from .metrics import aggregate_reports

STRATEGIES = ("accup",) + BASELINE_KINDS

# (k_support, eta, tau, lr) defaults per dataset family; "synthetic" is tuned
# for the bundled desk-scale generator scenario
HYPERPARAM_PRESETS = {
    "ucihar": {"k_support": 10, "eta": 20.0, "tau": 0.7, "lr": 3e-4},
    "mfd": {"k_support": 100, "eta": 1.0, "tau": 0.6, "lr": 3e-4},
    "ssc": {"k_support": 50, "eta": 50.0, "tau": 0.3, "lr": 1e-5},
    "synthetic": {"k_support": 50, "eta": 20.0, "tau": 0.7, "lr": 2e-3},
}

# module switches of the four ablation presets
ABLATION_PRESETS = {
    "no-contrast": {"use_contrast": False},
    "no-entcomp": {"use_entropy_comparison": False},
    "no-augmentation": {"use_augmentation": False},
    "no-prototypes": {"use_prototypes": False},
}


def apply_preset(config: AccupConfig, preset: str) -> AccupConfig:
    """Overlay a named hyperparameter or ablation preset on a config."""
    if preset in HYPERPARAM_PRESETS:
        return replace(config, **HYPERPARAM_PRESETS[preset])
    if preset in ABLATION_PRESETS:
        return replace(config, **ABLATION_PRESETS[preset])
    raise ConfigurationError(f"unknown preset {preset!r}")


@dataclass
class SyntheticData(Record):
    """A generated source/target pair, reproducible from gen_seed."""

    KIND = "synthetic"

    source: ShiftSpec
    target: ShiftSpec
    n_source: int = 384
    n_target: int = 1600
    gen_seed: int = 0


@dataclass
class DirectoryData(Record):
    """A dataset directory holding train/test splits in a known profile."""

    KIND = "directory"

    path: str
    meta: DatasetMeta


def default_synthetic_scenario() -> SyntheticData:
    """The bundled desk-scale shift: amplitude factor 3 plus noise-std 0.5
    on a low-amplitude three-class sinusoid task."""
    return SyntheticData(
        source=ShiftSpec(amplitude=0.1, noise_std=0.03),
        target=ShiftSpec(amplitude=0.3, noise_std=0.5),
        n_source=384,
        n_target=1600,
        gen_seed=0,
    )


@dataclass
class ExperimentConfig(Record):
    scenario: str = "synthetic-shift"
    strategy: str = "accup"
    data: SyntheticData | DirectoryData = field(default_factory=default_synthetic_scenario)
    accup: AccupConfig = field(default_factory=AccupConfig)
    baseline_lr: float = 1e-3
    layer_mask: LayerMask = field(default_factory=LayerMask)
    batch_size: int = 32
    seeds: tuple[int, ...] = (0, 1, 2)
    # EncoderConfig overrides, checked at load but kept as given (the config
    # hash reads them); the compact default keeps desk-scale runs fast
    encoder: dict = field(default_factory=lambda: {"filters": [16, 24, 24]})
    pretrain_epochs: int = 40
    pretrain_batch: int = 32
    pretrain_lr: float = 1e-3
    model_path: str | None = None  # load instead of pretraining
    output_dir: str = "runs"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if not self.seeds:
            raise ConfigurationError("seeds list must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be non-negative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            # a repeated seed would overwrite its own snapshot and run record
            raise ConfigurationError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.pretrain_epochs < 0:
            raise ConfigurationError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        for name in ("pretrain_lr", "baseline_lr"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.pretrain_batch < 1:
            raise ConfigurationError(f"pretrain_batch must be >= 1, got {self.pretrain_batch}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {self.batch_size}")
        if self.model_path is not None and not Path(self.model_path).is_file():
            raise ConfigurationError(f"model snapshot {self.model_path!r} is not a file")
        if isinstance(self.data, DirectoryData) and not Path(self.data.path).exists():
            raise ConfigurationError(f"dataset directory {self.data.path!r} does not exist")
        if "in_channels" in self.encoder:
            raise ConfigurationError("encoder.in_channels: set by the data, not the config")
        # the data fix in_channels; 1 stands in for it here
        EncoderConfig.from_dict({"in_channels": 1, **self.encoder}, "encoder")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json_object(path, ConfigurationError))


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _blas_info() -> dict:
    """The BLAS numpy was built with and the threads it runs: results repeat
    bitwise only at a fixed thread count. A field that cannot be read is
    None."""
    # imported here, out of the package's import time
    import ctypes
    import glob

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _load_splits(config: ExperimentConfig):
    if isinstance(config.data, SyntheticData):
        return generate_shifted_pair(
            config.data.source,
            config.data.target,
            (config.data.n_source, config.data.n_target),
            seed=config.data.gen_seed,
        )
    return load_dataset(config.data.path, config.data.meta)


def _build_model(config: ExperimentConfig, train, n_classes: int, seed: int) -> Model:
    if config.model_path is not None:
        model = load_model(config.model_path)
        if model.n_classes != n_classes:
            raise ConformanceError(
                f"model snapshot has {model.n_classes} classes, data has {n_classes}"
            )
        return model
    enc = EncoderConfig.from_dict(
        {"in_channels": train.values.shape[1], **config.encoder}
    )
    model = Model(enc, n_classes, seed=seed)
    return pretrain_source(
        model, train.values, train.labels,
        epochs=config.pretrain_epochs, batch_size=config.pretrain_batch,
        lr=config.pretrain_lr, seed=seed,
    )


def _stream_seeds(config: ExperimentConfig, accups: list) -> tuple:
    """Stream every seed of config once per AccupConfig in accups, over one
    set-up: the splits, the stream and one model per seed (pretrained or
    loaded once). `run_stream` adapts a clone, so sharing the models is exact.

    Returns ([(MacroF1Report, RunRecords)] per AccupConfig, models).
    """
    n_classes = (
        config.data.source.n_classes
        if isinstance(config.data, SyntheticData)
        else config.data.meta.classes
    )
    results = []
    try:
        train, target = _load_splits(config)
        stream = make_stream(target, config.batch_size)
        models = [_build_model(config, train, n_classes, seed) for seed in config.seeds]
        for accup in accups:
            entry = replace(config, accup=accup)
            strategy = (accup if config.strategy == "accup"
                        else StrategyConfig(config.strategy, lr=config.baseline_lr))
            records = [run_stream(model, stream, strategy, seed=seed,
                                  layer_mask=config.layer_mask, config_hash=config_hash(entry))
                       for model, seed in zip(models, config.seeds)]
            reports = [rec.report for rec in records if rec.report is not None]
            results.append((aggregate_reports(reports) if reports else None, records))
    except TsadaptError as err:
        raise type(err)(f"scenario {config.scenario!r} ({config.strategy}): {err}") from err
    return results, models


def run_experiment(config: ExperimentConfig, write: bool = True):
    """Run every seed, aggregate mean and std, write summary files.

    The summary embeds the resolved config, the BLAS library and thread
    count, and a content hash of every model snapshot used (the loaded one,
    or the per-seed snapshots the experiment saves after pretraining).
    Returns (MacroF1Report, list of RunRecords).
    """
    start = time.perf_counter()
    [(report, records)], models = _stream_seeds(config, [config.accup])

    if write:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        snapshots = {}
        if config.model_path is not None:
            snapshots["loaded"] = file_sha256(config.model_path)
        else:
            for model, seed in zip(models, config.seeds):
                path = out / f"model_seed{seed}.ttaw"
                save_model(path, model)
                snapshots[str(seed)] = file_sha256(path)
        summary = {
            "blas": _blas_info(),
            "config": config.to_dict(),
            "config_hash": config_hash(config),
            "model_snapshots": snapshots,
            "report": None if report is None else report.to_dict(),
            "records": [rec.to_dict() for rec in records],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "total_wall_ms": (time.perf_counter() - start) * 1e3,
        }
        with open(out / "summary.json", "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
        with open(out / "summary.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["scenario", "strategy", "seed", "macro_f1", "wall_ms"])
            for rec in records:
                writer.writerow([
                    config.scenario, rec.strategy, rec.seed,
                    "" if rec.macro_f1 is None else f"{rec.macro_f1:.6f}",
                    f"{rec.wall_ms:.3f}",
                ])
        for rec in records:
            with open(out / f"run_{rec.strategy}_{rec.seed}.json", "w") as f:
                f.write(rec.to_json())
    return report, records


def run_sweep(config: ExperimentConfig, param: str, values) -> list:
    """Grid over one AccupConfig field: each seed is pretrained once and
    every value streams against those models.

    Every value is read through the config codec before any entry runs, so
    an unknown field or a wrong-typed value raises ConfigurationError first.
    """
    values = list(values)
    if not values:
        return []
    base = config.accup.to_dict()
    results, _ = _stream_seeds(
        config, [AccupConfig.from_dict({**base, param: v}) for v in values])
    return [{"param": param, "value": v,
             "mean": None if report is None else report.mean,
             "std": None if report is None else report.std}
            for v, (report, _) in zip(values, results)]
