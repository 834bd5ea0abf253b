"""Command-line surface: pretrain, adapt, generate-data, sweep, report.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .accup import AccupConfig
from .backbone import EncoderConfig, Model, pretrain_source, save_model
from .data import (
    DatasetMeta,
    ShiftSpec,
    generate_shifted_pair,
    load_dataset,
    load_meta,
    save_dataset,
)
from .errors import ConfigurationError, FormatError, TsadaptError
from .experiment import (
    ABLATION_PRESETS,
    HYPERPARAM_PRESETS,
    STRATEGIES,
    DirectoryData,
    ExperimentConfig,
    apply_preset,
    run_experiment,
    run_sweep,
)


def _add_accup_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(HYPERPARAM_PRESETS), default=None,
                   help="load (K, eta, tau, lr) defaults for a dataset family")
    p.add_argument("--ablation", choices=sorted(ABLATION_PRESETS), default=None,
                   help="disable one module")
    p.add_argument("--k-support", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--ensemble-weight", type=float, default=None)
    p.add_argument("--bn-policy", choices=("batch", "running"), default=None)


def _accup_from_args(args, base: AccupConfig | None = None) -> AccupConfig:
    cfg = base or AccupConfig()
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    if args.ablation:
        cfg = apply_preset(cfg, args.ablation)
    overrides = {}
    for name in ("k_support", "eta", "tau", "lr", "ensemble_weight", "bn_policy"):
        v = getattr(args, name)
        if v is not None:
            overrides[name] = v
    return AccupConfig.from_dict({**cfg.to_dict(), **overrides}) if overrides else cfg


def _meta_from_args(args) -> DatasetMeta:
    """Shape of a pretraining directory: --profile, else explicit flags over
    the directory's meta.json, else (2 channels, 3 classes, length 64)."""
    if args.profile:
        return DatasetMeta.profile(args.profile)
    if (Path(args.data) / "meta.json").exists():
        meta = load_meta(args.data)
    else:
        meta = DatasetMeta("custom", 2, 3, 64)
    flags = {name: getattr(args, name) for name in ("channels", "classes", "length")
             if getattr(args, name) is not None}
    return replace(meta, name="custom", **flags) if flags else meta


def cmd_pretrain(args) -> int:
    meta = _meta_from_args(args)
    train, _ = load_dataset(args.data, meta)
    # the encoder an experiment pretrains when it is given no --model
    enc = EncoderConfig.from_dict({"in_channels": meta.channels, **ExperimentConfig().encoder})
    model = Model(enc, meta.classes, seed=args.seed)
    pretrain_source(model, train.values, train.labels, epochs=args.epochs,
                    batch_size=args.batch, lr=args.pretrain_lr, seed=args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_model(args.out, model)
    print(f"saved model snapshot to {args.out}")
    return 0


def cmd_generate_data(args) -> int:
    source = ShiftSpec(channels=args.channels, length=args.length,
                       amplitude=args.base_amplitude, noise_std=args.base_noise_std)
    target = ShiftSpec(channels=args.channels, length=args.length,
                       amplitude=args.base_amplitude * args.amplitude_factor,
                       noise_std=args.noise_std, offset=args.offset)
    train, test = generate_shifted_pair(source, target,
                                        (args.n_source, args.n_target),
                                        seed=args.seed)
    meta = DatasetMeta("custom", args.channels, source.n_classes, args.length,
                       n_train=args.n_source, n_test=args.n_target)
    save_dataset(args.out, train, test, meta)
    print(f"wrote source/target splits under {args.out}")
    return 0


def _parse_list(flag: str, text: str, parse) -> list:
    """Parse a comma-separated flag value item by item."""
    try:
        return [parse(v) for v in text.split(",")]
    except ValueError as err:
        raise ConfigurationError(f"{flag} {text!r}: {err}") from None


def _parse_json_items(flag: str, text: str) -> list:
    """Parse a flag value as the items of one JSON array, so that objects and
    lists keep their own commas."""
    try:
        items = json.loads(f"[{text}]")
    except ValueError as err:
        raise ConfigurationError(f"{flag} {text!r}: {err}") from None
    if not items:
        raise ConfigurationError(f"{flag} is empty")
    return items


def _experiment_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.data is not None:
        overrides["data"] = DirectoryData(path=args.data, meta=load_meta(args.data))
    if args.strategy is not None:
        overrides["strategy"] = args.strategy
    if args.seeds is not None:
        overrides["seeds"] = tuple(_parse_list("--seeds", args.seeds, int))
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.model is not None:
        overrides["model_path"] = args.model
    if args.epochs is not None:
        overrides["pretrain_epochs"] = args.epochs
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        config = replace(config, **overrides)
    return replace(config, accup=_accup_from_args(args, config.accup))


def cmd_adapt(args) -> int:
    config = _experiment_from_args(args)
    report, records = run_experiment(config)
    for rec in records:
        score = "n/a" if rec.macro_f1 is None else f"{rec.macro_f1:.4f}"
        print(f"{config.scenario} {rec.strategy} seed={rec.seed} macro_f1={score}")
    if report is not None:
        print(f"mean={report.mean:.4f} std={report.std:.4f}")
    print(f"summary written to {config.output_dir}")
    return 0


def cmd_sweep(args) -> int:
    config = _experiment_from_args(args)
    values = _parse_json_items("--values", args.values)
    rows = run_sweep(config, args.param, values)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"sweep_{args.param}.json", "w") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
    for row in rows:
        mean = "n/a" if row["mean"] is None else f"{row['mean']:.4f}"
        print(f"{args.param}={row['value']} mean={mean}")
    return 0


def cmd_report(args) -> int:
    for path in args.summaries:
        with open(path) as f:
            try:
                summary = json.load(f)
                config, rep = summary["config"], summary["report"]
                result = ("unscored" if rep is None else
                          f"mean={rep['mean']:.4f} std={rep['std']:.4f} seeds={rep['per_seed']}")
                line = f"{config['scenario']} {config['strategy']}: {result}"
            except (ValueError, LookupError, TypeError) as err:
                raise FormatError(f"{path} is not a summary file "
                                  f"({type(err).__name__}: {err})") from None
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsadapt",
        description="Streaming test-time adaptation for 1D-CNN time-series classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a source model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--profile", choices=sorted(("ucihar", "mfd", "ssc")), default=None)
    p.add_argument("--channels", type=int, default=None,
                   help="default: the directory's meta.json, else 2")
    p.add_argument("--classes", type=int, default=None,
                   help="default: the directory's meta.json, else 3")
    p.add_argument("--length", type=int, default=None,
                   help="default: the directory's meta.json, else 64")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--pretrain-lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("generate-data", help="write a synthetic shifted dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--length", type=int, default=64)
    p.add_argument("--base-amplitude", type=float, default=0.1,
                   help="source-domain signal amplitude")
    p.add_argument("--base-noise-std", type=float, default=0.03,
                   help="source-domain noise level")
    p.add_argument("--amplitude-factor", type=float, default=3.0,
                   help="target amplitude relative to the source")
    p.add_argument("--noise-std", type=float, default=0.5,
                   help="target-domain noise level")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--n-source", type=int, default=384)
    p.add_argument("--n-target", type=int, default=1600)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_generate_data)

    for name, fn, extra in (("adapt", cmd_adapt, None), ("sweep", cmd_sweep, "sweep")):
        p = sub.add_parser(name, help=f"run {name} over a target stream")
        p.add_argument("--config", default=None, help="experiment JSON file")
        p.add_argument("--data", default=None, help="dataset directory")
        p.add_argument("--model", default=None, help="pretrained snapshot to load")
        p.add_argument("--strategy", choices=STRATEGIES, default=None)
        p.add_argument("--seeds", default=None, help="comma-separated run seeds")
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None, help="pretraining epochs")
        p.add_argument("--out", default=None,
                       help="output directory (default: the config file's output_dir, else runs)")
        _add_accup_flags(p)
        if extra:
            p.add_argument("--param", required=True, help="AccupConfig field to sweep")
            p.add_argument("--values", required=True, help="comma-separated JSON values")
        p.set_defaults(fn=fn)

    p = sub.add_parser("report", help="print aggregated results of summary files")
    p.add_argument("summaries", nargs="+")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "data", None) == "":
        # Path("") is the working directory, which no one means by it
        print("error: --data is empty", file=sys.stderr)
        return 2
    if getattr(args, "command", None) in ("adapt", "sweep") and not (args.config or args.data):
        print("error: either --config or --data is required", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except TsadaptError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:  # a missing file, a directory, no permission
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
