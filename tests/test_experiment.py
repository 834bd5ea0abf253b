"""Experiment orchestration: config round trips, presets, summaries, sweeps."""

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

import tsadapt.experiment as experiment
from tsadapt.accup import AccupConfig
from tsadapt.augment import AugmentSpec
from tsadapt.baselines import StrategyConfig
from tsadapt.data import DatasetMeta, ShiftSpec
from tsadapt.errors import ConfigurationError
from tsadapt.experiment import (
    ABLATION_PRESETS,
    HYPERPARAM_PRESETS,
    DirectoryData,
    ExperimentConfig,
    SyntheticData,
    apply_preset,
    config_hash,
    run_experiment,
    run_sweep,
)

from conftest import (
    OUT_OF_RANGE_CONFIG_IDS,
    OUT_OF_RANGE_CONFIG_VALUES,
    WRONG_TYPED_CONFIG_IDS,
    WRONG_TYPED_CONFIG_VALUES,
    set_dotted,
)


def tiny_experiment(tmp_path, **overrides):
    data = SyntheticData(
        source=ShiftSpec(amplitude=0.1, noise_std=0.03),
        target=ShiftSpec(amplitude=0.3, noise_std=0.5),
        n_source=64,
        n_target=96,
        gen_seed=0,
    )
    base = dict(
        scenario="tiny",
        strategy="accup",
        data=data,
        accup=AccupConfig(k_support=10, eta=20.0, tau=0.7, lr=1e-3),
        batch_size=32,
        seeds=(0,),
        encoder={"filters": [4, 6, 6]},
        pretrain_epochs=2,
        output_dir=str(tmp_path / "runs"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = tiny_experiment(tmp_path, seeds=(0, 1))
        restored = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored.to_dict() == config.to_dict()
        assert config_hash(restored) == config_hash(config)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("make, field", [
        pytest.param(lambda v: AccupConfig(eta=v), "eta", id="AccupConfig.eta"),
        pytest.param(lambda v: AccupConfig(tau=v), "tau", id="AccupConfig.tau"),
        pytest.param(lambda v: AccupConfig(lr=v), "lr", id="AccupConfig.lr"),
        pytest.param(lambda v: AccupConfig(ensemble_weight=v), "ensemble_weight",
                     id="AccupConfig.ensemble_weight"),
        pytest.param(lambda v: AugmentSpec(sigma=v), "sigma", id="AugmentSpec.sigma"),
        pytest.param(lambda v: ExperimentConfig(baseline_lr=v), "baseline_lr",
                     id="ExperimentConfig.baseline_lr"),
        pytest.param(lambda v: ExperimentConfig(pretrain_lr=v), "pretrain_lr",
                     id="ExperimentConfig.pretrain_lr"),
        pytest.param(lambda v: StrategyConfig("tent", v), "lr", id="StrategyConfig.lr"),
    ])
    def test_non_finite_float_rejected_at_construction(self, make, field, value):
        # built in Python, without the JSON reader's finiteness check
        with pytest.raises(ConfigurationError, match=field):
            make(value)

    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_experiment(tmp_path, seeds=())

    def test_unknown_strategy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_experiment(tmp_path, strategy="wishful-thinking")

    def test_missing_model_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_experiment(tmp_path, model_path=str(tmp_path / "missing.ttaw"))


    @pytest.mark.parametrize("key, value", OUT_OF_RANGE_CONFIG_VALUES,
                             ids=OUT_OF_RANGE_CONFIG_IDS)
    def test_out_of_range_pretraining_field_is_named(self, tmp_path, key, value):
        d = tiny_experiment(tmp_path).to_dict()
        d[key] = value
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig.from_dict(d)

    def test_zero_pretraining_epochs_are_allowed(self, tmp_path):
        assert tiny_experiment(tmp_path, pretrain_epochs=0).pretrain_epochs == 0

    def test_unknown_keys_are_named(self, tmp_path):
        # ensemble_mode, anchor_mode and interp are keys that configs written
        # before their removal still carry
        for path, key in (((), "seedz"), (("accup",), "ensemble_mod"),
                          (("accup",), "ensemble_mode"), (("accup",), "anchor_mode"),
                          (("accup", "augment"), "interp"), (("layer_mask",), "conv_1"),
                          (("data",), "seed"), (("data", "source"), "amplitud"),
                          (("encoder",), "bogus")):
            d = tiny_experiment(tmp_path).to_dict()
            node = d
            for name in path:
                node = node[name]
            node[key] = 1
            with pytest.raises(ConfigurationError, match=key):
                ExperimentConfig.from_dict(d)

    def test_support_size_must_be_an_integer(self):
        for k in (2.5, 10.0, "10", True):
            with pytest.raises(ConfigurationError):
                AccupConfig(k_support=k)

    @pytest.mark.parametrize("key, value", WRONG_TYPED_CONFIG_VALUES, ids=WRONG_TYPED_CONFIG_IDS)
    def test_wrong_typed_value_is_named(self, tmp_path, key, value):
        d = set_dotted(json.loads(json.dumps(tiny_experiment(tmp_path).to_dict())), key, value)
        with pytest.raises(ConfigurationError, match=re.escape(key) + r"[:\[]"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("variant", [
        "default", *(f"preset-{p}" for p in HYPERPARAM_PRESETS),
        *(f"ablation-{p}" for p in ABLATION_PRESETS), "compose-augment", "directory",
    ])
    def test_round_trip_gives_an_equal_config(self, tmp_path, variant):
        config = ExperimentConfig()
        if variant.startswith(("preset-", "ablation-")):
            config = replace(config, accup=apply_preset(config.accup, variant.split("-", 1)[1]))
        elif variant == "compose-augment":
            parts = (AugmentSpec(kind="jitter", sigma=0.3), AugmentSpec(kind="scale"))
            augment = AugmentSpec(kind="compose", parts=parts)
            config = replace(config, accup=AccupConfig(augment=augment))
        elif variant == "directory":
            meta = DatasetMeta("custom", 2, 3, 64, n_train=64, n_test=96)
            config = replace(config, data=DirectoryData(path=str(tmp_path), meta=meta))
        restored = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert config_hash(restored) == config_hash(config)

    def test_config_in_the_earlier_format_still_loads(self, tmp_path):
        # written before augment.parts was always present and before the
        # directory meta carried n_train / n_test
        d = {
            "scenario": "old", "strategy": "accup",
            "data": {"kind": "directory", "path": str(tmp_path),
                     "meta": {"name": "custom", "channels": 2, "classes": 3, "length": 64}},
            "accup": {"k_support": 10, "eta": 20.0, "tau": 0.7, "ensemble_weight": 0.5,
                      "augment": {"kind": "magnitude-warp", "sigma": 0.2, "knots": 4,
                                  "segments": 5},
                      "use_prototypes": True, "use_entropy_comparison": True,
                      "use_augmentation": True, "use_contrast": False, "lr": 0.0003,
                      "bn_policy": "batch"},
            "baseline_lr": 0.001, "layer_mask": {"conv1": True, "conv2": False, "conv3": True},
            "batch_size": 16, "seeds": [0, 1], "encoder": {"filters": [16, 24, 24]},
            "pretrain_epochs": 40, "pretrain_batch": 32, "pretrain_lr": 0.001,
            "model_path": None, "output_dir": "runs",
        }
        config = ExperimentConfig.from_dict(d)
        assert config.data == DirectoryData(str(tmp_path), DatasetMeta("custom", 2, 3, 64))
        assert config.accup == AccupConfig(use_contrast=False)
        assert config.layer_mask.blocks() == (True, False, True)
        assert (config.scenario, config.batch_size, config.seeds) == ("old", 16, (0, 1))


class TestPresets:
    def test_dataset_presets_carry_documented_values(self):
        assert HYPERPARAM_PRESETS["ucihar"] == {"k_support": 10, "eta": 20.0,
                                                "tau": 0.7, "lr": 3e-4}
        assert HYPERPARAM_PRESETS["mfd"] == {"k_support": 100, "eta": 1.0,
                                             "tau": 0.6, "lr": 3e-4}
        assert HYPERPARAM_PRESETS["ssc"] == {"k_support": 50, "eta": 50.0,
                                             "tau": 0.3, "lr": 1e-5}

    def test_apply_hyperparam_preset(self):
        config = apply_preset(AccupConfig(), "mfd")
        assert (config.k_support, config.eta, config.tau, config.lr) == (100, 1.0, 0.6, 3e-4)

    def test_ablation_presets_flip_one_switch(self):
        assert set(ABLATION_PRESETS) == {"no-contrast", "no-entcomp",
                                         "no-augmentation", "no-prototypes"}
        config = apply_preset(AccupConfig(), "no-contrast")
        assert config.use_contrast is False and config.use_prototypes is True

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            apply_preset(AccupConfig(), "nonexistent")


class TestRunExperiment:
    def test_writes_summary_files(self, tmp_path):
        config = tiny_experiment(tmp_path)
        report, records = run_experiment(config)
        assert report is not None and 0 <= report.mean <= 1
        out = tmp_path / "runs"
        assert (out / "summary.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "run_accup_0.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config_hash"] == config_hash(config)
        assert summary["config"] == config.to_dict()
        # the model actually used is saved and content-hashed for provenance
        assert (out / "model_seed0.ttaw").exists()
        assert len(summary["model_snapshots"]["0"]) == 64
        # results repeat bitwise only at one BLAS thread count
        assert set(summary["blas"]) == {"name", "version", "threads"}
        with open(out / "summary.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["scenario", "strategy", "seed", "macro_f1", "wall_ms"]
        assert rows[1][0] == "tiny" and rows[1][1] == "accup"

    def test_deterministic_outputs_modulo_timing(self, tmp_path):
        config = tiny_experiment(tmp_path)
        out = tmp_path / "runs"

        def normalized_json(path):
            d = json.loads(path.read_text())
            d.pop("timestamp")
            d.pop("total_wall_ms")
            for rec in d["records"]:
                rec.pop("wall_ms")
            return json.dumps(d, sort_keys=True)

        def normalized_csv(path):
            with open(path) as f:
                return [row[:4] for row in csv.reader(f)]

        run_experiment(config)
        first = (normalized_json(out / "summary.json"), normalized_csv(out / "summary.csv"))
        run_experiment(config)
        second = (normalized_json(out / "summary.json"), normalized_csv(out / "summary.csv"))
        assert first == second

    def test_errors_carry_scenario_context(self, tmp_path):
        from tsadapt.data import DatasetMeta
        from tsadapt.errors import FormatError
        from tsadapt.experiment import DirectoryData

        empty = tmp_path / "ds"
        empty.mkdir()
        config = tiny_experiment(
            tmp_path,
            data=DirectoryData(path=str(empty), meta=DatasetMeta("custom", 2, 3, 64)),
        )
        with pytest.raises(FormatError, match="scenario 'tiny'"):
            run_experiment(config, write=False)

    def test_baseline_strategy_runs(self, tmp_path):
        config = tiny_experiment(tmp_path, strategy="bn-stats")
        report, records = run_experiment(config, write=False)
        assert records[0].strategy == "bn-stats"
        assert report is not None

    def test_model_snapshot_reuse(self, tmp_path):
        from tsadapt.backbone import EncoderConfig, Model, save_model

        model = Model(EncoderConfig(in_channels=2, filters=(4, 6, 6)), 3, seed=0)
        path = tmp_path / "model.ttaw"
        save_model(path, model)
        config = tiny_experiment(tmp_path, model_path=str(path))
        _, records = run_experiment(config)
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert summary["model_snapshots"].get("loaded")

    def test_snapshot_class_count_must_match_data(self, tmp_path):
        from tsadapt.backbone import EncoderConfig, Model, save_model
        from tsadapt.errors import ConformanceError

        model = Model(EncoderConfig(in_channels=2, filters=(4, 6, 6)), 4, seed=0)
        path = tmp_path / "model.ttaw"
        save_model(path, model)
        config = tiny_experiment(tmp_path, model_path=str(path))
        with pytest.raises(ConformanceError, match="scenario 'tiny'"):
            run_experiment(config, write=False)


class TestSweep:
    def test_support_size_grid(self, tmp_path):
        config = tiny_experiment(tmp_path)
        rows = run_sweep(config, "k_support", [1, 5, 10])
        assert [r["value"] for r in rows] == [1, 5, 10]
        assert all(r["mean"] is not None for r in rows)

    def test_documented_grid_is_accepted(self, tmp_path):
        config = tiny_experiment(tmp_path)
        for k in (1, 5, 10, 20, 50, 100, 200, 500):
            replace(config.accup, k_support=k)

    def test_rows_equal_separate_experiments_bitwise(self, tmp_path):
        config = tiny_experiment(tmp_path, seeds=(0, 1))
        values = [1, 5, 10]
        rows = run_sweep(config, "k_support", values)
        for row, k in zip(rows, values):
            alone, _ = run_experiment(
                replace(config, accup=replace(config.accup, k_support=k)), write=False)
            assert row["mean"].hex() == alone.mean.hex()
            assert row["std"].hex() == alone.std.hex()

    def test_each_seed_is_pretrained_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return pretrain_source(*args, **kwargs)

        pretrain_source = experiment.pretrain_source
        monkeypatch.setattr(experiment, "pretrain_source", counting)
        run_sweep(tiny_experiment(tmp_path, seeds=(0, 1)), "k_support", [1, 5, 10])
        assert calls == [0, 1]

    def test_unknown_parameter(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_sweep(tiny_experiment(tmp_path), "verve", [1])

    def test_baseline_strategy_fails_before_any_set_up(self, tmp_path, monkeypatch):
        # a baseline reads no AccupConfig field, so every row would be the same run
        def must_not_run(*args, **kwargs):
            raise AssertionError("the sweep started its set-up")

        monkeypatch.setattr(experiment, "_load_splits", must_not_run)
        with pytest.raises(ConfigurationError, match="strategy 'tent'"):
            run_sweep(tiny_experiment(tmp_path, strategy="tent"), "k_support", [1, 2, 3])

    def test_bad_value_fails_before_any_entry_runs(self, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a sweep entry started pretraining or streaming")

        monkeypatch.setattr(experiment, "pretrain_source", must_not_run)
        monkeypatch.setattr(experiment, "run_stream", must_not_run)
        config = tiny_experiment(tmp_path)
        for param, values in (("eta", [20.0, "x"]), ("augment", [{"kind": "jitter"}, 3]),
                              ("use_contrast", [True, "false"]), ("k_support", [5, 2.5])):
            with pytest.raises(ConfigurationError, match=param):
                run_sweep(config, param, values)
