"""Command-line surface: subcommands, flags, and exit codes."""

import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsadapt.cli import build_parser, main
from tsadapt.experiment import ExperimentConfig

from conftest import (
    OUT_OF_RANGE_CONFIG_IDS,
    OUT_OF_RANGE_CONFIG_VALUES,
    WRONG_TYPED_CONFIG_IDS,
    WRONG_TYPED_CONFIG_VALUES,
    set_dotted,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "shift"
    code = main([
        "generate-data", "--out", str(out),
        "--n-source", "64", "--n-target", "96", "--seed", "0",
    ])
    assert code == 0
    return out


class TestGenerateData:
    def test_writes_splits_and_meta(self, dataset_dir):
        assert (dataset_dir / "train.ttsd").exists()
        assert (dataset_dir / "test.ttsd").exists()
        meta = json.loads((dataset_dir / "meta.json").read_text())
        assert meta["channels"] == 2 and meta["classes"] == 3

    @pytest.mark.parametrize("flag, value, key", [
        ("--channels", "0", "channels"), ("--length", "0", "length"),
        ("--n-source", "0", "n_source"), ("--n-target", "-5", "n_target"),
        ("--base-amplitude", "nan", "amplitude"), ("--noise-std", "inf", "noise_std"),
        ("--offset", "inf", "offset"),
    ])
    def test_degenerate_shape_is_exit_2(self, tmp_path, capsys, flag, value, key):
        # zero sizes used to write a degenerate directory and exit 0, and a
        # negative one ended in a ValueError traceback
        out = tmp_path / "data"
        assert main(["generate-data", "--out", str(out), "--n-source", "8",
                     "--n-target", "8", flag, value]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


    def test_negative_seed_is_exit_2(self, tmp_path, capsys):
        # numpy's default_rng used to raise a bare ValueError: a traceback, exit 1
        out = tmp_path / "data"
        assert main(["generate-data", "--out", str(out), "--n-source", "8",
                     "--n-target", "8", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_values_beyond_float32_are_exit_3(self, tmp_path, capsys):
        # the float32 cast used to write a directory of infs and exit 0
        out = tmp_path / "data"
        assert main(["generate-data", "--out", str(out), "--n-source", "8",
                     "--n-target", "8", "--base-amplitude", "1e39"]) == 3
        assert "train.ttsd: record 0" in capsys.readouterr().err
        assert not out.exists()


class TestPretrain:
    def test_trains_and_saves_snapshot(self, dataset_dir, tmp_path):
        out = tmp_path / "model.ttaw"
        code = main([
            "pretrain", "--data", str(dataset_dir), "--out", str(out),
            "--epochs", "2", "--seed", "0",
        ])
        assert code == 0
        assert out.exists() and (tmp_path / "model.ttaw.json").exists()

    def test_reads_shape_from_meta_json(self, tmp_path):
        data = tmp_path / "one-channel"
        assert main(["generate-data", "--out", str(data), "--channels", "1",
                     "--length", "32", "--n-source", "16", "--n-target", "16"]) == 0
        out = tmp_path / "model.ttaw"
        code = main(["pretrain", "--data", str(data), "--out", str(out), "--epochs", "1"])
        assert code == 0
        sidecar = json.loads((tmp_path / "model.ttaw.json").read_text())
        assert sidecar["encoder"]["in_channels"] == 1

    def test_default_encoder_is_the_experiment_default(self, dataset_dir, tmp_path):
        from tsadapt.experiment import ExperimentConfig

        out = tmp_path / "model.ttaw"
        assert main(["pretrain", "--data", str(dataset_dir), "--out", str(out),
                     "--epochs", "1"]) == 0
        sidecar = json.loads((tmp_path / "model.ttaw.json").read_text())
        assert sidecar["encoder"]["filters"] == list(ExperimentConfig().encoder["filters"])
        assert sidecar["encoder"]["filters"] == [16, 24, 24]

    @pytest.mark.parametrize("flag, value", [("--batch", "0"), ("--epochs", "-3"),
                                             ("--seed", "-1"), ("--pretrain-lr", "inf"),
                                             ("--pretrain-lr", "nan")])
    def test_bad_pretraining_argument_is_exit_2(self, dataset_dir, tmp_path, flag, value):
        # --epochs -3 used to save an untrained snapshot; the others raised
        # a bare ValueError. A repeated --epochs takes its last value.
        out = tmp_path / "model.ttaw"
        code = main(["pretrain", "--data", str(dataset_dir), "--out", str(out),
                     "--epochs", "1", flag, value])
        assert code == 2
        assert not out.exists()

    def test_directory_without_meta_json_is_exit_3(self, tmp_path, capsys):
        # a row of 1 + 128 columns also reads as 1 + 2*64: this directory of
        # 1x128 series used to pretrain as a 2-channel, length-64 model
        data = tmp_path / "csv"
        data.mkdir()
        rng = np.random.default_rng(0)
        rows = np.column_stack([np.arange(12) % 3, rng.normal(size=(12, 128))])
        for name in ("train", "test"):
            np.savetxt(data / f"{name}.csv", rows, delimiter=",")
        out = tmp_path / "m.ttaw"
        assert main(["pretrain", "--data", str(data), "--out", str(out), "--epochs", "1"]) == 3
        assert str(data / "meta.json") in capsys.readouterr().err
        assert not out.exists()

    def test_profile_name_checks_the_shape(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "har"
        shutil.copytree(dataset_dir, data)
        (data / "meta.json").write_text(json.dumps({"name": "ucihar", "channels": 2,
                                                    "classes": 3, "length": 64}))
        out = tmp_path / "m.ttaw"
        assert main(["pretrain", "--data", str(data), "--out", str(out), "--epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert str(data / "meta.json") in err and "ucihar profile is (9, 6, 128)" in err
        assert not out.exists()

    def test_snapshot_is_the_one_adapt_saves(self, dataset_dir, tmp_path):
        out = tmp_path / "model.ttaw"
        assert main(["pretrain", "--data", str(dataset_dir), "--out", str(out),
                     "--epochs", "2", "--seed", "1"]) == 0
        runs = tmp_path / "runs"
        assert main(["adapt", "--data", str(dataset_dir), "--out", str(runs),
                     "--strategy", "source", "--seeds", "1", "--epochs", "2"]) == 0
        assert out.read_bytes() == (runs / "model_seed1.ttaw").read_bytes()
        assert ((tmp_path / "model.ttaw.json").read_bytes()
                == (runs / "model_seed1.ttaw.json").read_bytes())

    def test_missing_data_dir_is_exit_3(self, tmp_path):
        code = main([
            "pretrain", "--data", str(tmp_path / "nowhere"),
            "--out", str(tmp_path / "m.ttaw"), "--epochs", "1",
        ])
        assert code == 3


class TestAdapt:
    def test_full_run_writes_summary(self, dataset_dir, tmp_path):
        out = tmp_path / "runs"
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(out),
            "--strategy", "accup", "--seeds", "0", "--epochs", "2",
            "--k-support", "5", "--lr", "1e-3",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["report"]["mean"] is not None

    def test_baseline_and_ablation_flags(self, dataset_dir, tmp_path):
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "bn"),
            "--strategy", "bn-stats", "--seeds", "0", "--epochs", "1",
        ])
        assert code == 0
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "abl"),
            "--strategy", "accup", "--seeds", "0", "--epochs", "1",
            "--ablation", "no-contrast",
        ])
        assert code == 0

    def test_preset_flag(self, dataset_dir, tmp_path):
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "p"),
            "--strategy", "accup", "--seeds", "0", "--epochs", "1",
            "--preset", "ucihar",
        ])
        assert code == 0

    def test_lr_is_the_baseline_lr_under_a_baseline(self, dataset_dir, tmp_path):
        # --lr used to set accup.lr only, so tent ran at baseline_lr 1e-3
        runs = {}
        for strategy, extra in (("tent", ["--lr", "0"]), ("bn-stats", [])):
            out = tmp_path / strategy
            assert main(["adapt", "--data", str(dataset_dir), "--out", str(out),
                         "--strategy", strategy, "--seeds", "0", "--epochs", "1"] + extra) == 0
            runs[strategy] = json.loads((out / "summary.json").read_text())
        assert runs["tent"]["config"]["baseline_lr"] == 0.0
        # tent at lr 0 only updates BN statistics: bn-stats's predictions
        assert (runs["tent"]["records"][0]["batch_predictions"]
                == runs["bn-stats"]["records"][0]["batch_predictions"])

    @pytest.mark.parametrize("flag, value", [
        ("--preset", "ucihar"), ("--ablation", "no-contrast"), ("--k-support", "5"),
        ("--eta", "1"), ("--tau", "0.5"), ("--ensemble-weight", "0.5"),
        ("--bn-policy", "running"),
    ])
    def test_accup_flag_under_a_baseline_is_exit_2(self, dataset_dir, tmp_path, capsys,
                                                   flag, value):
        # these flags used to be written into accup and ignored by the run
        out = tmp_path / "tent"
        assert main(["adapt", "--data", str(dataset_dir), "--out", str(out),
                     "--strategy", "tent", "--seeds", "0", "--epochs", "1", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "'tent'" in err
        assert not out.exists()

    def test_bad_tau_is_exit_2(self, dataset_dir, tmp_path):
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--strategy", "accup", "--seeds", "0", "--epochs", "1",
            "--tau", "-0.5",
        ])
        assert code == 2

    @pytest.mark.parametrize("flag, value, key", [
        ("--eta", "nan", "eta"), ("--lr", "inf", "lr"), ("--tau", "inf", "tau"),
    ])
    def test_non_finite_accup_flag_is_exit_2(self, dataset_dir, tmp_path, capsys,
                                             flag, value, key):
        # --eta nan and --lr inf used to fail mid-stream with exit 4, and
        # --tau inf ran to exit 0 with a meaningless loss
        out = tmp_path / "x"
        code = main(["adapt", "--data", str(dataset_dir), "--out", str(out),
                     "--strategy", "accup", "--seeds", "0", "--epochs", "1", flag, value])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_snapshot_is_exit_4(self, dataset_dir, tmp_path):
        import numpy as np

        from tsadapt.autodiff import save_tensors
        from tsadapt.backbone import EncoderConfig, Model, save_model

        model = Model(EncoderConfig(in_channels=2, filters=(4, 6, 6)), 3, seed=0)
        path = tmp_path / "model.ttaw"
        save_model(path, model)
        tensors = dict(model.named_parameters())
        tensors.update(model.named_buffers())
        tensors["cls.b"] = np.array([np.inf, 0.0, 0.0])
        save_tensors(path, tensors)
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--strategy", "source", "--seeds", "0", "--model", str(path),
        ])
        assert code == 4

    def test_non_utf8_tensor_name_is_exit_3(self, dataset_dir, tmp_path, capsys):
        from tsadapt.backbone import EncoderConfig, Model, save_model

        path = tmp_path / "model.ttaw"
        save_model(path, Model(EncoderConfig(in_channels=2, filters=(4, 6, 6)), 3, seed=0))
        blob = bytearray(path.read_bytes())
        blob[14] = 0xFF  # the first byte of the first tensor name
        path.write_bytes(bytes(blob))
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--strategy", "source", "--seeds", "0", "--model", str(path),
        ])
        assert code == 3
        assert str(path) in capsys.readouterr().err

    def test_directory_written_by_save_dataset(self, tmp_path):
        from tsadapt.data import DatasetMeta, ShiftSpec, generate_shifted_pair, save_dataset

        train, test = generate_shifted_pair(ShiftSpec(), ShiftSpec(amplitude=0.3),
                                            (32, 32), seed=0)
        data = tmp_path / "saved"
        save_dataset(data, train, test, DatasetMeta("custom", 2, 3, 64))
        code = main([
            "adapt", "--data", str(data), "--out", str(tmp_path / "runs"),
            "--strategy", "source", "--seeds", "0", "--epochs", "1",
        ])
        assert code == 0

    def test_csv_directory_runs_like_the_containers(self, dataset_dir, tmp_path):
        from tsadapt.data import load_dataset, load_meta

        data = tmp_path / "csv"
        data.mkdir()
        shutil.copy(dataset_dir / "meta.json", data / "meta.json")
        for name, split in zip(("train", "test"),
                               load_dataset(dataset_dir, load_meta(dataset_dir))):
            rows = np.column_stack([split.labels, split.values.reshape(len(split), -1)])
            np.savetxt(data / f"{name}.csv", rows, delimiter=",")
        scores = []
        for directory in (dataset_dir, data):
            out = tmp_path / directory.name
            assert main(["adapt", "--data", str(directory), "--out", str(out),
                         "--strategy", "source", "--seeds", "0", "--epochs", "1"]) == 0
            scores.append(json.loads((out / "summary.json").read_text())["report"])
        assert scores[0] == scores[1]

    def test_zero_batch_size_is_exit_2(self, dataset_dir, tmp_path):
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--strategy", "source", "--seeds", "0", "--epochs", "1",
            "--batch-size", "0",
        ])
        assert code == 2

    def test_malformed_seed_lists_are_exit_2(self, dataset_dir, tmp_path):
        # an empty list used to run the default seeds 0, 1, 2
        for seeds in ("", "1,a", "0,,1"):
            code = main([
                "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
                "--strategy", "source", "--seeds", seeds, "--epochs", "1",
            ])
            assert code == 2, seeds

    def test_empty_model_path_is_exit_2(self, dataset_dir, tmp_path):
        code = main([
            "adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
            "--strategy", "source", "--seeds", "0", "--model", "",
        ])
        assert code == 2

    def test_requires_config_or_data(self):
        assert main(["adapt", "--strategy", "accup"]) == 2

    def test_empty_data_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # with --config, an empty --data used to read meta.json from the
        # working directory
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(ExperimentConfig(seeds=(0,)).to_dict()))
        monkeypatch.chdir(tmp_path)
        for argv in (["adapt", "--config", str(path), "--data", ""],
                     ["sweep", "--config", str(path), "--data", "", "--param", "tau",
                      "--values", "0.5"],
                     ["pretrain", "--data", "", "--out", str(tmp_path / "m.ttaw")]):
            assert main(argv) == 2, argv
            assert "--data is empty" in capsys.readouterr().err

    def test_config_file_with_overrides(self, dataset_dir, tmp_path):
        from tsadapt.experiment import ExperimentConfig, DirectoryData
        from tsadapt.data import DatasetMeta

        config = ExperimentConfig(
            data=DirectoryData(path=str(dataset_dir),
                               meta=DatasetMeta("custom", 2, 3, 64)),
            seeds=(0,),
            pretrain_epochs=1,
            encoder={"filters": [4, 6, 6]},
            output_dir=str(tmp_path / "cfg-runs"),
        )
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config.to_dict()))
        code = main(["adapt", "--config", str(path), "--strategy", "source",
                     "--out", str(tmp_path / "cfg-runs")])
        assert code == 0

    def test_config_file_output_dir_holds_without_out(self, dataset_dir, tmp_path,
                                                       monkeypatch, capsys):
        from tsadapt.data import DatasetMeta
        from tsadapt.experiment import DirectoryData

        wanted = tmp_path / "wanted"
        config = ExperimentConfig(
            data=DirectoryData(path=str(dataset_dir), meta=DatasetMeta("custom", 2, 3, 64)),
            strategy="source", seeds=(0,), pretrain_epochs=1,
            encoder={"filters": [4, 6, 6]}, output_dir=str(wanted),
        )
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config.to_dict()))
        monkeypatch.chdir(tmp_path)
        assert main(["adapt", "--config", str(path)]) == 0
        assert (wanted / "summary.json").is_file()
        assert not (tmp_path / "runs").exists()
        assert f"summary written to {wanted}" in capsys.readouterr().out

    def test_config_file_with_unknown_key_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"accup": {"ensemble_mode": "fixed"}}))
        assert main(["adapt", "--config", str(path)]) == 2
        assert "ensemble_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE_CONFIG_VALUES,
                             ids=OUT_OF_RANGE_CONFIG_IDS)
    def test_out_of_range_config_file_is_exit_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({key: value, "output_dir": str(tmp_path / "runs")}))
        assert main(["adapt", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value", WRONG_TYPED_CONFIG_VALUES + [("", None)],
                             ids=WRONG_TYPED_CONFIG_IDS + ["malformed-json"])
    def test_wrong_typed_config_file_is_exit_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "experiment.json"
        text = json.dumps(ExperimentConfig().to_dict())
        if key:
            text = json.dumps(set_dotted(json.loads(text), key, value))
        else:  # a malformed file: the error names the file instead
            text, key = text[:-20], path.name
        path.write_text(text)
        assert main(["adapt", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err


    @pytest.mark.parametrize("keys, value, message", [
        (["data.gen_seed"], -1, "data: gen_seed must be >= 0"),
        (["data.source.class_freqs", "data.target.class_freqs"], [],
         "data.source: need at least two class frequencies"),
        (["data.target.amplitude"], [1.0, 2.0, 3.0],
         "data.target: amplitude must be scalar or one factor per channel, got (3,)"),
    ], ids=["negative-gen-seed", "no-class-frequencies", "three-amplitudes-two-channels"])
    def test_out_of_range_generator_is_exit_2(self, tmp_path, capsys, keys, value, message):
        # these used to end in a ValueError and a ZeroDivisionError traceback
        config = ExperimentConfig(output_dir=str(tmp_path / "runs")).to_dict()
        for key in keys:
            set_dotted(config, key, value)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config))
        assert main(["adapt", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_data_overrides_the_config_file(self, dataset_dir, tmp_path):
        # --data used to be ignored whenever --config was given
        config = ExperimentConfig(strategy="source", seeds=(0,), pretrain_epochs=1,
                                  encoder={"filters": [4, 6, 6]})
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "runs"
        assert main(["adapt", "--config", str(path), "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        data = json.loads((out / "summary.json").read_text())["config"]["data"]
        assert data["kind"] == "directory" and data["path"] == str(dataset_dir)
        assert main(["adapt", "--config", str(path), "--data", str(tmp_path / "none"),
                     "--out", str(out)]) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_split_is_exit_3(self, dataset_dir, tmp_path, capsys, bad):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        blob = bytearray((data / "test.ttsd").read_bytes())
        # header 28 bytes, then records of one i4 label and 2*64 f4 values
        offset = 28 + 3 * (4 + 4 * 128) + 4
        blob[offset:offset + 4] = np.float32(bad).tobytes()
        (data / "test.ttsd").write_bytes(bytes(blob))
        assert main(["adapt", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--strategy", "source", "--seeds", "0", "--epochs", "1"]) == 3
        assert "test.ttsd: record 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, sidecar, text", [
        ("adapt", "meta.json", '{"channels": 2, "clas'),
        ("adapt", "meta.json", "[1, 2]"),
        ("pretrain", "meta.json", '{"channels": 2, "clas'),
        ("pretrain", "meta.json", "[1, 2]"),
        ("adapt", "model.ttaw.json", '{"encoder": {"in_ch'),
        ("adapt", "model.ttaw.json", "{}"),
        ("adapt", "meta.json", '{"channels": 2, "classes": 3, "length": 64, "n_trian": 8}'),
        ("pretrain", "meta.json", '{"channels": 2, "length": 64}'),
    ], ids=["adapt-truncated-meta", "adapt-list-meta", "pretrain-truncated-meta",
            "pretrain-list-meta", "truncated-model-sidecar", "empty-model-sidecar",
            "adapt-meta-unknown-key", "pretrain-meta-missing-key"])
    def test_malformed_sidecar_is_exit_3(self, dataset_dir, tmp_path, capsys,
                                         command, sidecar, text):
        # these used to end in a JSONDecodeError, TypeError or KeyError traceback
        from tsadapt.backbone import EncoderConfig, Model, save_model

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        model = tmp_path / "model.ttaw"
        save_model(model, Model(EncoderConfig(in_channels=2, filters=(4, 6, 6)), 3))
        bad = (data if sidecar == "meta.json" else tmp_path) / sidecar
        bad.write_text(text)
        argv = {"adapt": ["adapt", "--data", str(data), "--out", str(tmp_path / "x"),
                          "--strategy", "source", "--seeds", "0", "--epochs", "1"],
                "pretrain": ["pretrain", "--data", str(data), "--epochs", "1",
                             "--out", str(tmp_path / "m.ttaw")]}[command]
        if sidecar != "meta.json":
            argv += ["--model", str(model)]
        assert main(argv) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["missing-parameter", "missing-buffer", "wrong-shape",
                                       "beyond-float32", "truncated", "bad-magic", "version"])
    def test_malformed_snapshot_is_exit_3_naming_it(self, dataset_dir, tmp_path, capsys,
                                                    fault):
        # a missing tensor used to be exit 2 and a wrong shape a
        # ConformanceError, and no snapshot error named the file
        import tsadapt.autodiff as ad
        from tsadapt.backbone import EncoderConfig, Model, save_model

        model = Model(EncoderConfig(in_channels=2, filters=(4, 6, 6)), 3)
        path = tmp_path / "model.ttaw"
        save_model(path, model)
        tensors = ad.load_tensors(path)
        if fault == "missing-parameter":
            del tensors["cls.w"]
        elif fault == "missing-buffer":
            del tensors["enc.0.bn.rmean"]
        elif fault == "wrong-shape":
            tensors["cls.b"] = np.zeros(4)
        elif fault == "beyond-float32":
            tensors["cls.w"][0, 0] = 1e39
        ad.save_tensors(path, tensors)
        blob = bytearray(path.read_bytes())
        if fault == "truncated":
            del blob[-5:]
        elif fault == "bad-magic":
            blob[:4] = b"TTAX"
        elif fault == "version":
            blob[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        assert main(["adapt", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
                     "--strategy", "source", "--seeds", "0", "--model", str(path)]) == 3
        assert f"{path}: " in capsys.readouterr().err


class TestSweep:
    def test_small_grid(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--data", str(dataset_dir), "--out", str(out),
            "--seeds", "0", "--epochs", "1",
            "--param", "k_support", "--values", "1,5",
        ])
        assert code == 0
        rows = json.loads((out / "sweep_k_support.json").read_text())
        assert [r["value"] for r in rows] == [1, 5]

    def test_method_name_is_not_a_parameter(self, dataset_dir, tmp_path):
        code = main([
            "sweep", "--data", str(dataset_dir), "--out", str(tmp_path / "m"),
            "--seeds", "0", "--epochs", "1",
            "--param", "to_dict", "--values", "1",
        ])
        assert code == 2


    def test_non_integer_support_size_is_exit_2(self, dataset_dir, tmp_path):
        code = main([
            "sweep", "--data", str(dataset_dir), "--out", str(tmp_path / "k"),
            "--seeds", "0", "--epochs", "1",
            "--param", "k_support", "--values", "2.5",
        ])
        assert code == 2

    @pytest.mark.parametrize("param, values", [
        ("eta", '"x"'), ("use_contrast", '"false"'), ("augment", '{"knots":2.5}'),
        ("augment", '"jitter"'),
    ])
    def test_wrong_typed_values_are_exit_2(self, dataset_dir, tmp_path, capsys, param, values):
        code = main([
            "sweep", "--data", str(dataset_dir), "--out", str(tmp_path / "w"),
            "--seeds", "0", "--epochs", "1", "--param", param, "--values", values,
        ])
        assert code == 2
        assert param in capsys.readouterr().err

    def test_augment_values_are_specs(self, dataset_dir, tmp_path):
        out = tmp_path / "aug"
        code = main([
            "sweep", "--data", str(dataset_dir), "--out", str(out),
            "--seeds", "0", "--epochs", "1",
            "--param", "augment", "--values", '{"kind":"jitter"}',
        ])
        assert code == 0
        rows = json.loads((out / "sweep_augment.json").read_text())
        assert [r["value"] for r in rows] == [{"kind": "jitter"}]

    @pytest.mark.parametrize("values", [
        '{"kind":"jitter","sigma":0.1}',
        '{"kind":"compose","parts":[{"kind":"scale"},{"kind":"jitter","sigma":0.05}]}',
    ], ids=["two-keys", "compose"])
    def test_augment_objects_keep_their_commas(self, dataset_dir, tmp_path, values):
        out = tmp_path / "obj"
        code = main([
            "sweep", "--data", str(dataset_dir), "--out", str(out),
            "--seeds", "0", "--epochs", "1",
            "--param", "augment", "--values", values + ',{"kind":"none"}',
        ])
        assert code == 0
        rows = json.loads((out / "sweep_augment.json").read_text())
        assert [r["value"] for r in rows] == [json.loads(values), {"kind": "none"}]

    def test_baseline_strategy_is_exit_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "tent"
        code = main([
            "sweep", "--data", str(dataset_dir), "--out", str(out), "--strategy", "tent",
            "--seeds", "0", "--epochs", "1", "--param", "k_support", "--values", "1,2,3",
        ])
        assert code == 2
        assert "'tent'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_values_are_exit_2(self, dataset_dir, tmp_path):
        for values in ("a", "1,", ""):
            code = main([
                "sweep", "--data", str(dataset_dir), "--out", str(tmp_path / "v"),
                "--seeds", "0", "--epochs", "1",
                "--param", "eta", "--values", values,
            ])
            assert code == 2, values


class TestReport:
    def test_prints_aggregates(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "runs"
        main([
            "adapt", "--data", str(dataset_dir), "--out", str(out),
            "--strategy", "source", "--seeds", "0,1", "--epochs", "1",
        ])
        capsys.readouterr()
        code = main(["report", str(out / "summary.json")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean=" in printed and "std=" in printed

    @pytest.mark.parametrize("text", ['{"config": ', '{"x": 1}', '[1, 2]'],
                             ids=["malformed-json", "no-config", "not-an-object"])
    def test_non_summary_file_is_exit_3(self, text, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 3
        assert f"{path} is not a summary file" in capsys.readouterr().err

    def test_directory_is_exit_3(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 3


def test_readme_commands_parse():
    # a flag the CLI no longer has must not stay in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("tsadapt ")]
    parser = build_parser()
    commands = set()
    for line in lines:
        try:
            commands.add(parser.parse_args(shlex.split(line, comments=True)[1:]).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    assert commands == {"generate-data", "pretrain", "adapt", "sweep", "report"}


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "tsadapt.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("pretrain", "adapt", "generate-data", "sweep", "report"):
        assert sub in proc.stdout
