"""Container format, CSV import, and synthetic generator tests."""

import json
import re
import struct

import numpy as np
import pytest

from tsadapt.backbone import EncoderConfig, Model, pretrain_source, predict
from tsadapt.data import (
    PROFILES,
    DatasetMeta,
    ShiftSpec,
    TimeSeriesBatch,
    generate_shifted_pair,
    load_csv_split,
    load_dataset,
    load_meta,
    load_split,
    make_stream,
    save_dataset,
    save_split,
)
from tsadapt.errors import (
    ConfigurationError,
    ConformanceError,
    FormatError,
    LabelRangeError,
)
from tsadapt.metrics import macro_f1


def small_batch(rng, n=10, cin=2, length=16, classes=3):
    # float32-representable values so container round trips are bitwise
    values = rng.normal(size=(n, cin, length)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, classes, size=n)
    return TimeSeriesBatch(values, labels)


def container(labels=(0, 1), version=1, cin=2, classes=3, length=16, magic=b"TTSD"):
    """The bytes of a split file, built field by field."""
    records = b"".join(struct.pack("<i", y) + np.zeros(cin * length, "<f4").tobytes()
                       for y in labels)
    return magic + struct.pack("<IIIIQ", version, cin, classes, length, len(labels)) + records


def csv_rows(*labels, values=32):
    return "".join(f"{y}," + ",".join(["0.5"] * values) + "\n" for y in labels)


class TestDatasetMeta:
    def test_known_profiles(self):
        assert PROFILES == {"ucihar": (9, 6, 128), "mfd": (1, 3, 5120), "ssc": (1, 5, 3000)}
        for name, shape in PROFILES.items():
            meta = DatasetMeta(name, *shape)
            assert (meta.channels, meta.classes, meta.length) == shape

    def test_profile_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            DatasetMeta("ucihar", 8, 6, 128)

    @pytest.mark.parametrize("meta, key", [
        ({"channels": 2, "classes": 3, "length": 64, "n_trian": 8}, "n_trian"),
        ({"channels": 2.0, "classes": 3, "length": 64}, "channels"),
        ({"channels": 2, "length": 64}, "classes"),
    ], ids=["unknown-key", "float-channels", "missing-classes"])
    def test_meta_json_is_read_strictly(self, tmp_path, meta, key):
        # a data error naming the file, as for a model sidecar with a bad key
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=key) as err:
            load_meta(tmp_path)
        assert str(tmp_path / "meta.json") in str(err.value)


class TestContainer:
    def test_round_trip_bitwise(self, tmp_path):
        batch = small_batch(np.random.default_rng(0))
        path = tmp_path / "split.ttsd"
        save_split(path, batch, n_classes=3)
        loaded = load_split(path)
        np.testing.assert_array_equal(loaded.values, batch.values)
        np.testing.assert_array_equal(loaded.labels, batch.labels)

    def test_truncated_file_is_a_format_error(self, tmp_path):
        batch = small_batch(np.random.default_rng(1))
        path = tmp_path / "split.ttsd"
        save_split(path, batch, n_classes=3)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(FormatError):
            load_split(path)

    def test_bytes_follow_the_record_layout(self, tmp_path):
        # header, then per record a <i4 label and <f4 values, row-major
        batch = small_batch(np.random.default_rng(6), n=5, classes=3)
        path = tmp_path / "split.ttsd"
        save_split(path, batch, n_classes=3)
        expected = b"TTSD" + struct.pack("<IIIIQ", 1, 2, 3, 16, 5) + b"".join(
            struct.pack("<i", int(y)) + v.astype("<f4").tobytes()
            for y, v in zip(batch.labels, batch.values))
        assert path.read_bytes() == expected

    def test_record_count_beyond_the_file_is_a_format_error(self, tmp_path):
        # 2**40 declared records must not reach an allocation
        path = tmp_path / "split.ttsd"
        record = struct.pack("<i", 0) + np.zeros(32, "<f4").tobytes()
        path.write_bytes(b"TTSD" + struct.pack("<IIIIQ", 1, 2, 3, 16, 2**40) + record)
        with pytest.raises(FormatError, match="truncated while reading 1099511627776 records"):
            load_split(path)

    def test_oversized_record_shape_names_the_file(self, tmp_path):
        path = tmp_path / "split.ttsd"
        path.write_bytes(container(labels=(), cin=2**31, length=2**31))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: record shape"):
            load_split(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "split.ttsd"
        path.write_bytes(b"WAT?" + b"\x00" * 24)
        with pytest.raises(FormatError):
            load_split(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "split.ttsd"
        path.write_bytes(b"TTSD" + struct.pack("<IIIIQ", 9, 1, 2, 4, 0))
        with pytest.raises(FormatError):
            load_split(path)

    def test_meta_shape_mismatch(self, tmp_path):
        batch = small_batch(np.random.default_rng(2))
        path = tmp_path / "split.ttsd"
        save_split(path, batch, n_classes=3)
        wrong = DatasetMeta("custom", 2, 3, 99)
        with pytest.raises(ConformanceError):
            load_split(path, wrong)

    def test_out_of_range_label_rejected_at_both_ends(self, tmp_path):
        # writing a 7th class into a six-class container must fail, and a
        # hand-forged file with a bad label must fail on read
        rng = np.random.default_rng(3)
        values = rng.normal(size=(1, 9, 128)).astype(np.float32).astype(np.float64)
        batch = TimeSeriesBatch(values, np.array([6]))
        path = tmp_path / "ucihar.ttsd"
        with pytest.raises(LabelRangeError):
            save_split(path, batch, n_classes=6)
        with open(path, "wb") as f:
            f.write(b"TTSD")
            f.write(struct.pack("<IIIIQ", 1, 9, 6, 128, 1))
            f.write(struct.pack("<i", 6))
            f.write(values[0].astype("<f4").tobytes())
        with pytest.raises(LabelRangeError):
            load_split(path, DatasetMeta("ucihar", 9, 6, 128))

    def test_dataset_directory_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        train, test = small_batch(rng, 12), small_batch(rng, 8)
        meta = DatasetMeta("custom", 2, 3, 16, n_train=12, n_test=8)
        save_dataset(tmp_path / "ds", train, test, meta)
        assert load_meta(tmp_path / "ds") == meta
        loaded_train, loaded_test = load_dataset(tmp_path / "ds", meta)
        np.testing.assert_array_equal(loaded_train.values, train.values)
        np.testing.assert_array_equal(loaded_test.labels, test.labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e39],
                             ids=["nan", "inf", "float32-overflow"])
    def test_values_that_are_not_finite_float32_are_never_written(self, tmp_path, bad):
        rng = np.random.default_rng(4)
        train, test = small_batch(rng, 12), small_batch(rng, 8)
        test.values[5, 1, 3] = bad
        with pytest.raises(FormatError, match=r"test\.ttsd: record 5 .* finite float32"):
            save_dataset(tmp_path / "ds", train, test, DatasetMeta("custom", 2, 3, 16))
        assert not (tmp_path / "ds").exists()
        with pytest.raises(FormatError, match="record 5"):
            save_split(tmp_path / "test.ttsd", test, n_classes=3)
        assert not (tmp_path / "test.ttsd").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_record_is_rejected_on_read(self, tmp_path, bad):
        batch = small_batch(np.random.default_rng(1), n=4)
        path = tmp_path / "split.ttsd"
        save_split(path, batch, n_classes=3)
        blob = bytearray(path.read_bytes())
        # header 28 bytes, then records of one i4 label and 2*16 f4 values
        offset = 28 + 2 * (4 + 4 * 32) + 4 + 4 * 7
        blob[offset:offset + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"split\.ttsd: record 2 .* not a finite"):
            load_split(path)

    def test_missing_split_is_a_format_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "empty", DatasetMeta("custom", 2, 3, 16))


class TestSplitErrorsNameTheFile:
    @pytest.mark.parametrize("name, content, error", [
        ("test.ttsd", container()[:-17], FormatError),
        ("test.ttsd", container(magic=b"WAT?"), FormatError),
        ("test.ttsd", container(version=9), FormatError),
        ("test.ttsd", container(length=8), ConformanceError),
        ("test.ttsd", container(labels=(0, 3)), LabelRangeError),
        ("test.csv", "0,1,x\n", FormatError),
        ("test.csv", csv_rows(0, values=31), ConformanceError),
        ("test.csv", csv_rows(0, 1.5), FormatError),
        ("test.csv", csv_rows(0, 3), LabelRangeError),
    ], ids=["truncated", "bad-magic", "version", "meta-mismatch", "label-range",
            "csv-parse", "csv-columns", "csv-non-integer-label", "csv-label-range"])
    def test_error_names_the_split(self, tmp_path, name, content, error):
        # the error used to say what was wrong but not which split held it
        meta = DatasetMeta("custom", 2, 3, 16)
        save_split(tmp_path / "train.ttsd", small_batch(np.random.default_rng(0)), 3)
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            path.write_bytes(content)
        with pytest.raises(error) as err:
            load_dataset(tmp_path, meta)
        assert str(err.value).startswith(f"{path}: ")
        assert err.value.exit_code == 3


class TestCsvImport:
    def test_round_trip_through_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        batch = small_batch(rng, n=6, cin=2, length=4)
        meta = DatasetMeta("custom", 2, 3, 4)
        rows = np.column_stack([batch.labels, batch.values.reshape(6, -1)])
        path = tmp_path / "train.csv"
        np.savetxt(path, rows, delimiter=",")
        loaded = load_csv_split(path, meta)
        np.testing.assert_allclose(loaded.values, batch.values, atol=1e-12)
        np.testing.assert_array_equal(loaded.labels, batch.labels)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("0,1.0,2.0\n")
        with pytest.raises(ConformanceError):
            load_csv_split(path, DatasetMeta("custom", 2, 3, 4))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("5," + ",".join(["0.0"] * 8) + "\n")
        with pytest.raises(LabelRangeError):
            load_csv_split(path, DatasetMeta("custom", 2, 3, 4))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_is_rejected(self, tmp_path, bad):
        path = tmp_path / "train.csv"
        path.write_text("0,1,2,3,4,5,6,7,8\n1,1,2,3," + bad + ",5,6,7,8\n")
        with pytest.raises(FormatError, match=r"train\.csv: record 1 .* not a finite"):
            load_csv_split(path, DatasetMeta("custom", 2, 3, 4))


class TestShiftSpec:
    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ConfigurationError):
            ShiftSpec(class_freqs=(2.0, 2.0, 5.0))

    def test_class_probs_must_be_a_distribution(self):
        with pytest.raises(ConfigurationError):
            ShiftSpec(class_probs=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("field, value", [
        ("channels", 0), ("length", 0), ("length", -3), ("amplitude", float("nan")),
        ("amplitude", (1.0, float("inf"))), ("noise_std", float("inf")),
        ("offset", float("-inf")), ("class_freqs", (2.0, float("nan"), 8.0)),
        ("class_phases", (0.0, float("inf"), 0.0)),
    ])
    def test_degenerate_shape_or_non_finite_level_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ShiftSpec(**{field: value})

    @pytest.mark.parametrize("sizes, name", [((0, 8), "n_source"), ((8, 0), "n_target"),
                                             ((8, -5), "n_target")])
    def test_empty_or_negative_sizes_rejected(self, sizes, name):
        with pytest.raises(ConfigurationError, match=name):
            generate_shifted_pair(ShiftSpec(), ShiftSpec(), sizes, seed=0)

    @pytest.mark.parametrize("freqs", [(), (2.0,)])
    def test_fewer_than_two_classes_rejected(self, freqs):
        # no class frequencies used to divide by zero in probs()
        with pytest.raises(ConfigurationError, match="two class frequencies"):
            ShiftSpec(class_freqs=freqs)

    def test_negative_seed_rejected(self):
        # numpy's default_rng used to raise a bare ValueError
        with pytest.raises(ConfigurationError, match="seed"):
            generate_shifted_pair(ShiftSpec(), ShiftSpec(), (8, 8), seed=-1)

    def test_mismatched_specs_rejected(self):
        a = ShiftSpec(class_freqs=(2.0, 5.0))
        b = ShiftSpec(class_freqs=(2.0, 6.0))
        with pytest.raises(ConfigurationError):
            generate_shifted_pair(a, b, (8, 8), seed=0)

    def test_dict_round_trip(self):
        spec = ShiftSpec(amplitude=(1.0, 2.0), noise_std=0.4, offset=0.1,
                         class_probs=(0.5, 0.25, 0.25))
        assert ShiftSpec.from_dict(spec.to_dict()) == spec


class TestGenerator:
    def test_fixed_seed_is_bitwise_deterministic(self):
        spec = ShiftSpec()
        a_src, a_tgt = generate_shifted_pair(spec, spec, (32, 48), seed=7)
        b_src, b_tgt = generate_shifted_pair(spec, spec, (32, 48), seed=7)
        np.testing.assert_array_equal(a_src.values, b_src.values)
        np.testing.assert_array_equal(a_tgt.values, b_tgt.values)
        np.testing.assert_array_equal(a_src.labels, b_src.labels)

    def test_uniform_probs_balance_counts_within_one(self):
        spec = ShiftSpec()
        for n in (31, 32, 100):
            src, _ = generate_shifted_pair(spec, spec, (n, 8), seed=1)
            counts = np.bincount(src.labels, minlength=3)
            assert counts.max() - counts.min() <= 1

    def test_skewed_probs_respected(self):
        spec = ShiftSpec(class_probs=(0.7, 0.2, 0.1))
        src, _ = generate_shifted_pair(spec, spec, (100, 8), seed=2)
        counts = np.bincount(src.labels, minlength=3)
        np.testing.assert_array_equal(counts, [70, 20, 10])

    def test_per_channel_amplitude_scales_each_channel(self):
        quiet = dict(channels=2, noise_std=0.0)
        _, scalar = generate_shifted_pair(ShiftSpec(), ShiftSpec(amplitude=1.0, **quiet),
                                          (8, 16), seed=4)
        _, tupled = generate_shifted_pair(ShiftSpec(), ShiftSpec(amplitude=(1.0, 3.0), **quiet),
                                          (8, 16), seed=4)
        np.testing.assert_array_equal(tupled.labels, scalar.labels)
        np.testing.assert_array_equal(tupled.values[:, 0], scalar.values[:, 0])
        np.testing.assert_array_equal(tupled.values[:, 1], 3.0 * scalar.values[:, 1])

    def test_amplitude_needs_one_factor_per_channel(self):
        # checked when the spec is built, not first when data are generated
        with pytest.raises(ConfigurationError, match="one factor per channel"):
            ShiftSpec(channels=2, amplitude=(1.0, 2.0, 3.0))

    def test_values_finite_and_shaped(self):
        spec = ShiftSpec(channels=3, length=40)
        src, tgt = generate_shifted_pair(spec, spec, (16, 24), seed=3)
        assert src.values.shape == (16, 3, 40)
        assert tgt.values.shape == (24, 3, 40)
        assert np.all(np.isfinite(src.values))

    def test_no_shift_classifier_scores_high(self, shift_data):
        # identical specs: a source-trained model generalizes to the target
        spec = ShiftSpec(amplitude=0.1, noise_std=0.03)
        train, _ = generate_shifted_pair(spec, spec, (192, 8), seed=0)
        _, target = generate_shifted_pair(spec, spec, (8, 300), seed=11)
        model = Model(EncoderConfig(in_channels=2, filters=(8, 12, 12)), 3, seed=0)
        pretrain_source(model, train.values, train.labels, epochs=10,
                        batch_size=32, lr=1e-3, seed=0)
        score = macro_f1(predict(model, target.values), target.labels, 3).macro_f1
        assert score > 0.95

    def test_declared_shift_degrades_the_source_model(self, pretrained):
        # amplitude factor 3 plus noise 0.5 costs the frozen model >= 10 points
        spec = ShiftSpec(amplitude=0.1, noise_std=0.03)
        shifted = ShiftSpec(amplitude=0.3, noise_std=0.5)
        _, clean = generate_shifted_pair(spec, spec, (8, 300), seed=21)
        _, moved = generate_shifted_pair(spec, shifted, (8, 300), seed=21)
        clean_f1 = macro_f1(predict(pretrained, clean.values), clean.labels, 3).macro_f1
        moved_f1 = macro_f1(predict(pretrained, moved.values), moved.labels, 3).macro_f1
        assert clean_f1 - moved_f1 >= 0.10


class TestMakeStream:
    def test_preserves_order_and_sizes(self):
        batch = TimeSeriesBatch(np.arange(70 * 2 * 4, dtype=float).reshape(70, 2, 4),
                                np.zeros(70, dtype=int))
        stream = make_stream(batch, 32)
        assert [len(b) for b in stream] == [32, 32, 6]
        np.testing.assert_array_equal(stream[0].values[0], batch.values[0])
        np.testing.assert_array_equal(stream[2].values[-1], batch.values[-1])
