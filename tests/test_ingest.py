import json

import numpy as np
import pytest

from flowsentry.errors import (
    DataError,
    ModelFormatError,
    ParameterError,
    SchemaError,
    ShapeError,
)
from flowsentry.ingest import (
    DEFAULT_FEATURES,
    Dataset,
    FeatureSpec,
    apply_scaler,
    assemble_test_set,
    fit_scaler,
    load_scaler,
    parse_csv,
    save_scaler,
    split_benign,
    to_dataset,
    write_csv,
)

SPEC2 = FeatureSpec(names=("A", "B"), label_column="Label")


def invert_scaler(scaled, scaler):
    """Oracle: map scaled values back to raw units, x*(max-min)+min."""
    return scaled * (scaler.max - scaler.min) + scaler.min


def write(tmp_path, text, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestFeatureSpec:
    def test_default_is_the_five_packet_length_columns(self):
        spec = FeatureSpec()
        assert spec.names == DEFAULT_FEATURES
        assert spec.m == 5
        assert spec.label_column == "Label"

    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ParameterError):
            FeatureSpec(names=())
        with pytest.raises(ParameterError):
            FeatureSpec(names=("A", "A"))


class TestParseCsv:
    def test_benign_label_encodes_to_zero(self, tmp_path):
        path = write(tmp_path, "A,B,Label\n1,2,BENIGN\n")
        records = parse_csv(path, SPEC2)
        assert len(records) == 1
        assert records[0].label == 0
        assert records[0].features.tolist() == [1.0, 2.0]

    def test_non_benign_label_encodes_to_one(self, tmp_path):
        path = write(tmp_path, "A,B,Label\n1,2,DrDoS_DNS\n3,4,benign\n")
        records = parse_csv(path, SPEC2)
        assert [r.label for r in records] == [1, 0]  # case-insensitive benign

    def test_header_whitespace_is_trimmed(self, tmp_path):
        path = write(tmp_path, " A, B , Label\n1,2,BENIGN\n")
        records = parse_csv(path, SPEC2)
        assert len(records) == 1

    def test_infinity_row_is_skipped_and_counted(self, tmp_path, caplog):
        text = "A,B,Label\n1,2,BENIGN\n3,Infinity,BENIGN\n5,6,BENIGN\n7,8,DrDoS_DNS\n"
        path = write(tmp_path, text)
        with caplog.at_level("WARNING"):
            records = parse_csv(path, SPEC2)
        assert len(records) == 3
        assert "skipped 1" in caplog.text

    def test_non_numeric_cell_is_skipped(self, tmp_path):
        path = write(tmp_path, "A,B,Label\nfoo,2,BENIGN\n3,4,BENIGN\n")
        records = parse_csv(path, SPEC2)
        assert len(records) == 1
        assert records[0].row == 1  # original data-row index survives

    def test_missing_column_names_the_column(self, tmp_path):
        path = write(tmp_path, "A,Label\n1,BENIGN\n")
        with pytest.raises(SchemaError, match="B"):
            parse_csv(path, SPEC2)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_csv(tmp_path / "nope.csv", SPEC2)

    def test_every_parsed_label_is_binary(self, tmp_path):
        rows = "\n".join(f"{i},{i},label-{i}" for i in range(20))
        path = write(tmp_path, f"A,B,Label\n{rows}\n")
        records = parse_csv(path, SPEC2)
        assert set(r.label for r in records) <= {0, 1}


class TestClean:
    """parse_csv drops every row with a NaN/inf feature, in order."""

    def parse(self, tmp_path, *rows):
        body = "".join(f"{a},{b},BENIGN\n" for a, b in rows)
        return parse_csv(write(tmp_path, f"A,B,Label\n{body}"), SPEC2)

    def test_empty_input(self, tmp_path):
        assert self.parse(tmp_path) == []

    def test_single_nan_record_removed(self, tmp_path):
        rows = [(1, 2), ("nan", 2)] + [(i, i) for i in range(3)]
        assert len(self.parse(tmp_path, *rows)) == 4

    def test_two_inf_rows_of_ten(self, tmp_path, caplog):
        rows = [(i, i) for i in range(8)]
        rows.insert(3, ("inf", 0))
        rows.insert(7, (0, "-inf"))
        with caplog.at_level("WARNING"):
            survivors = self.parse(tmp_path, *rows)
        assert len(survivors) == 8
        assert "skipped 2" in caplog.text
        # order preserved, source rows kept
        assert [r.features[0] for r in survivors] == [float(i) for i in range(8)]
        assert [r.row for r in survivors] == [0, 1, 2, 4, 5, 6, 8, 9]

    def test_idempotent(self, tmp_path):
        once = self.parse(tmp_path, (1, "nan"), (2, 3), ("inf", 1))
        again, ds = tmp_path / "again.csv", to_dataset(once)
        write_csv(again, ds.matrix, ds.labels, SPEC2)
        twice = parse_csv(again, SPEC2)
        assert [r.features.tolist() for r in twice] == [r.features.tolist() for r in once]


class TestScaler:
    def test_fit_single_column(self):
        s = fit_scaler(np.array([[2.0], [4.0], [6.0]]))
        assert s.min.tolist() == [2.0]
        assert s.max.tolist() == [6.0]

    def test_fit_constant_column(self):
        s = fit_scaler(np.array([[5.0], [5.0], [5.0]]))
        assert s.min.tolist() == [5.0] and s.max.tolist() == [5.0]

    def test_fit_two_columns(self):
        s = fit_scaler(np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]]))
        assert s.min.tolist() == [0.0, 10.0]
        assert s.max.tolist() == [10.0, 30.0]

    def test_fit_empty_matrix(self):
        with pytest.raises(DataError):
            fit_scaler(np.empty((0, 3)))

    def test_apply_endpoints_and_midpoint(self):
        s = fit_scaler(np.array([[2.0], [4.0], [6.0]]))
        out = apply_scaler(np.array([[2.0], [4.0], [6.0]]), s)
        assert out.tolist() == [[0.0], [0.5], [1.0]]

    def test_apply_constant_column_maps_to_zero(self):
        s = fit_scaler(np.array([[5.0], [5.0]]))
        out = apply_scaler(np.array([[5.0], [7.0]]), s)
        assert out.tolist() == [[0.0], [0.0]]

    def test_out_of_range_values_clamped(self):
        s = fit_scaler(np.array([[0.0], [10.0]]))
        out = apply_scaler(np.array([[-5.0], [15.0]]), s)
        assert out.tolist() == [[0.0], [1.0]]

    def test_dimension_mismatch(self):
        s = fit_scaler(np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            apply_scaler(np.array([[1.0]]), s)

    def test_round_trip_recovers_raw_values(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(-50, 50, size=(40, 5))
        s = fit_scaler(raw)
        back = invert_scaler(apply_scaler(raw, s), s)
        assert np.allclose(back, raw, rtol=1e-9, atol=1e-9)

    def test_persistence_round_trip(self, tmp_path):
        s = fit_scaler(np.array([[1.0, -3.0], [2.0, 9.0]]), feature_names=("A", "B"))
        path = tmp_path / "scaler.json"
        save_scaler(s, path)
        loaded = load_scaler(path)
        assert loaded.min.tolist() == s.min.tolist()
        assert loaded.max.tolist() == s.max.tolist()
        assert loaded.feature_names == ("A", "B")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps({"version": 99, "min": [0], "max": [1]}))
        with pytest.raises(ModelFormatError):
            load_scaler(path)

    @pytest.mark.parametrize("names", [None, []], ids=["absent", "empty"])
    def test_feature_names_are_required(self, tmp_path, names):
        # the stages after preprocess read their columns from these names
        doc = {"version": 1, "min": [0.0], "max": [1.0]}
        if names is not None:
            doc["feature_names"] = names
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_scaler(path)


def benign_dataset(n, m=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, m)), np.zeros(n, dtype=int))


class TestSplitBenign:
    def test_eighty_twenty(self):
        train, held = split_benign(benign_dataset(10), 0.8, seed=1)
        assert train.n == 8 and held.n == 2

    def test_floor_arithmetic(self):
        train, held = split_benign(benign_dataset(2), 0.5, seed=1)
        assert train.n == 1 and held.n == 1

    def test_same_seed_identical_partitions(self):
        ds = benign_dataset(30)
        a = split_benign(ds, 0.8, seed=7)
        b = split_benign(ds, 0.8, seed=7)
        assert np.array_equal(a[0].matrix, b[0].matrix)
        assert np.array_equal(a[1].matrix, b[1].matrix)

    def test_union_is_the_input_multiset(self):
        ds = benign_dataset(17)
        train, held = split_benign(ds, 0.6, seed=2)
        merged = np.concatenate([train.matrix, held.matrix])
        assert np.array_equal(
            np.sort(merged, axis=0), np.sort(ds.matrix, axis=0)
        )

    def test_parts_preserve_source_order(self):
        ds = Dataset(np.arange(20, dtype=float).reshape(-1, 1), np.zeros(20, dtype=int))
        train, held = split_benign(ds, 0.7, seed=5)
        assert np.all(np.diff(train.matrix[:, 0]) > 0)
        assert np.all(np.diff(held.matrix[:, 0]) > 0)

    def test_rejects_non_benign_rows(self):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 0]))
        with pytest.raises(DataError):
            split_benign(ds, 0.5, seed=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ParameterError):
            split_benign(benign_dataset(4), 1.0, seed=0)


class TestAssembleTestSet:
    def attacks(self, n, seed=1):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(n, 2)), np.ones(n, dtype=int))

    def test_five_percent_of_hundred(self):
        held = benign_dataset(20)
        out = assemble_test_set(held, self.attacks(100), 0.05, seed=3)
        assert out.n == 25
        assert int(np.sum(out.labels == 1)) == 5

    def test_fraction_one_takes_all(self):
        held = benign_dataset(4)
        attacks = self.attacks(9)
        out = assemble_test_set(held, attacks, 1.0, seed=3)
        assert np.array_equal(out.matrix[4:], attacks.matrix)

    def test_same_seed_identical(self):
        held, attacks = benign_dataset(6), self.attacks(50)
        a = assemble_test_set(held, attacks, 0.3, seed=9)
        b = assemble_test_set(held, attacks, 0.3, seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_labels_preserved(self):
        out = assemble_test_set(benign_dataset(3), self.attacks(10), 0.5, seed=0)
        assert out.labels.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]

    def test_empty_sides_warn_not_raise(self, caplog):
        empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with caplog.at_level("WARNING"):
            out = assemble_test_set(empty, self.attacks(10), 0.5, seed=0)
        assert out.n == 5
        assert "no held-out benign" in caplog.text

    def test_rejects_benign_rows_in_attack_set(self):
        bad = Dataset(np.zeros((2, 2)), np.array([1, 0]))
        with pytest.raises(DataError):
            assemble_test_set(benign_dataset(2), bad, 1.0, seed=0)


class TestWriteCsv:
    def test_round_trips_through_parse(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0, 100, size=(12, 2))
        labels = np.array([0] * 6 + [1] * 6)
        path = tmp_path / "out.csv"
        write_csv(path, matrix, labels, SPEC2)
        ds = to_dataset(parse_csv(path, SPEC2))
        assert np.allclose(ds.matrix, matrix)
        assert np.array_equal(ds.labels, labels)
