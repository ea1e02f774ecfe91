import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsentry import ingest
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

    def test_rejects_a_label_column_that_is_a_feature_column(self):
        with pytest.raises(ParameterError, match="label column 'A' is also a feature column"):
            FeatureSpec(names=("A", "B"), label_column="A")


class TestParseCsv:
    def test_benign_label_encodes_to_zero(self, tmp_path):
        path = write(tmp_path, "A,B,Label\n1,2,BENIGN\n")
        ds = parse_csv(path, SPEC2)
        assert len(ds) == 1
        assert ds.labels.tolist() == [0]
        assert ds.matrix.tolist() == [[1.0, 2.0]]

    def test_non_benign_label_encodes_to_one(self, tmp_path):
        path = write(tmp_path, "A,B,Label\n1,2,DrDoS_DNS\n3,4,benign\n")
        ds = parse_csv(path, SPEC2)
        assert ds.labels.tolist() == [1, 0]  # case-insensitive benign

    def test_header_whitespace_is_trimmed(self, tmp_path):
        path = write(tmp_path, " A, B , Label\n1,2,BENIGN\n")
        ds = parse_csv(path, SPEC2)
        assert len(ds) == 1

    def test_infinity_row_is_skipped_and_counted(self, tmp_path, caplog):
        text = "A,B,Label\n1,2,BENIGN\n3,Infinity,BENIGN\n5,6,BENIGN\n7,8,DrDoS_DNS\n"
        path = write(tmp_path, text)
        with caplog.at_level("WARNING"):
            ds = parse_csv(path, SPEC2)
        assert len(ds) == 3
        assert "skipped 1" in caplog.text

    def test_non_numeric_cell_is_skipped(self, tmp_path):
        path = write(tmp_path, "A,B,Label\nfoo,2,BENIGN\n3,4,BENIGN\n")
        ds = parse_csv(path, SPEC2)
        assert len(ds) == 1
        assert ds.rows.tolist() == [1]  # original data-row index survives

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
        ds = parse_csv(path, SPEC2)
        assert set(ds.labels.tolist()) <= {0, 1}


class TestClean:
    """parse_csv drops every row with a NaN/inf feature, in order."""

    def parse(self, tmp_path, *rows):
        body = "".join(f"{a},{b},BENIGN\n" for a, b in rows)
        return parse_csv(write(tmp_path, f"A,B,Label\n{body}"), SPEC2)

    def test_empty_input(self, tmp_path):
        ds = self.parse(tmp_path)
        assert len(ds) == 0 and ds.matrix.shape == (0, 2)

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
        assert survivors.matrix[:, 0].tolist() == [float(i) for i in range(8)]
        assert survivors.rows.tolist() == [0, 1, 2, 4, 5, 6, 8, 9]

    def test_idempotent(self, tmp_path):
        once = self.parse(tmp_path, (1, "nan"), (2, 3), ("inf", 1))
        again = tmp_path / "again.csv"
        write_csv(again, once.matrix, once.labels, SPEC2)
        twice = parse_csv(again, SPEC2)
        assert twice.matrix.tolist() == once.matrix.tolist()


def oracle_parse(path, spec):
    """Row by row: float() each feature cell, keep the row if every value is
    finite, and number the rows as enumerate() over the csv reader does."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        columns = {name.strip(): i for i, name in enumerate(next(reader))}
        feature_idx = [columns[c] for c in spec.names]
        label_idx = columns[spec.label_column]
        matrix, labels, rows, skipped = [], [], [], 0
        for row_no, row in enumerate(reader):
            if not row:
                continue
            try:
                values = [float(row[i]) for i in feature_idx]
                label_text = row[label_idx]
            except (ValueError, IndexError):
                skipped += 1
                continue
            if not all(math.isfinite(v) for v in values):
                skipped += 1
                continue
            matrix.append(values)
            labels.append(0 if label_text.strip().upper() == "BENIGN" else 1)
            rows.append(row_no)
    return np.array(matrix, dtype=float).reshape(-1, spec.m), labels, rows, skipped


# CICFlowMeter-like layout: leading-space and trailing-space headers, extra
# columns on both sides of the features, the label before the last column
HEADER = ["Flow ID", " A", " Extra", "B ", " Label", "Tail"]
FEATURE_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["Infinity", "-Infinity", "NaN", "nan", "inf", "abc", "", " 1.5 ", "1e400", "0x10"]),
)
LABEL_CELL = st.sampled_from([" benign ", "BENIGN", "benign", "DrDoS_DNS", "attack", ""])
EXTRA_CELL = st.sampled_from(["x", "a,b", 'say "hi"', "", "line\nbreak"])
FULL_ROW = st.tuples(EXTRA_CELL, FEATURE_CELL, EXTRA_CELL, FEATURE_CELL, LABEL_CELL, EXTRA_CELL).map(list)
CSV_ROW = st.one_of(
    FULL_ROW,
    FULL_ROW,
    st.just([]),  # a blank line
    st.tuples(FULL_ROW, st.integers(1, 4)).map(lambda r: r[0][: r[1]]),  # a short row
)


# Rows with no quote character, so that many blocks reach numpy's C reader. Their
# cells include ones Python's float reads and numpy's reader may refuse; rows
# may end before the label cell, hold only whitespace or be blank.
PLAIN_FEATURE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["Infinity", "NaN", "abc", " 1.5 ", "1e400", "1_0", "\u0661", "\xa01.5", "+1.5"]),
)
PLAIN_EXTRA = st.sampled_from(["x", " ", "Infinity"])
PLAIN_FULL_ROW = st.tuples(
    PLAIN_EXTRA, PLAIN_FEATURE, PLAIN_EXTRA, PLAIN_FEATURE, LABEL_CELL, PLAIN_EXTRA
).map(list)
PLAIN_ROW = st.one_of(
    PLAIN_FULL_ROW,
    PLAIN_FULL_ROW,
    PLAIN_FULL_ROW,
    st.just([]),  # a blank line
    st.tuples(PLAIN_FULL_ROW, st.integers(1, 5)).map(lambda r: r[0][: r[1]]),  # a short row
)
PLAIN = ["x", "1.5", " ", "2", "BENIGN", "x"]


def assert_matches_the_oracle(block, rows, quoting):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "flows.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=quoting)
            writer.writerow(HEADER)
            writer.writerows(rows)
        mp.setattr(ingest, "PARSE_BLOCK", block)
        with mock.patch.object(ingest.logger, "warning") as warn:
            ds = parse_csv(path, SPEC2)
        matrix, labels, source_rows, skipped = oracle_parse(path, SPEC2)
    assert ds.matrix.shape == matrix.shape and ds.matrix.tobytes() == matrix.tobytes()
    assert ds.labels.tolist() == labels
    assert ds.rows.tolist() == source_rows
    if skipped:
        warn.assert_called_once_with("%s: skipped %d malformed row(s)", path, skipped)
    else:
        warn.assert_not_called()


class TestParseCsvEquivalence:
    """parse_csv, block by block, equals the row-by-row oracle at any block size."""

    @pytest.mark.parametrize("block", [1, 7, ingest.PARSE_BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(CSV_ROW, max_size=40), quote_all=st.booleans())
    @example(rows=[PLAIN, ["x", "1.5", "3,4,5", "2", "BENIGN", "x"]], quote_all=False)  # commas in quotes
    def test_matches_the_row_by_row_oracle(self, block, rows, quote_all):
        assert_matches_the_oracle(block, rows, csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)

    @pytest.mark.parametrize("block", [1, 7, ingest.PARSE_BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(PLAIN_ROW, max_size=40))
    @example(rows=[PLAIN, PLAIN[:4], PLAIN])  # a row that ends after its last feature cell
    @example(rows=[PLAIN, [" "], PLAIN])  # a whitespace-only row
    @example(rows=[PLAIN, [], PLAIN])  # a blank line
    @example(rows=[PLAIN, *([PLAIN[0], cell, *PLAIN[2:]] for cell in ("1_0", "\u0661", "\xa01.5", "+1.5"))])
    @example(rows=[PLAIN, *([*PLAIN[:3], cell, *PLAIN[4:]] for cell in ("1_0", "\u0661", "\xa01.5", "+1.5"))])
    def test_quote_free_rows_match_the_row_by_row_oracle(self, block, rows):
        assert_matches_the_oracle(block, rows, csv.QUOTE_MINIMAL)


class TestParseMemory:
    def test_peak_above_the_output_does_not_grow_with_the_row_count(self, tmp_path):
        # the block bounds the row strings held at once; a parser that holds
        # every row (say, list(reader)) has an excess that grows with n
        def excess(n):
            path = tmp_path / f"{n}.csv"
            write_csv(path, np.random.default_rng(0).uniform(0, 1e3, (n, 5)), np.zeros(n, dtype=int))
            tracemalloc.start()
            try:
                ds = parse_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(ds) == n
            return peak - (ds.matrix.nbytes + ds.labels.nbytes + ds.rows.nbytes)

        small, large = excess(10_000), excess(40_000)
        assert large < 1.1 * small, (small, large)


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

    def test_zero_span_columns_map_to_zero_without_dividing(self):
        # RuntimeWarning is an error under this suite's settings
        s = fit_scaler(np.array([[5.0, 0.0, -1.0], [5.0, 4.0, -1.0]]))
        out = apply_scaler(np.array([[5.0, 1.0, -1.0], [9.0, 3.0, 7.0], [-3.0, 8.0, -9.0]]), s)
        assert out.tolist() == [[0.0, 0.25, 0.0], [0.0, 0.75, 0.0], [0.0, 1.0, 0.0]]

    def test_apply_peaks_at_one_output_matrix(self):
        # the scaled matrix is written in place: no (n, m) temporaries beside it
        rng = np.random.default_rng(4)
        raw = rng.uniform(-50, 50, size=(8000, 5))
        raw[:, 2] = 3.0
        s = fit_scaler(raw)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = apply_scaler(raw, s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, np.clip((raw - s.min) / np.where(s.max > s.min, s.max - s.min, np.inf), 0, 1))
        assert peak <= 1.5 * raw.nbytes, peak

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
        train, held = split_benign(benign_dataset(10), 0.8)
        assert train.n == 8 and held.n == 2

    def test_floor_arithmetic(self):
        train, held = split_benign(benign_dataset(2), 0.5)
        assert train.n == 1 and held.n == 1

    def test_the_first_rows_train_and_the_rest_are_held_out(self):
        ds = benign_dataset(30)
        train, held = split_benign(ds, 0.8)
        assert train.matrix.tobytes() == ds.matrix[:24].tobytes()
        assert held.matrix.tobytes() == ds.matrix[24:].tobytes()

    def test_union_is_the_input_multiset(self):
        ds = benign_dataset(17)
        train, held = split_benign(ds, 0.6)
        merged = np.concatenate([train.matrix, held.matrix])
        assert np.array_equal(
            np.sort(merged, axis=0), np.sort(ds.matrix, axis=0)
        )

    def test_parts_preserve_source_order(self):
        ds = Dataset(np.arange(20, dtype=float).reshape(-1, 1), np.zeros(20, dtype=int))
        train, held = split_benign(ds, 0.7)
        assert np.all(np.diff(train.matrix[:, 0]) > 0)
        assert np.all(np.diff(held.matrix[:, 0]) > 0)

    def test_rejects_non_benign_rows(self):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 0]))
        with pytest.raises(DataError):
            split_benign(ds, 0.5)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ParameterError):
            split_benign(benign_dataset(4), 1.0)


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
        ds = parse_csv(path, SPEC2)
        assert np.allclose(ds.matrix, matrix)
        assert np.array_equal(ds.labels, labels)
