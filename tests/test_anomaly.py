import collections
import csv
import dataclasses
import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import anomaly, autoencoder, cli, ingest
from flowsentry.anomaly import (
    ThresholdModel,
    calibrate,
    classify,
    load_threshold,
    per_sample_errors,
    save_threshold,
    score_matrix,
)
from flowsentry.errors import (
    DataError,
    InsufficientDataError,
    ModelFormatError,
    NumericError,
    ParameterError,
    ShapeError,
)
from flowsentry.ingest import FeatureSpec, Scaler, fit_scaler, write_csv
from flowsentry.windowing import WindowConfig, make_windows
from stepwise import add_errors, reconstruct


def brute_force_scores(x, recon, t):
    """Independent double-loop aggregation over (window, offset, feature)."""
    n, m = x.shape
    w = n - t + 1
    scores = np.empty(n)
    for i in range(n):
        per_feature = []
        for j in range(m):
            errs = [
                abs(recon[k][i - k][j] - x[i][j])
                for k in range(w)
                if k <= i <= k + t - 1
            ]
            per_feature.append(sum(errs) / len(errs))
        scores[i] = sum(per_feature) / m
    return scores


def scores_from_sums(sums, t):
    """Per-sample scores from per_sample_errors' sums over a whole window batch:
    each divided by the count of windows holding its sample, counted by a
    double loop, then averaged over the features."""
    n = len(sums)
    counts = [sum(k <= i < k + t for k in range(n - t + 1)) for i in range(n)]
    return (sums / np.array(counts, dtype=float)[:, None]).mean(axis=1)


def whole_batch_scores(x, recon):
    sums = np.zeros(x.shape)
    add_errors(x, recon, sums)
    return scores_from_sums(sums, recon.shape[1])


class TestPerSampleErrors:
    def test_perfect_reconstruction_scores_zero(self):
        x = np.random.default_rng(0).uniform(size=(12, 3))
        windows = make_windows(x, WindowConfig(4))
        assert np.allclose(whole_batch_scores(x, windows.copy()), 0.0)

    def test_interior_sample_with_three_windows_two_features(self):
        # n=5, t=3, m=2: sample 2 sits in all three windows; its score is the
        # mean over windows per feature, then the mean of the two features
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(5, 2))
        recon = rng.uniform(size=(3, 3, 2))
        scores = whole_batch_scores(x, recon)

        per_feature = [
            np.mean([abs(recon[k][2 - k][j] - x[2][j]) for k in (0, 1, 2)])
            for j in (0, 1)
        ]
        assert scores[2] == pytest.approx(np.mean(per_feature), abs=1e-15)
        # sample 0 sits in window 0 only, sample 4 in window 2 only
        assert scores[0] == pytest.approx(np.mean(np.abs(recon[0, 0] - x[0])), abs=1e-15)
        assert scores[4] == pytest.approx(np.mean(np.abs(recon[2, 2] - x[4])), abs=1e-15)

    def test_matches_brute_force_on_random_instance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(20, 4))
        recon = rng.uniform(size=(16, 5, 4))
        scores = whole_batch_scores(x, recon)
        assert np.max(np.abs(scores - brute_force_scores(x, recon, 5))) < 1e-12

    def test_shape_mismatch(self):
        x = np.zeros((10, 2))
        sums = np.zeros((10, 2))
        with pytest.raises(ShapeError):  # rows 4..10 of a 10-row matrix
            per_sample_errors(x, np.zeros((7, 2)), 4, sums)
        with pytest.raises(ShapeError):  # sums of another matrix
            per_sample_errors(np.zeros((11, 2)), np.zeros((8, 2)), 0, sums)
        with pytest.raises(ShapeError):
            per_sample_errors(x, np.zeros((8, 1)), 0, sums)
        with pytest.raises(ShapeError):
            per_sample_errors(x, np.zeros((8, 3, 2)), 0, sums)
        with pytest.raises(ShapeError):
            per_sample_errors(x, np.zeros((8, 2)), -1, sums)

    def test_a_step_adds_its_errors_over_its_outputs(self):
        # one decoder step's (c, m) outputs, c rows from row lo; the outputs are written over
        rng = np.random.default_rng(4)
        x, y, sums = rng.uniform(size=(9, 2)), rng.uniform(size=(5, 2)), rng.uniform(size=(9, 2))
        errors = np.abs(y - x[3:8])
        expected = sums.copy()
        expected[3:8] += errors
        per_sample_errors(x, y, 3, sums)
        assert sums.tobytes() == expected.tobytes() and y.tobytes() == errors.tobytes()

    def test_scores_are_finite_and_non_negative(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 3))
        scores = whole_batch_scores(x, rng.normal(size=(24, 7, 3)))
        assert np.all(scores >= 0)
        assert np.all(np.isfinite(scores))


class TestCalibrate:
    def test_maximum_of_scores(self):
        assert calibrate(np.array([0.1, 0.3, 0.2])) == 0.3

    def test_all_zero_scores(self):
        assert calibrate(np.zeros(5)) == 0.0

    def test_empty_scores_raise(self):
        with pytest.raises(DataError):
            calibrate(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_maximum_is_a_numeric_error(self, bad):
        with pytest.raises(NumericError):
            calibrate(np.array([0.1, bad, 0.2]))


class TestClassify:
    def test_tie_with_threshold_is_normal(self):
        assert classify(np.array([0.3]), 0.3).tolist() == [0]

    @pytest.mark.parametrize("threshold", [np.nan, -1e-12])
    def test_nan_or_negative_threshold_is_rejected(self, threshold):
        with pytest.raises(ParameterError):
            classify(np.array([0.3]), threshold)

    def test_zero_threshold_flags_any_positive_score(self):
        assert classify(np.array([0.0, 1e-12, 0.5]), 0.0).tolist() == [0, 1, 1]

    def test_calibration_set_has_zero_false_positives(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=100)
        assert classify(scores, calibrate(scores)).sum() == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_threshold_consequence_property(self, values):
        scores = np.array(values)
        eta = calibrate(scores)
        assert classify(scores, eta).sum() == 0

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=100),
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_threshold_never_flags_more(self, values, a, b):
        scores = np.array(values)
        lo, hi = min(a, b), max(a, b)
        assert classify(scores, hi).sum() <= classify(scores, lo).sum()


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A quickly trained model plus its calibration/attack data on disk."""
    from flowsentry import synth
    from flowsentry.ingest import apply_scaler

    tmp = tmp_path_factory.mktemp("anomaly")
    spec = FeatureSpec(names=("A", "B"), label_column="Label")
    config = synth.SynthConfig(
        n_benign=400,
        n_attack=80,
        features=2,
        sigma=0.5,
        amplitude=0.5,
        period=300.0,
        shift_sigmas=5.0,
        seed=10,
    )
    benign, attack = synth.gen(config)
    train_csv = tmp / "train.csv"
    attack_csv = tmp / "attack.csv"
    write_csv(train_csv, benign.matrix, benign.labels, spec)
    write_csv(attack_csv, attack.matrix, attack.labels, spec)

    scaler = fit_scaler(benign.matrix, spec.names)
    scaled = apply_scaler(benign.matrix, scaler)
    model_config = autoencoder.ModelConfig(
        timesteps=5, features=2, units=8, epochs=40, batch_size=16, seed=10
    )
    weights = autoencoder.build(model_config)
    weights, _ = autoencoder.train(weights, make_windows(scaled, WindowConfig(5)))
    scores = score_matrix(scaled, weights, WindowConfig(5))
    model_path = tmp / "model.json"
    autoencoder.save(weights, model_path)
    tm = ThresholdModel(
        threshold=calibrate(scores),
        scaler=scaler,
        model_path=str(model_path),
        model_sha256=hashlib.sha256(model_path.read_bytes()).hexdigest(),
    )
    return tmp, spec, train_csv, attack_csv, tm, weights


def stream(csv_path, scaler, weights, label_col="Label"):
    """The detect stage's streamed scores, labels and source rows of a CSV, joined."""
    parts = list(cli._stream_scores(csv_path, scaler, label_col, weights))
    return [np.concatenate([part[i] for part in parts]) for i in (0, 1, 2)]


def detect(csv_path, tm, weights, spec):
    """What the detect stage computes for a CSV: source rows, scores, verdicts."""
    scores, _, rows = stream(csv_path, tm.scaler, weights, spec.label_column)
    return rows, scores, classify(scores, tm.threshold)


class TestDetect:
    def test_training_file_scores_zero_false_positives(self, small_pipeline):
        _, spec, train_csv, _, tm, weights = small_pipeline
        _, _, verdicts = detect(train_csv, tm, weights, spec)
        assert verdicts.sum() == 0
        assert verdicts.size == 400

    def test_detect_is_deterministic(self, small_pipeline):
        _, spec, train_csv, _, tm, weights = small_pipeline
        _, scores_a, verdicts_a = detect(train_csv, tm, weights, spec)
        _, scores_b, verdicts_b = detect(train_csv, tm, weights, spec)
        assert np.array_equal(verdicts_a, verdicts_b)
        assert np.array_equal(scores_a, scores_b)

    def test_shifted_rows_are_flagged(self, small_pipeline):
        _, spec, _, attack_csv, tm, weights = small_pipeline
        _, _, verdicts = detect(attack_csv, tm, weights, spec)
        assert verdicts.mean() > 0.95

    def test_too_few_samples(self, small_pipeline, tmp_path):
        _, spec, _, _, tm, weights = small_pipeline
        short_csv = tmp_path / "short.csv"
        write_csv(short_csv, np.ones((3, 2)), np.zeros(3, dtype=int), spec)
        with pytest.raises(InsufficientDataError):
            detect(short_csv, tm, weights, spec)

    def test_row_indices_skip_malformed_rows(self, small_pipeline, tmp_path):
        _, spec, train_csv, _, tm, weights = small_pipeline
        lines = train_csv.read_text().splitlines()
        # corrupt data row 2 (third after the header)
        lines[3] = lines[3].replace(lines[3].split(",")[2], "not-a-number", 1)
        broken_csv = tmp_path / "broken.csv"
        broken_csv.write_text("\n".join(lines) + "\n")
        rows, _, _ = detect(broken_csv, tm, weights, spec)
        assert 2 not in rows
        assert rows[0] == 0 and rows[2] == 3


@pytest.fixture(scope="module")
def window_by_window(small_pipeline):
    """Scores of 300 rows (296 windows at t=5) from one forward pass per window,
    aggregated by the double-loop oracle."""
    weights = small_pipeline[-1]
    x = np.random.default_rng(12).uniform(size=(300, 2))
    windows = make_windows(x, WindowConfig(5))
    recon = np.stack([reconstruct(weights, windows[k : k + 1])[0] for k in range(len(windows))])
    return x, weights, brute_force_scores(x, recon, 5)


class TestChunkedScoring:
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_chunks_match_the_window_by_window_oracle(self, window_by_window, chunk, monkeypatch):
        # 296 windows: chunks of 7 and of 256 leave a partial last chunk
        x, weights, oracle = window_by_window
        monkeypatch.setattr(anomaly, "SCORE_CHUNK", chunk)
        scores = score_matrix(x, weights, WindowConfig(5))
        assert np.max(np.abs(scores - oracle) / oracle) < 1e-12
        ranked = np.sort(oracle)
        threshold = (ranked[149] + ranked[150]) / 2  # between two scores, so no tie decides
        assert np.array_equal(classify(scores, threshold), classify(oracle, threshold))
        assert 0 < classify(scores, threshold).sum() < len(x)

    def test_partial_chunks_add_up_to_the_whole_batch(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(23, 3))
        recon = rng.uniform(size=(19, 5, 3))
        sums = np.zeros((23, 3))
        for lo, hi in ((0, 4), (4, 15), (15, 19)):
            add_errors(x, recon[lo:hi], sums, lo)
        assert np.max(np.abs(scores_from_sums(sums, 5) - brute_force_scores(x, recon, 5))) < 1e-12
        with pytest.raises(ShapeError):  # windows 16..19 of a 19-window matrix: step 4 ends past row 22
            add_errors(x, recon[:4], np.zeros((23, 3)), 16)

    def test_peak_memory_does_not_grow_with_rows(self):
        # t=100: the whole-batch scorer peaked at about 50 kB per window. The returned
        # scores, 8 bytes a row, must grow with the rows; the rest of the peak may not
        weights = autoencoder.build(autoencoder.ModelConfig(timesteps=100, features=5, units=16))
        rng = np.random.default_rng(14)
        peaks = []
        for n in (2000, 8000):
            x = rng.uniform(size=(n, 5))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                scores = score_matrix(x, weights, WindowConfig(100))
                peaks.append(tracemalloc.get_traced_memory()[1] - base - scores.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.025 * peaks[0], peaks

    def test_peak_memory_does_not_grow_with_the_window_length(self):
        # each decoder step's errors go into the sums as the step is made, so
        # no (t, SCORE_CHUNK, m) reconstruction is held: only the encoder's
        # (4u, SCORE_CHUNK + t - 1) input projection still grows with t
        x = np.random.default_rng(15).uniform(size=(2000, 5))
        peaks = []
        for t in (10, 100):
            weights = autoencoder.build(autoencoder.ModelConfig(timesteps=t, features=5, units=16))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                score_matrix(x, weights, WindowConfig(t))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("t", [10, 100])
    def test_peak_memory_holds_no_per_step_gate_temporary(self, t):
        # a cell step writes its recurrent product into its own gate slot and each
        # state over the one it replaces, so a chunk holds one layer's input
        # projection (4u, c + t - 1 at most) and gate slot (4u, c), up to three (u, c)
        # state arrays, numpy's ufunc buffer (the encoder adds a strided slice of its
        # projection) and the stream's scores, rows and error sums. The margin is
        # less than the (4u, c) temporary a step used to take.
        n, m, u, c = 2000, 5, 16, anomaly.SCORE_CHUNK
        weights = autoencoder.build(autoencoder.ModelConfig(timesteps=t, features=m, units=u))
        x = np.random.default_rng(16).uniform(size=(n, m))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            score_matrix(x, weights, WindowConfig(t))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kernel = 8 * (4 * u * (c + t - 1) + 4 * u * c + 3 * u * c)
        stream = 8 * (np.getbufsize() + n + 4 * (2 * c + t) * m)
        assert peak <= kernel + stream, (peak, kernel, stream)


def per_step_reference(x, weights, t):
    """Scores summed one window at a time, in the order score_matrix documents:
    chunks of SCORE_CHUNK windows in ascending order, and inside a chunk the
    latest window first, each adding its steps' errors. A chunk's outputs are
    taken as its forward pass hands them over, step by step."""
    windows = make_windows(x, WindowConfig(t))
    sums = np.zeros(x.shape)
    for lo in range(0, len(windows), anomaly.SCORE_CHUNK):
        chunk = windows[lo : lo + anomaly.SCORE_CHUNK]
        recon = reconstruct(weights, chunk)
        for k in reversed(range(len(chunk))):
            for o in range(t):
                sums[lo + k + o] += np.abs(recon[k, o] - x[lo + k + o])
    return scores_from_sums(sums, t)


def streamed_scores(x, weights, window, block):
    """score_matrix over `block`-row slices of x with one Carry."""
    carry, parts = anomaly.Carry(), []
    for lo in range(0, len(x), block):
        parts.append(score_matrix(x[lo : lo + block], weights, window, carry, lo + block >= len(x)))
    return np.concatenate(parts)


class TestFusedScoring:
    """Scoring adds each decoder step's errors into the sums as it is made."""

    @pytest.mark.parametrize("t", [1, 2, 7, 100])
    @pytest.mark.parametrize("chunk", [7, 256])
    def test_scores_equal_the_window_by_window_sums_bit_for_bit(self, t, chunk, monkeypatch):
        # 2 * chunk + 1 windows: the last chunk holds one window
        monkeypatch.setattr(anomaly, "SCORE_CHUNK", chunk)
        weights = autoencoder.build(autoencoder.ModelConfig(timesteps=t, features=3, units=16, seed=t))
        x = np.random.default_rng(t).uniform(size=(2 * chunk + t, 3))
        scores = score_matrix(x, weights, WindowConfig(t))
        assert scores.tobytes() == per_step_reference(x, weights, t).tobytes()

    @pytest.mark.parametrize("t", [1, 2, 7, 100])
    def test_scores_equal_the_double_loop_oracle(self, t):
        weights = autoencoder.build(autoencoder.ModelConfig(timesteps=t, features=2, units=16, seed=t))
        x = np.random.default_rng(20 + t).uniform(size=(260 + t, 2))
        windows = make_windows(x, WindowConfig(t))
        recon = np.stack([reconstruct(weights, windows[k : k + 1])[0] for k in range(len(windows))])
        oracle = brute_force_scores(x, recon, t)
        scores = score_matrix(x, weights, WindowConfig(t))
        assert np.max(np.abs(scores - oracle) / oracle) < 1e-12

    @pytest.mark.parametrize("t", [1, 2, 7, 100])
    @pytest.mark.parametrize("block", [1, 7, 512])
    def test_streamed_blocks_equal_the_whole_matrix_bit_for_bit(self, t, block):
        # SCORE_CHUNK + 1 windows: the last chunk holds one window
        weights = autoencoder.build(autoencoder.ModelConfig(timesteps=t, features=3, units=16, seed=t))
        x = np.random.default_rng(30 + t).uniform(size=(anomaly.SCORE_CHUNK + t, 3))
        window = WindowConfig(t)
        assert streamed_scores(x, weights, window, block).tobytes() == score_matrix(x, weights, window).tobytes()


JUNK_ROW = st.sampled_from([[], ["1"], ["inf", "0.5", "BENIGN"], ["0.5", "nan", "x"], ["a", "1", "y"]])


class TestStreamedScoring:
    """Scores streamed from a CSV block by block equal the whole matrix's."""

    T = 3

    @pytest.fixture(scope="class")
    def weights(self):
        return autoencoder.build(autoencoder.ModelConfig(timesteps=self.T, features=2, units=4, seed=3))

    @pytest.mark.parametrize("block", [1, 7, 512])
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_streamed_scores_equal_the_whole_matrix_and_the_oracle(self, weights, block, chunk, data):
        t = self.T
        n = data.draw(st.sampled_from([t - 1, t, 2 * t - 1, chunk + t - 1, chunk + t]), "kept rows")
        values = data.draw(st.lists(st.floats(0, 10), min_size=2 * n, max_size=2 * n), "values")
        rows = [[f"{a!r}", f"{b!r}", "BENIGN" if i % 3 else "attack"]
                for i, (a, b) in enumerate(zip(values[::2], values[1::2]))]
        for at, junk in data.draw(st.lists(st.tuples(st.integers(0, n), JUNK_ROW), max_size=6), "junk"):
            rows.insert(at, junk)
        scaler = Scaler(np.zeros(2), np.full(2, 10.0), ("A", "B"))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "flows.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([["A", "B", "Label"], *rows])
            mp.setattr(ingest, "PARSE_BLOCK", block)
            mp.setattr(anomaly, "SCORE_CHUNK", chunk)
            ds = ingest.parse_csv(path, FeatureSpec(("A", "B")))
            assert len(ds) == n
            x = ingest.apply_scaler(ds.matrix, scaler)
            if n < t:
                with pytest.raises(InsufficientDataError):
                    stream(path, scaler, weights)
                with pytest.raises(InsufficientDataError):
                    score_matrix(x, weights, WindowConfig(t))
                return
            scores, labels, source_rows = stream(path, scaler, weights)
            whole = score_matrix(x, weights, WindowConfig(t))
        assert scores.tobytes() == whole.tobytes()
        assert labels.tolist() == ds.labels.tolist() and source_rows.tolist() == ds.rows.tolist()
        windows = make_windows(x, WindowConfig(t))
        recon = [reconstruct(weights, windows[k : k + 1])[0] for k in range(len(windows))]
        oracle = brute_force_scores(x, np.stack(recon), t)
        assert np.all(np.abs(scores - oracle) <= 1e-12 * oracle)

    @pytest.mark.parametrize("t", [10, 100])
    def test_stream_peak_holds_one_block(self, t, tmp_path):
        # while a block is scored, the stream holds that block only: not the
        # next one parsed ahead, nor a carry that is a view of the previous
        # block's whole arrays, nor (for a consumer that drops it) the last yield
        n, m, u, b, c = 3000, 5, 16, ingest.PARSE_BLOCK, anomaly.SCORE_CHUNK
        path = tmp_path / "flows.csv"
        write_csv(path, np.random.default_rng(17).uniform(size=(n, m)), np.zeros(n, dtype=int))
        scaler = Scaler(np.zeros(m), np.ones(m), ingest.DEFAULT_FEATURES)
        weights = autoencoder.build(autoencoder.ModelConfig(timesteps=t, features=m, units=u))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            collections.deque(cli._stream_scores(path, scaler, "Label", weights), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the kernel term of test_peak_memory_holds_no_per_step_gate_temporary and
        # numpy's ufunc buffer, then one block's arrays: the parsed block and its
        # scaled copy, the pending labels and row indices, the rows and error sums
        # from the carry on, and the two (c, m) temporaries of a step's errors
        kernel = 8 * (4 * u * (c + t - 1) + 4 * u * c + 3 * u * c + np.getbufsize())
        block = 8 * (b * (m + 2) + b * m + 2 * (b + c + t) * (m + 1) + 2 * c * m)
        assert peak <= kernel + block, (peak, kernel, block)


class TestThresholdPersistence:
    def tm(self):
        scaler = Scaler(np.array([0.0, 1.0]), np.array([2.0, 3.0]), ("A", "B"))
        return ThresholdModel(
            threshold=0.125,
            scaler=scaler,
            model_path="model.json",
            model_sha256="cd" * 32,
            provenance={"config": {"label_col": "Label"}},
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "th.json"
        save_threshold(self.tm(), path)
        loaded = load_threshold(path)
        assert loaded.threshold == 0.125
        assert loaded.scaler.feature_names == ("A", "B")
        assert loaded.model_path == "model.json"
        assert loaded.model_sha256 == "cd" * 32
        assert loaded.provenance["config"] == {"label_col": "Label"}

    def test_created_stamp_honors_source_date_epoch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_threshold(self.tm(), a)
        save_threshold(self.tm(), b)
        assert a.read_bytes() == b.read_bytes()
        assert "2023-11-14" in json.loads(a.read_text())["provenance"]["created"]

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_threshold_model_refuses_a_threshold_that_is_not_finite_and_non_negative(self, threshold):
        with pytest.raises(ParameterError):
            dataclasses.replace(self.tm(), threshold=threshold)

    @pytest.mark.parametrize("key, value", [("threshold", float("nan")), ("threshold", -1.0)])
    def test_an_out_of_range_value_in_the_file_is_a_format_error(self, tmp_path, key, value):
        path = tmp_path / "th.json"
        save_threshold(self.tm(), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_threshold(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "th.json"
        save_threshold(self.tm(), path)
        doc = json.loads(path.read_text())
        doc["version"] = 42
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_threshold(path)
