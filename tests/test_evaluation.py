import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.errors import DataError, ParameterError, ShapeError
from flowsentry.evaluation import (
    ConfusionCounts,
    MetricsReport,
    auc_roc,
    confusion,
    emit_report,
    metrics,
    render_report,
    roc_points,
)


def brute_force_confusion(verdicts, labels):
    tp = tn = fp = fn = 0
    for v, y in zip(verdicts, labels):
        if v == 1 and y == 1:
            tp += 1
        elif v == 0 and y == 0:
            tn += 1
        elif v == 1 and y == 0:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_roc(scores, labels):
    """Per-threshold recount: one point per distinct score, highest first."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    points = []
    for theta in sorted(set(scores), reverse=True):
        fp = sum(1 for s, y in zip(scores, labels) if s > theta and y == 0)
        tp = sum(1 for s, y in zip(scores, labels) if s > theta and y == 1)
        points.append((theta, fp / n_neg, tp / n_pos))
    points.append((float("-inf"), 1.0, 1.0))
    return points


def roc_tuples(scores, labels):
    """roc_points' three arrays as (threshold, fpr, tpr) tuples of Python floats."""
    return list(zip(*(column.tolist() for column in roc_points(scores, labels))))


# scores drawn mostly from a few values, so that tie groups mix both classes
tied_samples = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), st.floats(0, 10)),
        st.integers(0, 1),
    ),
    min_size=2,
    max_size=80,
).filter(lambda pairs: len({y for _, y in pairs}) == 2)


class TestConfusion:
    def test_perfect_agreement(self):
        c = confusion([1, 0, 1, 0], [1, 0, 1, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 0, 0)

    def test_all_false_positives(self):
        c = confusion([1, 1], [0, 0])
        assert c.fp == 2 and c.tp == 0

    def test_random_pair_matches_brute_force(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 2, size=100)
        y = rng.integers(0, 2, size=100)
        c = confusion(v, y)
        assert (c.tp, c.tn, c.fp, c.fn) == brute_force_confusion(v, y)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            confusion([1, 2], [0, 0])

    def test_total_matches_sample_count(self):
        rng = np.random.default_rng(1)
        v = rng.integers(0, 2, size=57)
        y = rng.integers(0, 2, size=57)
        assert confusion(v, y).total == 57


class TestMetrics:
    def test_all_correct(self):
        r = metrics(ConfusionCounts(tp=5, tn=5, fp=0, fn=0))
        assert r.accuracy == r.precision == r.recall == r.f1 == 1.0
        assert r.fpr == 0.0
        assert r.degenerate == ()

    def test_dns_row_shape(self):
        # high-precision/mid-recall shape: recall .94, precision ~1, F1 ~.97
        r = metrics(ConfusionCounts(tp=94, tn=10, fp=0, fn=6))
        assert r.recall == pytest.approx(0.94)
        assert r.precision == 1.0
        assert r.f1 == pytest.approx(2 * 0.94 / 1.94)

    def test_zero_denominator_returns_zero_with_flag(self):
        r = metrics(ConfusionCounts(tp=0, tn=4, fp=0, fn=0))
        assert r.precision == 0.0
        assert "precision" in r.degenerate
        assert "recall" in r.degenerate  # tp+fn == 0 as well

    def test_empty_counts_raise(self):
        with pytest.raises(DataError):
            metrics(ConfusionCounts(tp=0, tn=0, fp=0, fn=0))

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)

    def test_f1_is_harmonic_mean_of_emitted_fields(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp, tn, fp, fn = rng.integers(1, 50, size=4)
            r = metrics(ConfusionCounts(int(tp), int(tn), int(fp), int(fn)))
            assert r.f1 == pytest.approx(
                2 * r.precision * r.recall / (r.precision + r.recall), abs=1e-12
            )

    def test_accuracy_is_exact_in_rational_arithmetic(self):
        c = ConfusionCounts(tp=3, tn=7, fp=2, fn=8)
        r = metrics(c)
        assert r.accuracy == float(Fraction(3 + 7, 20))


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_perfect_inversion(self):
        assert auc_roc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_all_scores_equal_gives_half(self):
        assert auc_roc([0.5] * 10, [0, 1] * 5) == 0.5

    def test_random_shuffled_pair_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=150)
        labels = rng.integers(0, 2, size=150)
        labels[0], labels[1] = 0, 1  # both classes present
        assert auc_roc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )

    def test_ties_counted_half(self):
        scores = [0.5, 0.5, 0.2, 0.8]
        labels = [1, 0, 0, 1]
        assert auc_roc(scores, labels) == pytest.approx(brute_force_auc(scores, labels))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc_roc([0.1, 0.2], [1, 1])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        scores = rng.normal(size=n)
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auc_roc(scores, labels)
        perm = rng.permutation(n)
        assert auc_roc(scores[perm], labels[perm]) == pytest.approx(base, abs=1e-12)


class TestRocPoints:
    def test_curve_endpoints(self):
        points = roc_tuples([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert points[0][1:] == (0.0, 0.0)  # nothing above the max score
        assert points[-1][1:] == (1.0, 1.0)

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        points = roc_tuples(scores, labels)
        fprs = [p[1] for p in points]
        tprs = [p[2] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)


class TestSortedRocAgainstOracles:
    @given(tied_samples)
    @settings(max_examples=150, deadline=None)
    def test_points_equal_the_per_threshold_recount(self, pairs):
        scores, labels = [s for s, _ in pairs], [y for _, y in pairs]
        assert roc_tuples(scores, labels) == brute_force_roc(scores, labels)

    @given(tied_samples)
    @settings(max_examples=150, deadline=None)
    def test_auc_equals_the_pairwise_count(self, pairs):
        scores, labels = [s for s, _ in pairs], [y for _, y in pairs]
        assert auc_roc(scores, labels) == brute_force_auc(scores, labels)

    def test_all_ties_give_one_point_and_half_auc(self):
        assert roc_tuples([0.5] * 4, [0, 1, 1, 0]) == [(0.5, 0.0, 0.0), (float("-inf"), 1.0, 1.0)]
        assert auc_roc([0.5] * 4, [0, 1, 1, 0]) == 0.5

    def test_one_class_and_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="ROC is undefined"):
            roc_points([0.1, 0.2], [0, 0])
        with pytest.raises(DataError, match="AUC is undefined"):
            auc_roc([0.1, 0.2], [1, 1])
        with pytest.raises(ShapeError):
            roc_points([0.1, 0.2, 0.3], [0, 1])


def sample_report():
    r = metrics(ConfusionCounts(tp=9430, tn=9999, fp=1, fn=570))
    r.auc = 0.9714
    r.metadata = {"config": {"window": 10, "seed": 1}}
    return r


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = sample_report()
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == report.to_dict()
        assert loaded["counts"] == {"tp": 9430, "tn": 9999, "fp": 1, "fn": 570}

    def test_csv_header_fixed_and_stable(self):
        a = render_report(sample_report(), "csv").splitlines()[0]
        b = render_report(metrics(ConfusionCounts(1, 1, 1, 1)), "csv").splitlines()[0]
        assert a == b == ("accuracy,precision,recall,fpr,f1,auc,tp,tn,fp,fn,degenerate,"
                          "window,batch_size,learning_rate,seed,epoch_time_mean,epoch_time_std")

    def test_markdown_renders_table_vi_style_row(self):
        counts = ConfusionCounts(tp=9430, tn=9999, fp=1, fn=570)
        report = MetricsReport(
            counts=counts,
            accuracy=0.9608,
            precision=0.9999,
            recall=0.9430,
            fpr=0.0001,
            f1=0.9706,
            metadata={"config": {"window": 10}},
        )
        text = render_report(report, "markdown")
        for token in ("| 10 |", "96.08", "99.99", "94.30", "97.06"):
            assert token in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError):
            render_report(sample_report(), "yaml")

    def test_json_is_deterministic(self):
        assert render_report(sample_report(), "json") == render_report(
            sample_report(), "json"
        )
