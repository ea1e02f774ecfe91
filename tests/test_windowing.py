import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.errors import InsufficientDataError, ParameterError
from flowsentry.windowing import WindowConfig, make_windows


def matrix(n, m=2):
    return np.arange(n * m, dtype=float).reshape(n, m)


def windows_containing(sample_index, n, cfg):
    """Oracle: all (window_index, offset) pairs whose window covers the sample."""
    t = cfg.timesteps
    if not 0 <= sample_index < n:
        raise IndexError(f"sample index {sample_index} out of range [0,{n})")
    lo = max(0, sample_index - t + 1)
    hi = min(sample_index, n - t)
    return [(k, sample_index - k) for k in range(lo, hi + 1)]


def coverage_counts(n, cfg):
    """Oracle: windows covering each sample, min(t, i+1, n-i), capped at the
    window count n-t+1 (the cap only binds when n < 2t-1)."""
    t = cfg.timesteps
    i = np.arange(n)
    counts = np.minimum(np.minimum(np.full(n, t), i + 1), n - i)
    return np.minimum(counts, n - t + 1)


def slot_samples(n, cfg):
    """The source row each (window, offset) slot of make_windows holds."""
    return make_windows(np.arange(n, dtype=float)[:, None], cfg)[:, :, 0].astype(int)


class TestWindowConfig:
    def test_defaults(self):
        assert WindowConfig().timesteps == 10

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            WindowConfig(timesteps=0)


class TestMakeWindows:
    def test_five_rows_window_three(self):
        windows = make_windows(matrix(5), WindowConfig(3))
        assert windows.shape == (3, 3, 2)
        assert np.array_equal(windows[0], matrix(5)[0:3])
        assert np.array_equal(windows[2], matrix(5)[2:5])
        assert slot_samples(5, WindowConfig(3))[:, 0].tolist() == [0, 1, 2]

    def test_n_equals_t_gives_one_window(self):
        assert len(make_windows(matrix(4), WindowConfig(4))) == 1

    def test_hundred_rows_window_ten(self):
        assert len(make_windows(matrix(100), WindowConfig(10))) == 91

    def test_too_few_rows_reports_both_sizes(self):
        with pytest.raises(InsufficientDataError, match="10.*got 4|4.*10"):
            make_windows(matrix(4), WindowConfig(10))

    def test_windows_are_a_read_only_view_of_the_matrix(self):
        x = matrix(7, 3)
        windows = make_windows(x, WindowConfig(4))
        assert np.shares_memory(windows, x)
        assert not windows.flags.writeable
        with pytest.raises(ValueError):
            windows[0, 0, 0] = 1.0

    def test_windows_are_plain_copies_of_rows(self):
        x = matrix(7, 3)
        windows = make_windows(x, WindowConfig(4))
        for k in range(len(windows)):
            for j in range(4):
                assert np.array_equal(windows[k, j], x[k + j])


class TestWindowsContaining:
    """The oracles the aggregation tests rely on, checked against make_windows."""

    def test_interior_sample_appears_in_all_three(self):
        assert windows_containing(2, 5, WindowConfig(3)) == [(0, 2), (1, 1), (2, 0)]

    def test_first_sample_only_in_first_window(self):
        assert windows_containing(0, 5, WindowConfig(3)) == [(0, 0)]

    def test_last_sample_only_in_last_window(self):
        assert windows_containing(4, 5, WindowConfig(3)) == [(2, 2)]

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            windows_containing(5, 5, WindowConfig(3))
        with pytest.raises(IndexError):
            windows_containing(-1, 5, WindowConfig(3))


@st.composite
def n_and_t(draw):
    t = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=t, max_value=60))
    return n, t


class TestInvariants:
    @given(n_and_t())
    @settings(max_examples=60, deadline=None)
    def test_coverage_is_a_bijection_onto_all_slots(self, nt):
        n, t = nt
        cfg = WindowConfig(t)
        slots = slot_samples(n, cfg)
        seen = set()
        for i in range(n):
            for pair in windows_containing(i, n, cfg):
                assert pair not in seen
                assert slots[pair] == i
                seen.add(pair)
        w = n - t + 1
        assert seen == {(k, o) for k in range(w) for o in range(t)}

    @given(n_and_t())
    @settings(max_examples=60, deadline=None)
    def test_counting_identity(self, nt):
        n, t = nt
        cfg = WindowConfig(t)
        total = sum(len(windows_containing(i, n, cfg)) for i in range(n))
        assert total == (n - t + 1) * t == slot_samples(n, cfg).size
        assert coverage_counts(n, cfg).sum() == total

    @given(n_and_t())
    @settings(max_examples=60, deadline=None)
    def test_coverage_formula(self, nt):
        # min(t, i+1, n-i), additionally capped by the window count when
        # n < 2t-1 and no fully-interior samples exist
        n, t = nt
        cfg = WindowConfig(t)
        counts = coverage_counts(n, cfg)
        assert np.array_equal(counts, np.bincount(slot_samples(n, cfg).ravel(), minlength=n))
        for i in range(n):
            assert counts[i] == min(t, i + 1, n - i, n - t + 1)
            assert counts[i] == len(windows_containing(i, n, cfg))

    @given(n_and_t())
    @settings(max_examples=40, deadline=None)
    def test_stitching_reconstructs_the_source(self, nt):
        n, t = nt
        rng = np.random.default_rng(n * 31 + t)
        x = rng.normal(size=(n, 3))
        windows = make_windows(x, WindowConfig(t))
        rows = [windows[k, 0] for k in range(len(windows))]
        rows.extend(windows[-1, 1:])
        assert np.array_equal(np.stack(rows), x)
