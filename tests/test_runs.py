"""Tests for threshold computation and run extraction."""

from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest

from runclust import runs
from runclust import MarkedPointProcess, SampledSeries, ThresholdSpec, \
    compute_threshold, extract_runs, filter_by_min_length, read_events, \
    write_events
from test_surrogates import linear_quantile

T0 = datetime(2010, 1, 1, tzinfo=timezone.utc)


def make_series(values, missing=None, dt=600.0, station_id="S1"):
    values = np.asarray(values, dtype=float)
    if missing is None:
        missing = np.zeros(values.size, dtype=bool)
    return SampledSeries(station_id=station_id, t0=T0, dt=dt,
                         values=values, missing=np.asarray(missing, dtype=bool))


def naive_runs(values, missing, threshold):
    """Reference scanner: one sample at a time, no vectorization."""
    events = []
    start = None
    length = 0
    for k in range(len(values)):
        above = (not missing[k]) and values[k] > threshold
        if above:
            if start is None:
                start = k
                length = 1
            else:
                length += 1
        elif start is not None:
            events.append((start, length))
            start = None
            length = 0
    if start is not None:
        events.append((start, length))
    return events


def test_linear_quantile_hand_values():
    values = np.arange(1.0, 101.0)
    assert abs(linear_quantile(values, 0.95) - 95.05) < 1e-12
    assert abs(linear_quantile(values, 0.975) - 97.525) < 1e-12
    assert abs(linear_quantile(values, 0.99) - 99.01) < 1e-12
    assert linear_quantile(np.full(10, 3.0), 0.95) == 3.0
    with pytest.raises(ValueError, match="empty"):
        linear_quantile(np.empty(0), 0.5)
    with pytest.raises(ValueError, match="quantile level"):
        linear_quantile(values, 1.5)


def test_compute_threshold():
    series = make_series(np.arange(1.0, 101.0))
    spec = compute_threshold(series, 0.95)
    assert abs(spec.value - 95.05) < 1e-12
    assert spec.percentile == 0.95
    assert abs(compute_threshold(series, 0.99).value - 99.01) < 1e-12

    flat = make_series(np.full(150, 3.0))
    assert compute_threshold(flat, 0.975).value == 3.0


def test_compute_threshold_ignores_missing():
    values = np.concatenate([np.arange(1.0, 101.0), np.full(30, np.nan)])
    missing = np.concatenate([np.zeros(100, dtype=bool), np.ones(30, dtype=bool)])
    series = make_series(values, missing)
    assert abs(compute_threshold(series, 0.95).value - 95.05) < 1e-12


def test_compute_threshold_errors():
    short = make_series(np.arange(1.0, 51.0))
    with pytest.raises(ValueError, match="non-missing samples"):
        compute_threshold(short, 0.95)
    assert compute_threshold(short, 0.95, min_count=50).value > 0

    series = make_series(np.arange(1.0, 101.0))
    with pytest.raises(ValueError, match="percentile"):
        compute_threshold(series, 1.0)
    with pytest.raises(ValueError, match="percentile"):
        compute_threshold(series, 0.0)


def test_thresholds_one_call_matches_each_level():
    # One quantile call serves every level with the bits linear_quantile
    # gives that level alone, in the order the levels are given.
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(100, 5000))
        values = np.exp(rng.normal(size=n)).round(int(rng.integers(0, 4)))
        missing = rng.random(n) < 0.1
        series = make_series(values, missing)
        levels = rng.random(int(rng.integers(1, 6))) * 0.98 + 0.01
        if trial == 0:
            levels = np.array([0.95, 0.975, 0.99])
        specs = runs._thresholds(series, levels.tolist(), min_count=10)
        sample = values[~missing]
        assert [s.percentile for s in specs] == levels.tolist()
        for spec, p in zip(specs, levels):
            assert spec.value == linear_quantile(sample, p)
            assert spec == compute_threshold(series, p, min_count=10)

    short = make_series(np.arange(1.0, 51.0))
    with pytest.raises(ValueError) as info:
        runs._thresholds(short, [0.95, 0.99])
    assert str(info.value) == "need at least 100 non-missing samples, have 50"
    with pytest.raises(ValueError, match="percentile"):
        runs._thresholds(short, [0.5, float("nan")], min_count=10)


def test_extract_runs_hand_scan():
    series = make_series([1, 5, 6, 2, 7, 1])
    pp = extract_runs(series, ThresholdSpec(value=4.0))
    assert pp.times.tolist() == [600.0, 2400.0]
    assert pp.lengths.tolist() == [2, 1]
    assert pp.window_start == 0.0
    assert pp.window_end == 6 * 600.0
    assert pp.dt == 600.0
    assert pp.station_id == "S1"


def test_extract_runs_all_below():
    series = make_series([1.0, 2.0, 3.0])
    pp = extract_runs(series, ThresholdSpec(value=4.0))
    assert pp.n_events == 0


def test_extract_runs_gap_splits_run():
    series = make_series([5.0, 5.0, np.nan, 5.0],
                         missing=[False, False, True, False])
    pp = extract_runs(series, ThresholdSpec(value=4.0))
    assert pp.times.tolist() == [0.0, 1800.0]
    assert pp.lengths.tolist() == [2, 1]
    assert pp.gap_fraction == 0.25


def test_extract_runs_strictly_above():
    series = make_series([4.0, 4.0, 5.0])
    pp = extract_runs(series, ThresholdSpec(value=4.0))
    assert pp.times.tolist() == [1200.0]
    assert pp.lengths.tolist() == [1]


def test_extract_runs_truncated_by_series_end():
    series = make_series([1.0, 5.0, 5.0])
    pp = extract_runs(series, ThresholdSpec(value=4.0))
    assert pp.times.tolist() == [600.0]
    assert pp.lengths.tolist() == [2]


def test_filter_by_min_length():
    pp = MarkedPointProcess(times=[0.0, 1800.0, 6000.0, 9000.0],
                            lengths=[1, 5, 2, 30],
                            window_start=0.0, window_end=36000.0, dt=600.0)
    kept = filter_by_min_length(pp, 5)
    assert kept.lengths.tolist() == [5, 30]
    assert kept.times.tolist() == [1800.0, 9000.0]
    assert kept.min_run_length == 5
    assert kept.window_end == pp.window_end

    same = filter_by_min_length(pp, 1)
    assert np.array_equal(same.times, pp.times)
    assert np.array_equal(same.lengths, pp.lengths)

    empty = filter_by_min_length(pp, 31)
    assert empty.n_events == 0

    with pytest.raises(ValueError, match="min_length"):
        filter_by_min_length(pp, 0)


def test_point_process_invariants():
    with pytest.raises(ValueError, match="strictly increasing"):
        MarkedPointProcess(times=[0.0, 0.0], lengths=[1, 1],
                           window_start=0.0, window_end=100.0, dt=0.0)
    with pytest.raises(ValueError, match="inside the window"):
        MarkedPointProcess(times=[150.0], lengths=[1],
                           window_start=0.0, window_end=100.0, dt=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        MarkedPointProcess(times=[10.0], lengths=[0],
                           window_start=0.0, window_end=100.0, dt=0.0)
    # Runs of length 2 at slots 0 and 2 would touch: no separating sample.
    with pytest.raises(ValueError, match="separated"):
        MarkedPointProcess(times=[0.0, 1200.0], lengths=[2, 1],
                           window_start=0.0, window_end=6000.0, dt=600.0)
    with pytest.raises(ValueError, match="past the window end"):
        MarkedPointProcess(times=[1200.0], lengths=[10],
                           window_start=0.0, window_end=3000.0, dt=600.0)


def test_oracle_equivalence_random_sweep():
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    for trial in range(200):
        n = int(rng.integers(5, 2000))
        values = rng.random(n) * 20.0
        missing = rng.random(n) < rng.random() * 0.3
        values[missing] = np.nan
        series = make_series(values, missing)
        threshold = float(rng.random() * 20.0)
        pp = extract_runs(series, ThresholdSpec(value=threshold))
        expected = naive_runs(values, missing, threshold)
        assert pp.times.tolist() == [s * 600.0 for s, _ in expected]
        assert pp.lengths.tolist() == [m for _, m in expected]


def test_coverage_partition():
    # Above-threshold samples are exactly the union of the run blocks.
    rng = np.random.Generator(np.random.Philox(key=np.array([13, 0], dtype=np.uint64)))
    for trial in range(50):
        n = int(rng.integers(50, 3000))
        values = rng.random(n) * 10.0
        missing = rng.random(n) < 0.1
        values[missing] = np.nan
        series = make_series(values, missing)
        threshold = float(rng.random() * 10.0)
        pp = extract_runs(series, ThresholdSpec(value=threshold))
        covered = np.concatenate([
            np.arange(int(t / 600.0), int(t / 600.0) + m)
            for t, m in zip(pp.times, pp.lengths)]) if pp.n_events else []
        above = np.flatnonzero(~missing & (np.nan_to_num(values, nan=-1.0) > threshold))
        assert np.array_equal(covered, above)


def test_event_count_non_increasing_in_min_length():
    rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    values = rng.random(5000) * 10.0
    series = make_series(values)
    pp = extract_runs(series, compute_threshold(series, 0.8))
    counts = [filter_by_min_length(pp, m).n_events for m in range(1, 31)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_threshold_subset_monotonicity():
    rng = np.random.Generator(np.random.Philox(key=np.array([19, 0], dtype=np.uint64)))
    values = rng.random(4000) * 25.0
    missing = rng.random(4000) < 0.05
    values[missing] = np.nan
    series = make_series(values, missing)

    def above_slots(p):
        pp = extract_runs(series, compute_threshold(series, p))
        return set(int(t / 600.0) + k
                   for t, m in zip(pp.times, pp.lengths) for k in range(m))

    s95, s975, s99 = above_slots(0.95), above_slots(0.975), above_slots(0.99)
    assert s99 <= s975 <= s95


def test_events_round_trip(tmp_path):
    series = make_series([1, 5, 6, 2, 7.25, 1])
    pp = extract_runs(series, compute_threshold(series, 0.5, min_count=5))
    path = tmp_path / "events.csv"
    write_events(pp, path)
    back = read_events(path)
    assert np.array_equal(back.times, pp.times)
    assert np.array_equal(back.lengths, pp.lengths)
    assert back.window_start == pp.window_start
    assert back.window_end == pp.window_end
    assert back.dt == pp.dt
    assert back.station_id == pp.station_id
    assert back.threshold == pp.threshold
    assert back.gap_fraction == pp.gap_fraction

    (tmp_path / "events.json").unlink()
    with pytest.raises(ValueError, match="sidecar"):
        read_events(path)


def test_write_events_failure_leaves_pair_unchanged(tmp_path, monkeypatch):
    series = make_series([1, 5, 6, 2, 7.25, 1])
    path = tmp_path / "events.csv"
    write_events(extract_runs(series, compute_threshold(series, 0.5, min_count=5)),
                 path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(*args, **kwargs):
        raise RuntimeError("sidecar serialisation failed")

    monkeypatch.setattr(runs, "json", SimpleNamespace(dumps=fail))
    lower = extract_runs(series, compute_threshold(series, 0.1, min_count=5))
    with pytest.raises(RuntimeError, match="serialisation"):
        write_events(lower, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
