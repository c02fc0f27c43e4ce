"""Tests for interevent-time and run-length statistics."""

import numpy as np
import pytest

from runclust import MarkedPointProcess, RunLengthDensity, average_density, \
    coefficient_of_variation, filter_by_min_length, interevent_times, \
    local_coefficient_of_variation, mean_interevent_time, run_length_density
from runclust.stats import _dispersion_rows
from runclust.surrogates import surrogate_rng


def make_pp(times, lengths=None, window=None):
    times = np.asarray(times, dtype=float)
    if lengths is None:
        lengths = np.ones(times.size, dtype=np.int64)
    if window is None:
        window = float(times[-1]) + 1.0
    return MarkedPointProcess(times=times, lengths=lengths,
                              window_start=0.0, window_end=window, dt=0.0)


def test_interevent_times_examples():
    assert interevent_times(make_pp([0.0, 600.0, 2400.0])).tolist() == [600.0, 1800.0]
    assert interevent_times(make_pp([10.0, 25.0])).tolist() == [15.0]
    periodic = make_pp(3600.0 * np.arange(10))
    assert np.all(interevent_times(periodic) == 3600.0)
    with pytest.raises(ValueError, match="at least 2 events"):
        interevent_times(make_pp([5.0]))


def test_coefficient_of_variation_hand_values():
    # mean 2, population sigma 1
    assert abs(coefficient_of_variation([1.0, 3.0]) - 0.5) < 1e-12
    assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0


def test_local_coefficient_of_variation_hand_values():
    # single pair: 3*(1-3)^2/(1+3)^2 = 0.75
    assert abs(local_coefficient_of_variation([1.0, 3.0]) - 0.75) < 1e-12
    assert local_coefficient_of_variation([7.0] * 20) == 0.0


def test_dispersion_validation():
    for fn in (coefficient_of_variation, local_coefficient_of_variation):
        with pytest.raises(ValueError, match="at least 2"):
            fn([5.0])
        with pytest.raises(ValueError, match="positive"):
            fn([1.0, -2.0])
        with pytest.raises(ValueError, match="positive"):
            fn([1.0, 0.0])


def test_dispersion_rows_match_one_dimensional():
    # The surrogate sweep takes Cv and Lv of a whole block of surrogates
    # at once; each row must get the bits of the 1-D call on that row.
    rng = surrogate_rng(29)
    for n in (3, 4, 129, 4051):
        times = np.sort(rng.random((7, n)) * 3.15e8, axis=1)
        times[0] = 600.0 * np.arange(n)            # equal intervals: Lv 0
        intervals = np.diff(times, axis=1)
        cv, lv = _dispersion_rows(intervals)
        for row, row_cv, row_lv in zip(intervals, cv, lv):
            assert row_cv == coefficient_of_variation(row)
            assert row_lv == local_coefficient_of_variation(row)

    with pytest.raises(ValueError, match="positive"):
        _dispersion_rows(np.array([[1.0, 2.0], [1.0, 0.0]]))


def test_exponential_intervals_near_one():
    rng = surrogate_rng(23)
    t = rng.exponential(600.0, size=100_000)
    assert abs(coefficient_of_variation(t) - 1.0) < 0.02
    assert abs(local_coefficient_of_variation(t) - 1.0) < 0.02


def test_dispersion_scale_invariance():
    rng = surrogate_rng(41)
    t = rng.exponential(1.0, size=500) + 0.01
    cv, lv = coefficient_of_variation(t), local_coefficient_of_variation(t)
    for c in (1e-6, 3.7, 1024.0, 1e6):
        assert abs(coefficient_of_variation(c * t) - cv) < 1e-12 * cv
        assert abs(local_coefficient_of_variation(c * t) - lv) < 1e-12 * lv


def test_mean_interevent_time():
    assert mean_interevent_time([600.0, 1800.0]) == 1200.0
    assert mean_interevent_time([720.0]) == 720.0
    with pytest.raises(ValueError, match="at least 1"):
        mean_interevent_time([])
    with pytest.raises(ValueError, match="positive"):
        mean_interevent_time([600.0, -600.0])


def test_mean_interevent_non_decreasing_in_min_length():
    # Statistical property on processes whose marks are independent of
    # the event times: dropping events can only stretch the mean gap.
    rng = surrogate_rng(43)
    for trial in range(20):
        n = 400
        times = np.sort(rng.random(n)) * 1e6
        while np.any(np.diff(times) == 0):
            times = np.sort(rng.random(n)) * 1e6
        lengths = rng.geometric(0.35, size=n)
        pp = MarkedPointProcess(times=times, lengths=lengths,
                                window_start=0.0, window_end=1e6, dt=0.0)
        means = []
        for m in range(1, 9):
            sub = filter_by_min_length(pp, m)
            if sub.n_events < 2:
                break
            means.append(mean_interevent_time(interevent_times(sub)))
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


def test_run_length_density_hand_values():
    pp = make_pp([0.0, 10.0, 20.0], lengths=[1, 1, 2])
    d = run_length_density(pp)
    assert d.lengths.tolist() == [1, 2]
    assert abs(d.probs[0] - 2.0 / 3.0) < 1e-12
    assert abs(d.probs[1] - 1.0 / 3.0) < 1e-12

    point = run_length_density(make_pp([0.0, 10.0], lengths=[4, 4]))
    assert point.lengths.tolist() == [4]
    assert point.probs.tolist() == [1.0]

    with pytest.raises(ValueError, match="at least 1 event"):
        run_length_density(make_pp([], lengths=[], window=10.0))


def test_density_sums_to_one():
    rng = surrogate_rng(47)
    for trial in range(20):
        n = int(rng.integers(1, 500))
        times = np.sort(rng.random(n)) * 1e6
        while np.any(np.diff(times) == 0):
            times = np.sort(rng.random(n)) * 1e6
        lengths = rng.geometric(0.3, size=n)
        d = run_length_density(MarkedPointProcess(
            times=times, lengths=lengths, window_start=0.0,
            window_end=1e6, dt=0.0))
        assert abs(d.probs.sum() - 1.0) <= 1e-12


def test_density_matches_geometric_within_3se():
    rng = surrogate_rng(37)
    q = 0.5
    n = 100_000
    marks = rng.geometric(q, size=n)
    times = np.arange(n, dtype=float)
    d = run_length_density(MarkedPointProcess(
        times=times, lengths=marks, window_start=0.0,
        window_end=float(n), dt=0.0))
    for m, p_hat in zip(d.lengths, d.probs):
        p = (1 - q) ** (m - 1) * q
        if p * n < 10:
            continue
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 3 * se


def test_average_density():
    a = RunLengthDensity(lengths=[1], probs=[1.0])
    b = RunLengthDensity(lengths=[3], probs=[1.0])
    mean = average_density([a, b])
    assert mean.lengths.tolist() == [1, 3]
    assert mean.probs.tolist() == [0.5, 0.5]

    same = average_density([a, a, a])
    assert same == a

    with pytest.raises(ValueError, match="at least one"):
        average_density([])


def test_average_density_sums_to_one():
    rng = surrogate_rng(53)
    densities = []
    for _ in range(7):
        support = np.unique(rng.integers(1, 40, size=10))
        w = rng.random(support.size)
        densities.append(RunLengthDensity(lengths=support, probs=w / w.sum()))
    mean = average_density(densities)
    assert abs(mean.probs.sum() - 1.0) <= 1e-12


def test_density_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        RunLengthDensity(lengths=[1, 2], probs=[0.5, 0.4])
    with pytest.raises(ValueError, match="strictly increasing"):
        RunLengthDensity(lengths=[2, 1], probs=[0.5, 0.5])
    with pytest.raises(ValueError, match="non-empty"):
        RunLengthDensity(lengths=[], probs=[])
