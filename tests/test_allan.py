"""Tests for counting processes, Allan factor curves, fits and departures."""

import tracemalloc

import numpy as np
import pytest

from runclust import allan
from runclust import AfCurve, CountingProcess, DP_CUTOFF, MarkedPointProcess, \
    TauGridSpec, af_curve, allan_factor, counting_process, default_fit_range, \
    departure, fit_power_law
from runclust.surrogates import AfBand, SurrogateConfig, cell_bands, \
    surrogate_rng
from runclust.synth import SynthSpec, generate


def make_pp(times, window, dt=0.0):
    times = np.asarray(times, dtype=float)
    return MarkedPointProcess(times=times,
                              lengths=np.ones(times.size, dtype=np.int64),
                              window_start=0.0, window_end=window, dt=dt)


def test_counting_process_hand_binning():
    cp = counting_process(make_pp([0.0, 100.0, 700.0], 1200.0), 600.0)
    assert cp.counts.tolist() == [2, 1]
    assert cp.n_windows == 2


def test_counting_process_no_events():
    cp = counting_process(make_pp([], 1200.0), 600.0)
    assert cp.counts.tolist() == [0, 0]


def test_counting_process_trailing_partial_dropped():
    # Window 0-1500 at tau 600 tiles two complete windows; the event at
    # 1300 falls past them and is dropped.
    cp = counting_process(make_pp([0.0, 100.0, 700.0, 1300.0], 1500.0), 600.0)
    assert cp.counts.tolist() == [2, 1]


def test_counting_process_errors():
    pp = make_pp([0.0, 100.0], 1200.0)
    with pytest.raises(ValueError, match="two counting windows"):
        counting_process(pp, 1200.0)
    with pytest.raises(ValueError, match="positive"):
        counting_process(pp, 0.0)
    grid = make_pp([0.0, 1200.0], 6000.0, dt=600.0)
    with pytest.raises(ValueError, match="sampling step"):
        counting_process(grid, 300.0)


def test_allan_factor_hand_values():
    assert allan_factor(CountingProcess(tau=1.0, counts=[3, 3, 3, 3])) == 0.0
    assert abs(allan_factor(CountingProcess(tau=1.0, counts=[0, 2])) - 2.0) < 1e-12
    with pytest.raises(ValueError, match="mean count is zero"):
        allan_factor(CountingProcess(tau=1.0, counts=[0, 0]))
    with pytest.raises(ValueError, match="two counting windows"):
        allan_factor(CountingProcess(tau=1.0, counts=[3]))


def test_allan_factor_poisson_flat():
    # 1e5 counting windows of mean count 1.
    pp = generate(SynthSpec.poisson(rate=0.01, window=1.0e7, seed=61))
    cp = counting_process(pp, 100.0)
    assert cp.n_windows == 100_000
    assert abs(allan_factor(cp) - 1.0) < 0.05


def test_allan_factor_mark_invariance():
    rng = surrogate_rng(71)
    times = np.sort(rng.random(500)) * 1e6
    base = MarkedPointProcess(times=times, lengths=np.ones(500, dtype=np.int64),
                              window_start=0.0, window_end=1e6, dt=0.0)
    relabelled = MarkedPointProcess(times=times,
                                    lengths=rng.geometric(0.3, size=500),
                                    window_start=0.0, window_end=1e6, dt=0.0)
    taus = np.geomspace(1e3, 1e5, 12)
    assert np.array_equal(af_curve(base, taus).af, af_curve(relabelled, taus).af,
                          equal_nan=True)


def test_af_curve_matches_scalar_definition():
    # The curve's run-length kernel must equal the plain two-step
    # definition exactly at every defined grid point.
    rng = surrogate_rng(73)
    for trial in range(10):
        n = int(rng.integers(3, 300))
        times = np.sort(rng.random(n)) * 1e6
        while np.any(np.diff(times) == 0):
            times = np.sort(rng.random(n)) * 1e6
        pp = make_pp(times, 1e6)
        taus = np.geomspace(50.0, 4e5, 25)
        curve = af_curve(pp, taus)
        for tau, value in zip(curve.taus, curve.af):
            cp = counting_process(pp, tau)
            if cp.counts.sum() >= 2:
                assert value == allan_factor(cp)
            else:
                assert np.isnan(value)


def test_af_curve_window_edges_exact():
    # Inputs where the run-length identity meets its edge terms: events
    # in window 0 and window W-1, adjacent occupied windows at both
    # ends, tiny tau (windows far outnumbering events), and grid-aligned
    # times with tau a multiple of the step so events sit on window
    # edges.  Every point must equal the two-step definition exactly.
    scattered = make_pp([3.0, 1000.5, 1001.25, 65000.0, 65001.0, 99999.5], 1e5)
    both_ends = make_pp([0.0, 0.5, 1.5, 2.5, 50.0, 97.5, 98.5, 99.5], 100.0)
    dt = 600.0
    slots = np.array([0, 2, 4, 9, 11, 500, 995, 997, 999])
    aligned = make_pp(slots * dt, 1000 * dt, dt=dt)
    rng = surrogate_rng(83)
    drawn = make_pp(2 * dt * np.sort(rng.choice(500, 150, replace=False)),
                    1000 * dt, dt=dt)
    step_multiples = dt * np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 50.0, 100.0])
    cases = [(scattered, [0.25, 1.0, 7.3]),
             (both_ends, [1.0, 2.0, 2.5, 10.0]),
             (aligned, step_multiples),
             (drawn, step_multiples)]
    for pp, taus in cases:
        curve = af_curve(pp, np.asarray(taus))
        assert curve.n_defined == len(taus)
        for tau, value in zip(curve.taus, curve.af):
            assert value == allan_factor(counting_process(pp, tau))


def test_af_curve_edge_regime_exact():
    # Processes large enough to be counted by window edges.  The counts
    # must follow the per-event rule floor((t - start)/tau) exactly where
    # the rounded boundaries start + j*tau and quotients (t - start)/tau
    # disagree: events on start + j*tau and one ulp either side of it,
    # for taus that are not exact binary fractions.  Every case occupies
    # its first and last window and leaves events in a trailing partial
    # window.  Checked on a window from 0 and on one from an epoch-sized
    # instant, where the boundaries round at the scale of the start and
    # can land several events from the exact edge.
    dt = 600.0
    for start in (0.0, 1.5e9):
        rng = surrogate_rng(89)

        def shifted(times, window, step=0.0):
            times = np.unique(start + times)
            return MarkedPointProcess(
                times=times, lengths=np.ones(times.size, dtype=np.int64),
                window_start=start, window_end=start + window, dt=step)

        uniform = shifted(np.sort(rng.random(20_000)) * 1e6, 1e6)
        aligned = shifted(2 * dt * np.sort(rng.choice(20_000, 15_000,
                                                      replace=False)),
                          40_001 * dt, step=dt)
        cases = [(uniform, np.geomspace(2.1e3, 4e5, 12)),
                 (aligned, dt * np.array([100.0, 128.0, 150.0, 200.0, 400.0,
                                          4000.0]))]
        for tau in (0.7, 3.3, 7.3):
            on = start + np.arange(250) * tau
            near = np.concatenate([on, np.nextafter(on, np.inf),
                                   np.nextafter(on[1:], -np.inf),
                                   start + rng.random(6000) * 250.5 * tau])
            cases.append((shifted(near - start, 250.5 * tau),
                          tau * np.array([1.0, 2.0, 3.0])))
        for pp, taus in cases:
            curve = af_curve(pp, taus)
            assert pp.n_events >= allan._EDGE_MIN_EVENTS
            assert curve.n_defined == taus.size
            for tau, value in zip(curve.taus, curve.af):
                assert pp.n_events > allan._EDGE_EVENTS_PER_WINDOW * (pp.duration // tau)
                assert value == allan_factor(counting_process(pp, tau))


def test_af_curve_edge_regime_allocates_no_process_copy():
    # Every tau of this grid takes the edge regime, which reads only the
    # events next to the window boundaries: the curve's peak allocation
    # stays far below one byte per event, let alone a copy of the times.
    pp = generate(SynthSpec.fractal_renewal(0.3, window=1e6, seed=7,
                                            min_gap=1.0))
    taus = np.geomspace(1e3, 1e5, 20)
    assert all(pp.n_events > allan._EDGE_EVENTS_PER_WINDOW * (pp.duration // tau)
               for tau in taus)
    tracemalloc.start()
    try:
        curve = af_curve(pp, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.n_defined == taus.size
    assert peak < pp.n_events


def _reference_af(times, window, tau, start=0.0):
    # allan_factor(counting_process(...)) of one row, NaN where the curve
    # leaves the point undefined.
    pp = MarkedPointProcess(times=times, lengths=np.ones(len(times), dtype=int),
                            window_start=start, window_end=start + window,
                            dt=0.0)
    try:
        cp = counting_process(pp, tau)
    except ValueError:
        return np.nan
    return allan_factor(cp) if cp.counts.sum() >= 2 else np.nan


def _assert_rows_exact(block, start, window, taus):
    # Every row of the block gets the bits of the two-step definition on
    # that row alone, and of its own one-row block.
    af = allan._af_grid(block, start, window, taus)
    assert af.shape == (block.shape[0], taus.size)
    for r, row in enumerate(block):
        expected = [_reference_af(row, window, tau, start) for tau in taus]
        assert np.array_equal(af[r], expected, equal_nan=True), r
        alone = allan._af_grid(block[r:r + 1], start, window, taus)
        assert np.array_equal(alone[0], af[r], equal_nan=True), r
    return af


def test_af_grid_block_rows_exact():
    # Every row of a block is one process on the shared window; each must
    # get the bits of the two-step definition on that row alone, and the
    # same bits whatever block it sits in.
    window = 100.0
    rows = [
        [1.0, 95.0, 96.0, 97.0, 98.0, 99.0],     # one event inside W*tau
        [91.0, 92.0, 93.0, 94.0, 95.0, 96.0],    # all past the last window
        [0.5, 50.0, 88.0, 89.5, 95.0, 99.9],     # window W-1 beside a tail of 2
        [0.0, 5.0, 40.0, 55.0, 89.9, 99.5],      # first and last windows, tail
        [0.0, 10.0, 30.0, 45.0, 60.0, 90.0],     # on the 5 s grid, on edges
        [0.0, 15.0, 30.0, 45.0, 60.0, 75.0],     # grid, every edge of tau 15
    ]
    rng = surrogate_rng(97)
    rows += [np.sort(rng.choice(np.arange(0.0, 100.0, 2.5), 6, replace=False))
             for _ in range(6)]
    rows += [np.sort(rng.random(6)) * window for _ in range(6)]
    block = np.array(rows, dtype=float)
    taus = np.array([0.25, 5.0, 7.0, 10.0, 15.0, 30.0, 45.0, 50.0, 60.0])
    af = _assert_rows_exact(block, 0.0, window, taus)
    # Fewer than two events inside the windows at 15, 30 and 45 s; at
    # 60 s no row has two complete windows.
    assert np.isnan(af[:2]).sum(axis=1).tolist() == [4, 4]
    assert np.isnan(af[:, -1]).all() and not np.isnan(af[2:, :-1]).any()

    # Rows whose neighbours would merge with them, or look adjacent to
    # them, without a run break at every row start and without masking
    # adjacency across it: a row all in window 0 followed by rows that
    # start in window 0 and in window 1 (at tau 5), and a row ending in
    # window W-1 followed by one entirely past the last window (at tau
    # 7: W = 14, window 13 is [91, 98)), in both orders.
    cross = np.array([
        [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],          # all in window 0 from tau 5
        [0.1, 3.0, 20.0, 41.0, 62.0, 83.0],      # starts in window 0
        [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
        [7.5, 20.0, 33.0, 47.0, 61.0, 88.0],     # starts in window 1 at tau 5
        [0.5, 50.0, 92.0, 93.0, 94.0, 95.0],     # ends in window 13 at tau 7
        [98.0, 98.5, 99.0, 99.2, 99.5, 99.9],    # past the last window at 7
        [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
        [98.0, 98.5, 99.0, 99.2, 99.5, 99.9],
    ])
    for ordered in (cross, cross[::-1]):
        af = _assert_rows_exact(ordered, 0.0, window, taus)
        # Every row is defined at tau 5; at tau 7 only the rows past the
        # last window are not.
        assert not np.isnan(af[:, 1]).any()
        assert np.isnan(af[:, 2]).sum() == 2

    # Rounding can put an event past the last window at index W+1, not
    # W: 3.0 // 0.1 is 29, yet (t - 0.7)/0.1 truncates to 30 for the last
    # event of the first row.  The clamp keeps it in the sentinel window.
    # Checked in a block of two rows and in a larger block, where the
    # rounding row sits between rows that start in window 0.
    start, window = 0.7, 3.0
    odd = np.array([[0.7, 1.0, 2.0, 3.65, 3.69, np.nextafter(3.7, 0.0)],
                    [0.7, 0.75, 0.85, 1.5, 2.0, 3.0]])
    taus = np.array([0.1, 0.2])
    assert int((odd[0, -1] - start) / taus[0]) == window // taus[0] + 1
    for sized in (odd, np.vstack([odd[1], odd, odd[::-1]])):
        af = _assert_rows_exact(sized, start, window, taus)
        assert not np.isnan(af).any()

    # Rows large enough for the edge regime are counted row by row.
    big = np.sort(rng.random((2, allan._EDGE_MIN_EVENTS)) * 1e6, axis=1)
    big[1, -50:] = np.sort(1e6 - rng.random(50) * 999.0)
    taus = np.array([1e4, 3e4, 4e5])
    assert all(big.shape[1] > allan._EDGE_EVENTS_PER_WINDOW * (1e6 // tau)
               for tau in taus)
    _assert_rows_exact(big, 0.0, 1e6, taus)


def _oracle_af(times, start, window, tau):
    # Pure Python: the occupied windows' counts in a dict, and the squared
    # differences of every adjacent pair that holds an occupied window.
    n_windows = int(window // tau)
    counts = {}
    for t in times:
        j = int((t - start) / tau)
        if j < n_windows:
            counts[j] = counts.get(j, 0) + 1
    m = sum(counts.values())
    if n_windows < 2 or m < 2:
        return np.nan
    pairs = {j for j in counts} | {j - 1 for j in counts}
    num = sum((counts.get(j + 1, 0) - counts.get(j, 0)) ** 2
              for j in pairs if 0 <= j <= n_windows - 2)
    return (num / (n_windows - 1)) / (2.0 * m / n_windows)


def test_af_grid_window_index_width(monkeypatch):
    # The dense regime holds window indices as int32 when every dense
    # tau's W + 2 stays below 2**31, and as int64 once one does not;
    # either way every value equals the pure-Python count.  At tau 1 the
    # events' indices run past 2**31, which int32 could not hold.
    widths = []
    dense_sums = allan._dense_sums

    def spy(rel, tau, n_windows, row_bounds, k, *rest):
        widths.append(k.dtype)
        return dense_sums(rel, tau, n_windows, row_bounds, k, *rest)

    monkeypatch.setattr(allan, "_dense_sums", spy)
    start, window = 1500.0, 4.0e9
    rng = surrogate_rng(41)
    block = np.sort(rng.random((2, 300)), axis=1) * window + start
    # Row 1 ends with events past the last complete window at tau 3
    # (W = 1,333,333,333 covers up to 3,999,999,999 s).
    block[1, -3:] = start + window - np.array([0.9, 0.5, 0.1])
    for taus, width in ((np.array([2.0, 3.0, 1e3, 1e6]), np.int32),
                        (np.array([1.0, 3.0, 1e6]), np.int64)):
        assert (window // taus[0] + 2 < 2**31) == (width == np.int32)
        widths.clear()
        af = allan._af_grid(block, start, window, taus)
        assert widths and set(widths) == {np.dtype(width)}
        for r in range(2):
            expected = [_oracle_af(block[r].tolist(), start, window, tau)
                        for tau in taus.tolist()]
            assert af[r].tolist() == expected, (width, r)


def test_af_curve_dense_large_row_memory():
    # The fractal process of the edge-regime test on a grid whose four
    # finest taus take the dense regime: a row above _BLOCK_EVENTS holds
    # no run-sized buffers, and its traced peak stays at or below the
    # 12.2 MB (34.5 B/event) that the kernel with a float quotient buffer
    # and int64 indices took.
    pp = generate(SynthSpec.fractal_renewal(0.3, window=1e6, seed=7,
                                            min_gap=1.0))
    taus = np.geomspace(10, 1e5, 20)
    assert pp.n_events > allan._BLOCK_EVENTS
    assert sum(pp.n_events <= allan._EDGE_EVENTS_PER_WINDOW * (pp.duration // tau)
               for tau in taus) == 4
    tracemalloc.start()
    try:
        curve = af_curve(pp, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.n_defined == taus.size
    assert peak <= 12.2e6


def test_af_curve_undefined_points():
    pp = make_pp([10.0, 20.0], 1000.0)
    curve = af_curve(pp, np.array([100.0, 400.0, 600.0]))
    assert curve.defined.tolist() == [True, True, False]
    assert curve.reasons[600.0] == "fewer than two complete counting windows"

    lonely = make_pp([500.0], 10_000.0)
    curve = af_curve(lonely, np.geomspace(10.0, 1000.0, 8))
    assert curve.n_defined == 0
    assert all("fewer than two events" in r for r in curve.reasons.values())


def test_af_curve_grid_validation():
    pp = make_pp([10.0, 20.0, 400.0], 1000.0)
    with pytest.raises(ValueError, match="non-empty"):
        af_curve(pp, np.empty(0))
    with pytest.raises(ValueError, match="ascending"):
        af_curve(pp, np.array([100.0, 50.0]))
    grid_pp = MarkedPointProcess(times=[0.0, 1200.0], lengths=[1, 1],
                                 window_start=0.0, window_end=6000.0, dt=600.0)
    with pytest.raises(ValueError, match="below the sampling step"):
        af_curve(grid_pp, np.array([300.0, 1200.0]))

    # The surrogate sweep checks the same grid before drawing anything.
    grid_pp = MarkedPointProcess(times=[0.0, 1200.0, 3000.0], lengths=[1, 1, 1],
                                 window_start=0.0, window_end=6000.0, dt=600.0)
    config = SurrogateConfig(seed=1, n_surrogates=2)
    with pytest.raises(ValueError, match="below the sampling step"):
        cell_bands(grid_pp, np.array([300.0, 1200.0]), config)
    with pytest.raises(ValueError, match="ascending"):
        cell_bands(grid_pp, np.array([1200.0, 600.0]), config)


def test_grid_doubling_consistency():
    rng = surrogate_rng(79)
    times = np.sort(rng.random(400)) * 96_000.0
    pp = make_pp(times, 96_000.0)
    tau = 1000.0
    cp = counting_process(pp, tau)
    cp2 = counting_process(pp, 2 * tau)
    paired = cp.counts.reshape(-1, 2).sum(axis=1)
    assert np.array_equal(cp2.counts, paired)
    assert allan_factor(cp2) == allan_factor(CountingProcess(tau=2 * tau,
                                                             counts=paired))


def test_default_tau_grid():
    pp = MarkedPointProcess(times=[0.0, 1200.0], lengths=[1, 1],
                            window_start=0.0, window_end=600_000.0, dt=600.0)
    grid = TauGridSpec().resolve(pp.dt, pp.duration)
    assert grid.size == 60
    assert abs(grid[0] - 1200.0) < 1e-9
    assert abs(grid[-1] - 60_000.0) < 1e-9

    continuous = make_pp([0.0, 1200.0], 600_000.0)
    with pytest.raises(ValueError, match="no sampling step"):
        TauGridSpec().resolve(continuous.dt, continuous.duration)


def test_fit_power_law_exact_recovery():
    taus = np.geomspace(600.0, 6e5, 60)
    curve = AfCurve(taus=taus, af=1.0 + (taus / 1000.0) ** 0.5)
    fit = fit_power_law(curve, fit_range=(600.0, 6e5))
    assert abs(fit.alpha - 0.5) < 1e-6 * 0.5
    assert abs(fit.tau1 - 1000.0) < 1e-6 * 1000.0
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.detected
    assert fit.n_used == 60
    assert fit.n_excluded == 0


def test_fit_power_law_default_range():
    taus = np.geomspace(1e2, 1e6, 50)
    curve = AfCurve(taus=taus, af=1.0 + (taus / 1000.0) ** 0.5)
    assert default_fit_range(curve) == (1000.0, 100_000.0)
    fit = fit_power_law(curve)
    assert (fit.fit_lo, fit.fit_hi) == (1000.0, 100_000.0)
    assert abs(fit.alpha - 0.5) < 1e-6

    narrow = AfCurve(taus=np.geomspace(1e3, 1e4, 20),
                     af=1.0 + (np.geomspace(1e3, 1e4, 20) / 1000.0) ** 0.5)
    assert default_fit_range(narrow) == (1000.0, 10_000.0)


def test_fit_power_law_exclusions_and_rejection():
    taus = np.geomspace(1e2, 1e6, 40)
    af = 1.0 + (taus / 1e4) ** 0.8
    af[:10] = 1.005  # no excess signal at small tau
    curve = AfCurve(taus=taus, af=af)
    fit = fit_power_law(curve, fit_range=(taus[0], taus[-1]))
    assert fit.n_excluded == 10
    assert fit.n_used == 30
    assert abs(fit.alpha - 0.8) < 1e-6

    flat = AfCurve(taus=taus, af=np.full(taus.size, 1.001))
    with pytest.raises(ValueError, match="at least 5 grid points"):
        fit_power_law(flat, fit_range=(taus[0], taus[-1]))

    falling = AfCurve(taus=taus, af=1.0 + (taus / 1e4) ** -0.5)
    fit = fit_power_law(falling, fit_range=(taus[0], taus[-1]))
    assert not fit.detected
    assert fit.alpha < 0
    assert np.isnan(fit.tau1)


def test_fit_power_law_poisson_rejected():
    # In the excess floor's operating regime (n_windows >= 2e4 across the
    # fit range, so Poisson AF noise sd = sqrt(2/n_windows) stays below
    # the 1% floor) a Poisson curve yields no usable points, no positive
    # slope, or a slope near 0.  With sparse windows the floor instead
    # clips noise from below and the surviving excursions grow like
    # tau^0.5, a known artifact; significance there is judged against
    # surrogate bands, never by a bare fit.
    for seed in range(30):
        pp = generate(SynthSpec.poisson(rate=0.01, window=1.0e7, seed=seed))
        curve = af_curve(pp, np.geomspace(50.0, 500.0, 12))
        try:
            fit = fit_power_law(curve, fit_range=(50.0, 500.0))
        except ValueError:
            continue  # too few points above the excess floor
        assert (not fit.detected) or abs(fit.alpha) < 0.2


def _linregress_fit(stats, curve, fit_range, min_excess=0.01):
    # (alpha, tau1, r_squared) from scipy.stats.linregress on the points
    # fit_power_law uses: the oracle for its closed form.
    lo, hi = fit_range
    usable = (curve.defined & (curve.taus >= lo) & (curve.taus <= hi)
              & (curve.af > 1.0 + min_excess))
    result = stats.linregress(np.log(curve.taus[usable]),
                              np.log(curve.af[usable] - 1.0))
    alpha = float(result.slope)
    tau1 = float(np.exp(-result.intercept / alpha)) if alpha > 0 else np.nan
    return alpha, tau1, float(result.rvalue ** 2)


def test_fit_power_law_matches_linregress_exactly():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(17)

    def check(curve, fit_range, min_points=5):
        fit = fit_power_law(curve, fit_range=fit_range, min_points=min_points)
        np.testing.assert_array_equal(
            (fit.alpha, fit.tau1, fit.r_squared),
            _linregress_fit(stats, curve, fit_range))

    for _ in range(300):
        taus = np.geomspace(rng.uniform(600.0, 6000.0),
                            rng.uniform(1e5, 1e7), int(rng.integers(5, 70)))
        excess = ((taus / rng.uniform(1e2, 1e6)) ** rng.uniform(-1.0, 1.5)
                  * np.exp(rng.normal(0.0, rng.uniform(0.0, 1.0), taus.size)))
        check(AfCurve(taus=taus, af=1.0 + excess), (taus[0], taus[-1]),
              min_points=2)

    taus = np.geomspace(1e3, 1e5, 20)
    flat = AfCurve(taus=taus, af=np.full(taus.size, 1.5))
    check(flat, (1e3, 1e5))
    assert np.isnan(fit_power_law(flat, fit_range=(1e3, 1e5)).r_squared)

    pair = AfCurve(taus=np.array([1e3, 4e3]), af=np.array([1.2, 1.9]))
    check(pair, (1e3, 4e3), min_points=2)
    assert fit_power_law(pair, fit_range=(1e3, 4e3), min_points=2).r_squared == 1.0
    with pytest.raises(ValueError, match="min_points must be at least 2"):
        fit_power_law(pair, fit_range=(1e3, 4e3), min_points=1)


def _band_on(taus, hi):
    taus = np.asarray(taus, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return AfBand(taus=taus, lo=np.zeros(taus.size), hi=hi,
                  n_samples=np.full(taus.size, 10),
                  observed=np.full(taus.size, np.nan))


def test_departure():
    taus = np.array([6000.0, 12_000.0, 24_000.0, 48_000.0])
    curve = AfCurve(taus=taus, af=np.array([1.0, 2.0, 3.0, np.nan]))
    band = _band_on(taus, [1.5, 2.0, 2.5, 2.5])

    rows = departure(curve, band)
    # Default cutoff is 200 min = 12000 s, strict: only taus above it,
    # and only where the curve is defined.
    assert rows == [(24_000.0, 0.5)]

    rows = departure(curve, band, tau_cutoff=0.0)
    assert rows[0] == (6000.0, -0.5)
    assert rows[1] == (12_000.0, 0.0)  # exactly on the band edge

    assert DP_CUTOFF == 12_000.0


def test_departure_skips_undefined_band_points():
    taus = np.array([20_000.0, 40_000.0])
    curve = AfCurve(taus=taus, af=np.array([2.0, 3.0]))
    band = _band_on(taus, [np.nan, 2.0])
    assert departure(curve, band) == [(40_000.0, 1.0)]


def test_departure_grid_mismatch():
    curve = AfCurve(taus=np.array([100.0, 200.0]), af=np.array([1.0, 2.0]))
    band = _band_on([100.0, 300.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="different tau grids"):
        departure(curve, band)
