"""Tests for counting processes, Allan factor curves, fits and departures."""

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
    # the rounded products j*tau and quotients t/tau disagree: events on
    # j*tau and one ulp either side of it, for taus that are not exact
    # binary fractions.  Every case occupies its first and last window
    # and leaves events in a trailing partial window.
    rng = surrogate_rng(89)
    uniform = make_pp(np.sort(rng.random(20_000)) * 1e6, 1e6)
    dt = 600.0
    aligned = make_pp(2 * dt * np.sort(rng.choice(20_000, 15_000, replace=False)),
                      40_001 * dt, dt=dt)
    cases = [(uniform, np.geomspace(2.1e3, 4e5, 12)),
             (aligned, dt * np.array([100.0, 128.0, 150.0, 200.0, 400.0, 4000.0]))]
    for tau in (0.7, 3.3, 7.3):
        on = np.arange(250) * tau
        near = np.concatenate([on, np.nextafter(on, np.inf),
                               np.nextafter(on[1:], -np.inf),
                               rng.random(6000) * 250.5 * tau])
        cases.append((make_pp(np.unique(near), 250.5 * tau),
                      tau * np.array([1.0, 2.0, 3.0])))
    for pp, taus in cases:
        curve = af_curve(pp, taus)
        assert pp.n_events >= allan._EDGE_MIN_EVENTS
        assert curve.n_defined == taus.size
        for tau, value in zip(curve.taus, curve.af):
            assert pp.n_events > allan._EDGE_EVENTS_PER_WINDOW * (pp.duration // tau)
            assert value == allan_factor(counting_process(pp, tau))


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


def _band_on(taus, hi):
    taus = np.asarray(taus, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return AfBand(taus=taus, lo=np.zeros(taus.size), hi=hi,
                  n_samples=np.full(taus.size, 10), n_surrogates=10,
                  seed=0, band=(0.025, 0.975))


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
