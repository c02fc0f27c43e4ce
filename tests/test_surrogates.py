"""Tests for Poissonian surrogates and confidence bands."""

import tracemalloc

import numpy as np
import pytest

from runclust import allan, surrogates
from runclust import MarkedPointProcess, SurrogateConfig, af_curve, \
    allan_factor, cell_bands, counting_process, poisson_surrogate, \
    surrogate_rng
from runclust.stats import coefficient_of_variation, interevent_times, \
    local_coefficient_of_variation
from runclust.synth import SynthSpec, generate


# A grid for tests that read only the Cv and Lv bands.
ONE_TAU = np.array([1e4])


def linear_quantile(values: np.ndarray, p: float) -> float:
    """Empirical quantile with linear interpolation between order statistics.

    The quantile sits at one-based rank ``p*(n-1)+1``; fractional ranks
    interpolate linearly between the two adjacent order statistics.
    This is numpy's ``method="linear"``, taken one level of one sample
    at a time: the oracle for the station thresholds
    (``runs._thresholds``) and the surrogate band edges
    (``surrogates._band_edges``), which take many levels or columns in
    one ``np.quantile`` call.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    return float(np.quantile(values, p, method="linear"))


def make_pp(seed=83, n=500, window=1e6, mark_q=0.4):
    rng = surrogate_rng(seed)
    times = np.sort(rng.random(n)) * window
    while np.any(np.diff(times) == 0):
        times = np.sort(rng.random(n)) * window
    return MarkedPointProcess(times=times, lengths=rng.geometric(mark_q, n),
                              window_start=0.0, window_end=window, dt=0.0)


def test_surrogate_determinism():
    pp = make_pp()
    a = poisson_surrogate(pp, 7, stream=3)
    b = poisson_surrogate(pp, 7, stream=3)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.lengths, b.lengths)

    seen = {tuple(poisson_surrogate(pp, seed).times[:5]) for seed in range(100)}
    assert len(seen) == 100


def test_surrogate_preserves_count_window_marks():
    pp = make_pp()
    surr = poisson_surrogate(pp, 7)
    assert surr.n_events == pp.n_events
    assert surr.window_start == pp.window_start
    assert surr.window_end == pp.window_end
    assert np.array_equal(np.sort(surr.lengths), np.sort(pp.lengths))
    assert np.all(np.diff(surr.times) > 0)
    assert surr.times[0] >= pp.window_start and surr.times[-1] < pp.window_end

    lonely = MarkedPointProcess(times=[5.0], lengths=[1],
                                window_start=0.0, window_end=10.0, dt=0.0)
    with pytest.raises(ValueError, match="at least 2 events"):
        poisson_surrogate(lonely, 7)


def test_surrogate_cv_distribution_mean_near_one():
    pp = make_pp()
    cvs = np.empty(1000)
    for i in range(1000):
        surr = poisson_surrogate(pp, 7, stream=i)
        cvs[i] = coefficient_of_variation(np.diff(surr.times))
    assert abs(cvs.mean() - 1.0) < 0.05


def test_scalar_band_matches_quantile_rule():
    pp = make_pp(n=80)
    config = SurrogateConfig(seed=11, n_surrogates=64)
    _, band, _ = cell_bands(pp, ONE_TAU, config)

    samples = np.empty(64)
    for i in range(64):
        surr = poisson_surrogate(pp, 11, stream=i)
        samples[i] = local_coefficient_of_variation(np.diff(surr.times))
    assert band.lo == linear_quantile(samples, 0.025)
    assert band.hi == linear_quantile(samples, 0.975)
    assert band.observed == local_coefficient_of_variation(interevent_times(pp))
    assert band.lo <= band.hi


def test_scalar_band_classifications():
    config = SurrogateConfig(seed=11, n_surrogates=200)

    bursty = generate(SynthSpec.bursty(cluster_rate=1 / 5000.0,
                                       in_cluster_rate=0.05,
                                       mean_cluster_size=8.0,
                                       window=1e6, seed=89))
    cv_band, _, _ = cell_bands(bursty, ONE_TAU, config)
    assert cv_band.classification == "clustered"

    periodic = generate(SynthSpec.periodic(period=3600.0, window=1e6, seed=1))
    band, _, _ = cell_bands(periodic, ONE_TAU, config)
    assert band.observed == 0.0
    assert band.classification == "quasi-periodic"

    poisson = generate(SynthSpec.poisson(rate=5e-4, window=1e6, seed=97))
    cv_band, lv_band, _ = cell_bands(poisson, ONE_TAU, config)
    assert cv_band.classification == "poissonian"
    assert lv_band.classification == "poissonian"


def test_scalar_band_validation():
    pp = make_pp(n=2)
    config = SurrogateConfig(seed=11, n_surrogates=8)
    with pytest.raises(ValueError, match="at least 3 events"):
        cell_bands(pp, ONE_TAU, config)


def test_band_widening_never_narrows():
    pp = make_pp(n=60)
    narrow, _, _ = cell_bands(pp, ONE_TAU, SurrogateConfig(
        seed=3, n_surrogates=100, band=(0.1, 0.9)))
    wide, _, _ = cell_bands(pp, ONE_TAU, SurrogateConfig(
        seed=3, n_surrogates=100, band=(0.025, 0.975)))
    assert wide.lo <= narrow.lo and wide.hi >= narrow.hi


def test_two_surrogate_band_follows_rank_rule():
    pp = make_pp(n=40)
    config = SurrogateConfig(seed=5, n_surrogates=2)
    band, _, _ = cell_bands(pp, ONE_TAU, config)
    samples = np.sort([coefficient_of_variation(
        np.diff(poisson_surrogate(pp, 5, stream=i).times)) for i in range(2)])
    # One-based rank p*(n-1)+1 with n=2 interpolates just inside min/max.
    assert band.lo == samples[0] + 0.025 * (samples[1] - samples[0])
    assert band.hi == samples[0] + 0.975 * (samples[1] - samples[0])


def test_af_band_straddles_one():
    pp = make_pp()
    taus = np.geomspace(2e3, 1e5, 15)
    _, _, band = cell_bands(pp, taus, SurrogateConfig(seed=13, n_surrogates=200))
    assert np.all(band.n_samples == 200)
    assert np.all(band.lo < 1.0) and np.all(band.hi > 1.0)
    assert np.all(band.lo <= band.hi)


def test_af_band_undefined_taus_report_zero_samples():
    pp = make_pp(n=50)
    # Above half the window no surrogate has two complete counting windows.
    taus = np.array([1e4, 6e5])
    _, _, band = cell_bands(pp, taus, SurrogateConfig(seed=13, n_surrogates=16))
    assert band.n_samples.tolist() == [16, 0]
    assert np.isnan(band.lo[1]) and np.isnan(band.hi[1])


def test_af_band_partially_defined_taus_use_defined_values():
    # Four events and a tau with two complete counting windows: about one
    # surrogate in ten has fewer than two events inside them, so its factor
    # is undefined there while the rest are defined.  The band edges at
    # that tau are the quantiles of the defined values alone.
    pp = make_pp(n=4)
    taus = np.array([2e4, 3.4e5, 6e5])
    n_surrogates = 60
    _, _, band = cell_bands(pp, taus, SurrogateConfig(
        seed=23, n_surrogates=n_surrogates))
    assert band.n_samples[0] == n_surrogates and band.n_samples[2] == 0
    assert 0 < band.n_samples[1] < n_surrogates

    surrogates = [poisson_surrogate(pp, 23, stream=i)
                  for i in range(n_surrogates)]
    for j in (0, 1):
        processes = [counting_process(s, taus[j]) for s in surrogates]
        values = [allan_factor(cp) for cp in processes if cp.counts.sum() >= 2]
        assert band.n_samples[j] == len(values)
        assert band.lo[j] == linear_quantile(values, 0.025)
        assert band.hi[j] == linear_quantile(values, 0.975)
    assert np.isnan(band.lo[2]) and np.isnan(band.hi[2])


def test_cell_bands_scalar_bands_do_not_depend_on_grid():
    pp = make_pp(n=60)
    config = SurrogateConfig(seed=3, n_surrogates=20)
    cv_band, lv_band, af_band = cell_bands(pp, ONE_TAU, config)
    for name in ("taus", "lo", "hi", "n_samples", "observed"):
        assert getattr(af_band, name).shape == (1,)
    banded = cell_bands(pp, np.geomspace(2e4, 1e5, 4), config)
    assert (cv_band, lv_band) == banded[:2]
    with pytest.raises(ValueError, match="non-empty"):
        cell_bands(pp, np.empty(0), config)


def test_cell_bands_observed_row_matches_curve():
    # The observed process rides as row 0 of the sweep: its Allan factor
    # must be af_curve's bit for bit, NaNs included, and its Cv and Lv
    # those of the one-process functions, in the dense regime and in the
    # edge regime.  The last tau leaves fewer than two counting windows.
    dense = make_pp(n=300)
    edge = make_pp(seed=89, n=allan._EDGE_MIN_EVENTS + 7)
    taus = np.concatenate([np.geomspace(50.0, 4e5, 9), [6e5]])
    assert edge.n_events > allan._EDGE_EVENTS_PER_WINDOW * (1e6 // taus[-2])
    for pp in (dense, edge):
        cv_band, lv_band, band = cell_bands(
            pp, taus, SurrogateConfig(seed=5, n_surrogates=6))
        expected = af_curve(pp, taus).af
        assert np.isnan(expected[-1]) and not np.isnan(expected[:-1]).any()
        assert band.observed.tobytes() == expected.tobytes()
        intervals = interevent_times(pp)
        assert cv_band.observed == coefficient_of_variation(intervals)
        assert lv_band.observed == local_coefficient_of_variation(intervals)


def test_cell_bands_golden():
    # Values pinned from the sweep as first written, which built a full
    # poisson_surrogate per stream; the bands must not move.
    pp = make_pp(n=120)
    taus = np.geomspace(5e3, 1e5, 8)
    config = SurrogateConfig(seed=17, n_surrogates=50)
    cv_band, lv_band, curve_band = cell_bands(pp, taus, config)
    assert (cv_band.lo, cv_band.hi) == (0.8244780529439291, 1.1851851529590018)
    assert (lv_band.lo, lv_band.hi) == (0.8497284205073998, 1.1714822491762)
    assert curve_band.lo.tolist() == [
        0.8207705192629816, 0.7041666666666667, 0.6573943831157132,
        0.5069282067817711, 0.5413020581113802, 0.5089138232457198,
        0.330829326923077, 0.3888888888888889]
    assert curve_band.hi.tolist() == [
        1.2306323283082077, 1.2469880490956073, 1.2761162296243798,
        1.4110725308641974, 1.6016785714285715, 1.91005874422188,
        1.8590551605257486, 2.004861111111111]
    assert curve_band.n_samples.tolist() == [50] * 8

    # Each band edge is the quantile of the reference Allan factor over
    # the public surrogates, stream by stream.
    surrogates = [poisson_surrogate(pp, 17, stream=i) for i in range(50)]
    for j, tau in enumerate(taus):
        values = [allan_factor(counting_process(s, tau)) for s in surrogates]
        assert curve_band.lo[j] == linear_quantile(values, 0.025)
        assert curve_band.hi[j] == linear_quantile(values, 0.975)


def test_cell_bands_independent_of_block_size(monkeypatch):
    # The sweep evaluates its surrogates in row blocks; the rows a block
    # holds must not change any value, so the bands are the same for one
    # block of all surrogates, one surrogate per block, and a count that
    # is not a multiple of the block.  At 3,000 events the block of all
    # surrogates holds more than _BLOCK_EVENTS events, so the kernel
    # allocates its run-sized buffers per tau there, and holds them for
    # the smaller blocks.
    taus = np.geomspace(2e3, 4e5, 12)
    n_surrogates = 23
    config = SurrogateConfig(seed=19, n_surrogates=n_surrogates)
    for n in (90, 3000):
        assert (n_surrogates * n > allan._BLOCK_EVENTS) == (n == 3000)
        pp = make_pp(n=n)
        block = np.stack([poisson_surrogate(pp, 19, stream=i).times
                          for i in range(n_surrogates)])
        whole = allan._af_grid(block, pp.window_start, pp.duration, taus)
        monkeypatch.undo()
        bands = cell_bands(pp, taus, config)
        for rows in (n_surrogates, 1, 5):
            sliced = np.vstack([
                allan._af_grid(block[lo:lo + rows], pp.window_start,
                               pp.duration, taus)
                for lo in range(0, n_surrogates, rows)])
            assert np.array_equal(sliced, whole, equal_nan=True)

            monkeypatch.setattr(surrogates, "_BLOCK_EVENTS", rows * n)
            cv_band, lv_band, af_band = cell_bands(pp, taus, config)
            assert (cv_band, lv_band) == bands[:2]
            for name in ("lo", "hi", "n_samples"):
                assert np.array_equal(getattr(af_band, name),
                                      getattr(bands[2], name), equal_nan=True)
        assert np.all(bands[2].n_samples == n_surrogates)
        for j in range(taus.size):
            assert bands[2].lo[j] == linear_quantile(whole[:, j], 0.025)
            assert bands[2].hi[j] == linear_quantile(whole[:, j], 0.975)


def test_cell_bands_memory_bounded_by_block():
    # Ten times the surrogates may grow the traced peak by the larger
    # (surrogates x taus) values and scalar samples, not by the drawn
    # times: the sweep never holds more than one block of them.
    pp = make_pp(n=4500, window=3.15e8)
    taus = np.geomspace(1.2e3, 3e7, 6)

    def peak(n_surrogates):
        tracemalloc.start()
        try:
            cell_bands(pp, taus, SurrogateConfig(seed=3,
                                                 n_surrogates=n_surrogates))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grown = 900 * (taus.size + 2) * 8
    slack = 256 * 1024
    assert peak(1000) - peak(100) <= grown + slack


def test_surrogate_config_validation():
    with pytest.raises(ValueError, match="at least 2 surrogates"):
        SurrogateConfig(seed=1, n_surrogates=1)
    with pytest.raises(ValueError, match="band levels"):
        SurrogateConfig(seed=1, n_surrogates=10, band=(0.9, 0.1))
    with pytest.raises(ValueError, match="64-bit"):
        SurrogateConfig(seed=-1, n_surrogates=10)
    with pytest.raises(ValueError, match="64-bit"):
        surrogate_rng(2 ** 64)


def test_sorted_uniform_matches_reference_with_tie():
    # 40 draws on a span of 1e-12 at 1.0 hold a tie on seed 21's first
    # draw; the redraw must come from the same stream as before.
    def reference(rng, n, start, span):
        times = np.sort(start + rng.random(n) * span)
        draws = 1
        while np.any(np.diff(times) == 0):
            times = np.sort(start + rng.random(n) * span)
            draws += 1
        return times, draws

    expected, draws = reference(surrogate_rng(21), 40, 1.0, 1e-12)
    assert draws > 1
    ours = surrogates._sorted_uniform(surrogate_rng(21), 40, 1.0, 1e-12)
    assert ours.tobytes() == expected.tobytes()
    for seed in range(5):
        expected, _ = reference(surrogate_rng(seed), 1000, 3.0, 7.0e6)
        ours = surrogates._sorted_uniform(surrogate_rng(seed), 1000, 3.0, 7.0e6)
        assert ours.tobytes() == expected.tobytes()


def test_surrogate_streams_match_surrogate_rng():
    # The sweep re-keys one generator per surrogate; every stream must be
    # surrogate_rng(seed, i) bit for bit, however much of the stream
    # before it was used.  On a one-second window at 2**40 s there are
    # 4096 distinct times, so most draws of 100 sorted uniforms tie and
    # are redrawn from the same stream.
    start, span, n = 2.0 ** 40, 1.0, 100
    redrawn = 0
    for i, rng in enumerate(surrogates._surrogate_streams(11, 40)):
        reference = surrogate_rng(11, i)
        ours = surrogates._sorted_uniform(rng, n, start, span)
        expected = surrogates._sorted_uniform(reference, n, start, span)
        assert ours.tobytes() == expected.tobytes()
        assert rng.integers(2 ** 32, dtype=np.uint32) == \
            reference.integers(2 ** 32, dtype=np.uint32)
        first = np.sort(start + surrogate_rng(11, i).random(n) * span)
        redrawn += bool(np.any(first[1:] == first[:-1]))
    assert redrawn >= 10

    # Through the sweep: the Cv band is the quantile rule over the
    # surrogates poisson_surrogate draws, redraws included.
    pp = MarkedPointProcess(times=start + np.arange(n) / 128.0,
                            lengths=np.ones(n, dtype=int), window_start=start,
                            window_end=start + span, dt=0.0)
    config = SurrogateConfig(seed=11, n_surrogates=40)
    cv_band, _, _ = cell_bands(pp, ONE_TAU, config)
    cvs = [coefficient_of_variation(np.diff(poisson_surrogate(pp, 11, i).times))
           for i in range(40)]
    assert cv_band.lo == linear_quantile(cvs, 0.025)
    assert cv_band.hi == linear_quantile(cvs, 0.975)
