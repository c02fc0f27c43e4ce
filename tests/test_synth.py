"""Tests for the synthetic point-process generators."""

import hashlib

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from runclust import SynthSpec, ThresholdSpec, extract_runs, generate, \
    generate_series, surrogate_rng
from runclust import synth
from runclust.allan import af_curve, fit_power_law
from runclust.stats import coefficient_of_variation, interevent_times, \
    local_coefficient_of_variation


def test_periodic_24_hours():
    pp = generate(SynthSpec.periodic(period=3600.0, window=24 * 3600.0, seed=0))
    assert pp.n_events == 24
    assert np.array_equal(pp.times, 3600.0 * np.arange(24))


def test_periodic_phase():
    pp = generate(SynthSpec.periodic(period=3600.0, window=7200.0, seed=0,
                                     phase=600.0))
    assert pp.times.tolist() == [600.0, 4200.0]


def test_poisson_count_concentration():
    lam, window = 1 / 600.0, 6.0e5
    expected = lam * window
    slack = 4.0 * np.sqrt(expected)
    for seed in range(100):
        n = generate(SynthSpec.poisson(rate=lam, window=window, seed=seed)).n_events
        assert abs(n - expected) <= slack


def test_generator_determinism():
    spec = SynthSpec.bursty(cluster_rate=1e-4, in_cluster_rate=0.01,
                            mean_cluster_size=5.0, window=1e6, seed=21)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.lengths, b.lengths)


def test_mixed_periodic_global_vs_local_dispersion():
    pp = generate(SynthSpec.mixed_periodic(60.0, 3600.0, window=1.3e6, seed=2))
    t = interevent_times(pp)
    assert t.size >= 10_000
    assert coefficient_of_variation(t) > 1.5
    assert local_coefficient_of_variation(t) < 0.3


def test_bursty_is_clustered():
    pp = generate(SynthSpec.bursty(cluster_rate=1 / 5000.0, in_cluster_rate=0.05,
                                   mean_cluster_size=8.0, window=1e6, seed=89))
    assert coefficient_of_variation(interevent_times(pp)) > 2.0


def test_fractal_renewal_slope():
    # Calibration protocol: window 1e7 s, min_gap 1 s, 60-point grid over
    # [1e3, 1e6] s, default fit range, median over seeds.  Per-seed
    # slopes scatter with sd ~ 0.18, hence the median over 32 seeds.
    taus = np.geomspace(1e3, 1e6, 60)
    slopes = []
    for seed in range(32):
        pp = generate(SynthSpec.fractal_renewal(0.6, window=1.0e7, seed=seed))
        assert pp.n_events >= 10_000
        slopes.append(fit_power_law(af_curve(pp, taus)).alpha)
    assert abs(np.median(slopes) - 0.6) < 0.1


def test_spec_validation():
    with pytest.raises(ValueError, match="window must be positive"):
        SynthSpec.poisson(rate=1.0, window=0.0, seed=0)
    with pytest.raises(ValueError, match="rate must be positive"):
        SynthSpec.poisson(rate=0.0, window=10.0, seed=0)
    with pytest.raises(ValueError, match="period must be positive"):
        SynthSpec.periodic(period=0.0, window=10.0, seed=0)
    with pytest.raises(ValueError, match="unknown kind"):
        SynthSpec(kind="brownian", window=10.0, seed=0)
    with pytest.raises(ValueError, match="mark_q"):
        SynthSpec.poisson(rate=1.0, window=10.0, seed=0, mark_q=0.0)
    with pytest.raises(ValueError, match="calibrated range"):
        SynthSpec.fractal_renewal(0.95, window=1e6, seed=0)
    with pytest.raises(ValueError, match="min_gap"):
        SynthSpec.fractal_renewal(0.5, window=1e6, seed=0, min_gap=0.0)
    with pytest.raises(ValueError, match="mean_cluster_size"):
        SynthSpec.bursty(cluster_rate=1.0, in_cluster_rate=1.0,
                         mean_cluster_size=0.5, window=10.0, seed=0)


ROUND_TRIP_SPECS = [
    SynthSpec.poisson(rate=1e-6, window=6.0e7, seed=0, mark_q=0.4),
    SynthSpec.periodic(period=6000.0, window=6.0e6, seed=3, mark_q=0.6),
    SynthSpec.mixed_periodic(6000.0, 13800.0, window=6.0e6, seed=4, mark_q=0.6),
    SynthSpec.fractal_renewal(0.6, window=6.0e6, seed=3, min_gap=1500.0),
    SynthSpec.bursty(cluster_rate=8e-7, in_cluster_rate=1 / 60000.0,
                     mean_cluster_size=2.5, window=6.0e7, seed=0, mark_q=0.6),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=lambda s: s.kind)
def test_generate_series_round_trip(spec):
    series, realised = generate_series(spec, dt=600.0, base_level=0.0,
                                       extreme_level=10.0)
    assert realised.n_events > 20
    pp = extract_runs(series, ThresholdSpec(value=5.0))
    assert np.array_equal(pp.times, realised.times)
    assert np.array_equal(pp.lengths, realised.lengths)


def test_generate_series_two_levels_only():
    series, realised = generate_series(ROUND_TRIP_SPECS[1], dt=600.0,
                                       base_level=1.0, extreme_level=9.0)
    assert set(np.unique(series.values)) == {1.0, 9.0}
    assert not series.missing.any()
    assert (series.values == 9.0).sum() == realised.lengths.sum()


def test_generate_series_rejects_colliding_grid():
    # Period equal to dt puts every event on the next slot: no mark can
    # separate the runs.
    spec = SynthSpec.periodic(period=600.0, window=6.0e5, seed=0)
    with pytest.raises(ValueError, match="collide on the sampling grid"):
        generate_series(spec, dt=600.0)


def test_generate_series_redraws_oversized_marks():
    # Mean mark 20 far exceeds the 9-slot gap between events, so most
    # marks are redrawn down; the round trip must still be exact.
    spec = SynthSpec.periodic(period=6000.0, window=6.0e6, seed=6, mark_q=0.05)
    series, realised = generate_series(spec, dt=600.0)
    raw = generate(spec)
    assert realised.lengths.max() <= 9
    assert not np.array_equal(raw.lengths, realised.lengths)
    pp = extract_runs(series, ThresholdSpec(value=5.0))
    assert np.array_equal(pp.times, realised.times)
    assert np.array_equal(pp.lengths, realised.lengths)


def test_generate_series_validation():
    spec = ROUND_TRIP_SPECS[1]
    with pytest.raises(ValueError, match="multiple of dt"):
        generate_series(spec, dt=7000.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        generate_series(spec, dt=0.0)
    with pytest.raises(ValueError, match="base_level"):
        generate_series(spec, dt=600.0, base_level=5.0, extreme_level=5.0)


def test_generate_series_no_events():
    # A window shorter than the phase produces an empty process; the
    # series is all base level and extraction finds nothing.
    spec = SynthSpec.periodic(period=1e6, window=6.0e5, seed=0, phase=9e5)
    series, realised = generate_series(spec, dt=600.0)
    assert realised.n_events == 0
    assert np.all(series.values == 0.0)
    assert extract_runs(series, ThresholdSpec(value=5.0)).n_events == 0


def test_downstream_mark_law_matches_geometric():
    spec = SynthSpec.periodic(period=60000.0, window=1.2e9, seed=5, mark_q=0.35)
    series, realised = generate_series(spec, dt=600.0)
    pp = extract_runs(series, ThresholdSpec(value=5.0))
    n = pp.n_events
    assert n == 20_000
    q = 0.35
    lengths, counts = np.unique(pp.lengths, return_counts=True)
    for m, count in zip(lengths, counts):
        p = (1 - q) ** (m - 1) * q
        if p * n < 10:
            continue
        se = np.sqrt(p * (1 - p) / n)
        assert abs(count / n - p) <= 3 * se


def test_table_marks_match_generator_geometric():
    # The table sampler must give Generator.geometric's marks bit for
    # bit and leave the generator where it would, on both sides of
    # numpy's search/inversion cut-off at p = 1/3.
    ps = (np.nextafter(1 / 3, 0), 1 / 3, 0.35, 0.5, 0.9, 1.0)
    sizes = (0, 1, 3 * synth._MARK_CHUNK + 77)
    for p in ps:
        for seed in (0, 1, 7, 123):
            for n in sizes:
                ours, numpys = surrogate_rng(seed, 4), surrogate_rng(seed, 4)
                marks = synth._geometric_marks(ours, p, n)
                expected = numpys.geometric(p, size=n)
                assert marks.dtype == expected.dtype
                assert np.array_equal(marks, expected), (p, seed, n)
                assert ours.random() == numpys.random(), (p, seed, n)


class _Replay:
    """Stands in for a generator whose ``random`` returns given doubles."""

    def __init__(self, values):
        self.values, self.at = values, 0

    def random(self, out):
        out[:] = self.values[self.at:self.at + out.size]
        self.at += out.size


def test_table_marks_follow_search_rule_at_every_edge():
    # numpy's search sampler returns the smallest X with U <= S_X.  Feed
    # the table U values on, just below and just above every S and every
    # bucket edge, where a random stream almost never lands.  Above the
    # last S, where the sums stop growing below 1, numpy's loop never
    # ends, so those U are left out.
    def search(u, p):
        x, prod, total, q = 1, p, p, 1.0 - p
        while u > total:
            prod *= q
            total += prod
            x += 1
        return x

    edges = np.arange(synth._MARK_BUCKETS + 1) / synth._MARK_BUCKETS
    for p in (1 / 3, 0.35, 0.5, 0.9, 1.0):
        sums = synth._geometric_table(p)[0] / synth._MARK_BUCKETS
        u = np.concatenate([sums, np.nextafter(sums, 0), np.nextafter(sums, 1),
                            edges, np.nextafter(edges, 0)])
        u = np.unique(u[(u >= 0) & (u <= sums[-1])])
        marks = synth._geometric_marks(_Replay(u), p, u.size)
        assert marks.tolist() == [search(v, p) for v in u], p


def _fractal_renewal_times_reference(rng, gamma, min_gap, window):
    # The loop as it was before the generator drew its chunks in place;
    # also returns how many chunks it drew.
    mean_gap = gamma / (gamma - 1.0) * min_gap if gamma > 1 else 10.0 * min_gap
    chunk = int(max(1024, min(2 ** 22, 1.2 * window / mean_gap + 16)))
    parts = []
    t = 0.0
    while t < window:
        gaps = min_gap * (1.0 - rng.random(chunk)) ** (-1.0 / gamma)
        cumulative = t + np.cumsum(gaps)
        parts.append(cumulative)
        t = float(cumulative[-1])
    times = np.concatenate(parts)
    return times[times < window], len(parts)


def test_fractal_renewal_times_match_reference():
    chunks = []
    for window in (1e3, 1e4, 1e5):
        for gamma in (0.8, 1.2, 1.6, 2.5):
            for seed, min_gap in ((0, 1.0), (1, 1.0), (2, 0.3)):
                case = (window, gamma, seed, min_gap)
                ours = synth._fractal_renewal_times(
                    surrogate_rng(seed), gamma, min_gap, window)
                expected, n_chunks = _fractal_renewal_times_reference(
                    surrogate_rng(seed), gamma, min_gap, window)
                assert ours.tobytes() == expected.tobytes(), case
                assert ours.base is None and ours.nbytes == 8 * ours.size, case
                chunks.append(n_chunks)
    assert max(chunks) > 1


def test_fractal_renewal_times_own_their_buffer():
    # The process holds exactly its events, not a view of the larger
    # chunk it was drawn in.
    pp = generate(SynthSpec.fractal_renewal(0.3, 1e6, seed=7, min_gap=1.0))
    assert pp.times.base is None
    assert pp.times.nbytes == 8 * pp.n_events


# SHA-256 of every generated process's times then marks, pinned when the
# generator began to draw in place, by the float64 pow numpy runs for the
# fractal-renewal intervals' ``**=``: its AVX-512 (X86_V4) loop, or the C
# library's pow where those loops are absent or disabled (the second
# form was taken with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR"; the AVX2-only and baseline paths give it too).
GENERATE_DIGESTS = {
    True: "b9f39e2355bc88599cd046c0623615c207b25be70aade2119eec82989012b5f7",
    False: "a4415c07f454062d73e9e5f2e01966904fc3f3aa511bc280578bf5209d01d6e0",
}


def test_generate_digest_unchanged():
    # Each CPU path must give its own form.
    digest = hashlib.sha256()
    for seed in range(6):
        specs = [SynthSpec.fractal_renewal(alpha, window, seed)
                 for alpha in (0.2, 0.5, 0.8) for window in (1e4, 1e6, 5e6)]
        for q in (0.2, 1 / 3, 0.5, 0.9, 1.0):
            specs += [SynthSpec.poisson(0.01, 1e6, seed, mark_q=q),
                      SynthSpec.bursty(1e-4, 0.1, 5.0, 1e6, seed, mark_q=q),
                      SynthSpec.periodic(1000.0, 1e6, seed, mark_q=q)]
        for spec in specs:
            pp = generate(spec)
            digest.update(pp.times.tobytes())
            digest.update(pp.lengths.tobytes())
    assert digest.hexdigest() == GENERATE_DIGESTS[
        bool(__cpu_features__.get("AVX512_SKX"))]
