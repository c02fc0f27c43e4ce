"""End-to-end acceptance gates for the full analysis stack.

Each test is one release gate and prints a single PASS/FAIL line
(visible through pytest's capture) before asserting, so a red run still
reports the outcome of every gate.  The workloads and tolerances are
pinned: exact formula values to 1e-12, Poisson calibration of the
dispersion measures and Allan-factor bands, structure discrimination,
fractal recovery within +/-0.1, a 1,000-series run-extraction oracle
sweep, exact generator round trips with the mark law checked at
N = 1e5, byte-identical batch reruns, and a ten-year single-station
performance budget.
"""

import hashlib
import json
import resource
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from oracles import naive_runs
from runclust import (AfCurve, AnalysisConfig, MarkedPointProcess,
                      SampledSeries, SurrogateConfig, SynthSpec, ThresholdSpec,
                      af_curve, cell_bands, coefficient_of_variation,
                      compute_threshold, extract_runs, fit_power_law,
                      generate, generate_series, interevent_times,
                      local_coefficient_of_variation, run_station,
                      write_series)
from runclust.cli import main

T0 = datetime(2010, 1, 1, tzinfo=timezone.utc)


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_exact_formula_suite(capsys):
    t0 = time.perf_counter()
    cv = coefficient_of_variation(np.array([1.0, 3.0]))
    lv = local_coefficient_of_variation(np.array([1.0, 3.0]))
    # Counts [0, 2] and [3, 3, 3, 3] in windows of 1 s.
    af_step, = af_curve(MarkedPointProcess(
        times=[1.25, 1.5], lengths=[1, 1], window_start=0.0, window_end=2.0,
        dt=0.0), [1.0]).af.tolist()
    af_flat, = af_curve(MarkedPointProcess(
        times=(np.arange(4)[:, None] + [0.1, 0.2, 0.3]).ravel(),
        lengths=np.ones(12, int),
        window_start=0.0, window_end=4.0, dt=0.0), [1.0]).af.tolist()
    elapsed = time.perf_counter() - t0

    ok = (abs(cv - 0.5) < 1e-12 and abs(lv - 0.75) < 1e-12
          and abs(af_step - 2.0) < 1e-12 and abs(af_flat) < 1e-12
          and elapsed < 1.0)
    report(capsys, "exact formula suite", ok,
           f"cv={cv} lv={lv} af={af_step},{af_flat} in {elapsed * 1e3:.1f}ms")
    assert abs(cv - 0.5) < 1e-12
    assert abs(lv - 0.75) < 1e-12
    assert abs(af_step - 2.0) < 1e-12
    assert abs(af_flat) < 1e-12
    assert elapsed < 1.0


def test_poisson_calibration(capsys):
    # 200 conditioned Poisson processes of exactly 5,000 events each.
    # The Cv significance test keeps the full 1,000-surrogate band; the
    # per-trial AF band uses 100 surrogates on a 20-point grid so the
    # whole sweep stays inside the runtime budget on one core.
    n_trials, n_events, window = 200, 5000, 3.0e6
    taus = np.geomspace(1200.0, 3.0e5, 20)

    t0 = time.perf_counter()
    cvs, lvs, fracs, rejections = [], [], [], 0
    for i in range(n_trials):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([29, i], dtype=np.uint64)))
        times = np.sort(rng.random(n_events)) * window
        pp = MarkedPointProcess(times=times,
                                lengths=np.ones(n_events, dtype=np.int64),
                                window_start=0.0, window_end=window, dt=0.0)
        intervals = interevent_times(pp)
        cvs.append(coefficient_of_variation(intervals))
        lvs.append(local_coefficient_of_variation(intervals))

        # The Cv band does not depend on the grid.  A tau as long as the
        # window leaves one counting window, so the sweep counts nothing.
        band, _, _ = cell_bands(pp, np.array([window]),
                                SurrogateConfig(seed=10_000 + i,
                                                n_surrogates=1000))
        rejections += band.classification != "poissonian"

        curve = af_curve(pp, taus)
        assert curve.n_defined == taus.size
        _, _, ab = cell_bands(pp, taus, SurrogateConfig(seed=10_000 + i,
                                                        n_surrogates=100))
        fracs.append(((ab.lo <= curve.af) & (curve.af <= ab.hi)).mean())
    elapsed = time.perf_counter() - t0

    mean_cv, mean_lv = np.mean(cvs), np.mean(lvs)
    mean_frac = np.mean(fracs)
    rejection_rate = rejections / n_trials
    ok = (0.98 <= mean_cv <= 1.02 and 0.98 <= mean_lv <= 1.02
          and mean_frac >= 0.90 and 0.02 <= rejection_rate <= 0.08
          and elapsed < 300.0)
    report(capsys, "Poisson calibration", ok,
           f"mean cv={mean_cv:.4f} lv={mean_lv:.4f} in-band={mean_frac:.3f} "
           f"rejection={rejection_rate:.3f} in {elapsed:.0f}s")
    assert 0.98 <= mean_cv <= 1.02
    assert 0.98 <= mean_lv <= 1.02
    assert mean_frac >= 0.90
    assert 0.02 <= rejection_rate <= 0.08
    assert elapsed < 300.0


def test_structure_discrimination(capsys):
    # Two periodic regimes with incommensurate periods and a large
    # ratio: global dispersion far above 1 while the local measure
    # stays near 0.
    mixed = generate(SynthSpec.mixed_periodic(60.0, 3600.0 * np.sqrt(2.0),
                                              window=1.2e6, seed=2))
    intervals = interevent_times(mixed)
    mixed_cv = coefficient_of_variation(intervals)
    mixed_lv = local_coefficient_of_variation(intervals)

    periodic = generate(SynthSpec.periodic(period=600.0, window=6.0e5, seed=4))
    periodic_iv = interevent_times(periodic)
    periodic_cv = coefficient_of_variation(periodic_iv)
    periodic_lv = local_coefficient_of_variation(periodic_iv)
    band, _, _ = cell_bands(periodic, np.array([6.0e5]),
                            SurrogateConfig(seed=303, n_surrogates=1000))

    ok = (intervals.size >= 10_000 and mixed_cv > 1.5 and mixed_lv < 0.3
          and periodic_cv == 0.0 and periodic_lv == 0.0
          and band.classification == "quasi-periodic")
    report(capsys, "structure discrimination", ok,
           f"mixed n={intervals.size} cv={mixed_cv:.2f} lv={mixed_lv:.4f}; "
           f"periodic cv={periodic_cv} lv={periodic_lv} "
           f"-> {band.classification}")
    assert intervals.size >= 10_000
    assert mixed_cv > 1.5
    assert mixed_lv < 0.3
    assert periodic_cv == 0.0
    assert periodic_lv == 0.0
    assert band.classification == "quasi-periodic"


def test_fractal_recovery(capsys):
    # Exact synthetic curve: both fitted parameters to 1e-6 relative.
    taus = np.geomspace(600.0, 6.0e5, 60)
    curve = AfCurve(taus=taus, af=1.0 + (taus / 1000.0) ** 0.5)
    fit = fit_power_law(curve, fit_range=(600.0, 6.0e5))
    exact_ok = (abs(fit.alpha - 0.5) < 1e-6 * 0.5
                and abs(fit.tau1 - 1000.0) < 1e-6 * 1000.0)

    # Calibrated generator: mean fitted slope over 48 frozen seeds.
    # Individual fits scatter with sd ~0.2 and a right skew, so the
    # block mean is the stable per-target summary.
    grid = np.geomspace(1.0e3, 1.0e6, 60)
    recovered = {}
    for alpha in (0.4, 0.8):
        slopes = []
        for seed in range(100, 148):
            pp = generate(SynthSpec.fractal_renewal(alpha, window=1.0e7,
                                                    seed=seed))
            assert pp.n_events >= 10_000
            slopes.append(fit_power_law(af_curve(pp, grid)).alpha)
        recovered[alpha] = float(np.mean(slopes))

    ok = (exact_ok and abs(recovered[0.4] - 0.4) <= 0.1
          and abs(recovered[0.8] - 0.8) <= 0.1)
    report(capsys, "fractal recovery", ok,
           f"exact alpha={fit.alpha:.8f} tau1={fit.tau1:.4f}; "
           f"generator 0.4->{recovered[0.4]:.3f} 0.8->{recovered[0.8]:.3f}")
    assert abs(fit.alpha - 0.5) < 1e-6 * 0.5
    assert abs(fit.tau1 - 1000.0) < 1e-6 * 1000.0
    assert abs(recovered[0.4] - 0.4) <= 0.1
    assert abs(recovered[0.8] - 0.8) <= 0.1


def test_run_extraction_oracle(capsys):
    rng = np.random.Generator(
        np.random.Philox(key=np.array([211, 0], dtype=np.uint64)))
    percentiles = (0.95, 0.975, 0.99)
    monotonic_checked = 0
    for trial in range(1000):
        n = int(rng.integers(200, 10001))
        values = rng.random(n) * 20.0
        missing = rng.random(n) < rng.random() * 0.2
        values[missing] = np.nan
        series = SampledSeries(station_id="S", t0=T0, dt=600.0,
                               values=values, missing=missing)

        threshold = compute_threshold(series, percentiles[trial % 3])
        pp = extract_runs(series, threshold)
        expected = naive_runs(values, missing, threshold.value)
        assert pp.times.tolist() == [s * 600.0 for s, _ in expected]
        assert pp.lengths.tolist() == [m for _, m in expected]

        if trial % 20 == 0:
            slots = []
            for p in percentiles:
                above = extract_runs(series, compute_threshold(series, p))
                slots.append(set(int(t / 600.0) + k
                                 for t, m in zip(above.times, above.lengths)
                                 for k in range(m)))
            assert slots[2] <= slots[1] <= slots[0]
            monotonic_checked += 1

    report(capsys, "run-extraction oracle", True,
           f"1000 trials event-for-event; threshold nesting on "
           f"{monotonic_checked} series")
    assert monotonic_checked == 50


def test_generator_round_trip_and_mark_law(capsys):
    specs = [
        SynthSpec.poisson(rate=1e-6, window=6.0e7, seed=0, mark_q=0.4),
        SynthSpec.periodic(period=6000.0, window=6.0e6, seed=3, mark_q=0.6),
        SynthSpec.mixed_periodic(6000.0, 13800.0, window=6.0e6, seed=4,
                                 mark_q=0.6),
        SynthSpec.fractal_renewal(0.6, window=6.0e6, seed=3, min_gap=1500.0),
        SynthSpec.bursty(cluster_rate=8e-7, in_cluster_rate=1 / 60000.0,
                         mean_cluster_size=2.5, window=6.0e7, seed=0,
                         mark_q=0.6),
    ]
    for spec in specs:
        series, realised = generate_series(spec, dt=600.0)
        pp = extract_runs(series, ThresholdSpec(value=5.0))
        assert np.array_equal(pp.times, realised.times), spec.kind
        assert np.array_equal(pp.lengths, realised.lengths), spec.kind

    # Extracted run lengths against the geometric mark law at N = 1e5:
    # every bin with at least 10 expected counts within 3 standard
    # errors.
    q = 0.35
    spec = SynthSpec.periodic(period=60000.0, window=6.0e9, seed=5, mark_q=q)
    series, _ = generate_series(spec, dt=600.0)
    pp = extract_runs(series, ThresholdSpec(value=5.0))
    n = pp.n_events
    worst_z, n_bins = 0.0, 0
    lengths, counts = np.unique(pp.lengths, return_counts=True)
    for m, count in zip(lengths, counts):
        p = (1 - q) ** (m - 1) * q
        if p * n < 10:
            continue
        se = np.sqrt(p * (1 - p) / n)
        worst_z = max(worst_z, abs(count / n - p) / se)
        n_bins += 1

    ok = n == 100_000 and n_bins >= 15 and worst_z <= 3.0
    report(capsys, "generator round trip and mark law", ok,
           f"5 kinds exact; N={n} bins={n_bins} worst z={worst_z:.2f}")
    assert n == 100_000
    assert n_bins >= 15
    assert worst_z <= 3.0


def test_batch_rerun_byte_identical(tmp_path, capsys):
    stations = tmp_path / "stations"
    stations.mkdir()
    for name, seed, phase in [("alpha", 2, 0.0), ("beta", 5, 1200.0)]:
        # mark_q 0.6 keeps the extreme fraction under 1 - 0.975, so both
        # percentile thresholds stay on the base level
        spec = SynthSpec.periodic(period=60000.0, window=6.0e6, seed=seed,
                                  phase=phase, mark_q=0.6)
        series, _ = generate_series(spec, dt=600.0)
        write_series(series, stations / f"{name}.csv")
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\nbeta,422\n")

    out = tmp_path / "out"
    argv = ["batch", str(stations), str(meta), "--out", str(out),
            "--seed", "11", "--percentiles", "0.95", "0.975",
            "--min-run-lengths", "1", "2", "--tau-points", "12",
            "--n-surrogates", "50"]

    def tree_hashes():
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}

    assert main(argv) == 0
    first = tree_hashes()
    assert main(argv) == 0
    second = tree_hashes()
    capsys.readouterr()

    ok = first == second and len(first) > 10
    report(capsys, "batch rerun determinism", ok,
           f"{len(first)} files byte-identical")
    assert first == second
    assert len(first) > 10


def test_performance_budget(tmp_path, capsys):
    # Ten years at 10-minute sampling, the full analysis matrix:
    # 3 percentiles x 3 minimum lengths x 1,000 surrogates x 60 taus.
    spec = SynthSpec.periodic(period=2.4e6, window=3.1536e8, seed=12,
                              mark_q=0.05)
    series, realised = generate_series(spec, dt=600.0)
    assert series.n_samples == 525_600

    config = AnalysisConfig(seed=2024, output_dir=str(tmp_path / "out"),
                            percentiles=(0.95, 0.975, 0.99),
                            min_run_lengths=(1, 5, 20),
                            n_surrogates=1000, workers=1)
    t0 = time.perf_counter()
    result = run_station(series, None, config)
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    statuses = [c["status"] for c in result["summary"]["cells"]]
    ok = (wall < 600.0 and peak_mb < 2048.0 and len(statuses) == 9
          and all(s == "ok" for s in statuses))
    report(capsys, "performance budget", ok,
           f"{series.n_samples} samples, 9 cells in {wall:.1f}s, "
           f"peak {peak_mb:.0f}MB")
    assert len(statuses) == 9
    assert all(s == "ok" for s in statuses)
    assert wall < 600.0
    assert peak_mb < 2048.0
