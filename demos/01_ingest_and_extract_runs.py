"""
Ingesting a sampled series and extracting threshold runs
========================================================

Reads a 10-minute-sampled series from CSV, computes empirical
percentile thresholds, and extracts the maximal runs of consecutive
samples strictly above each threshold.  Runs become a marked point
process: the event time is the first sample of the run and the mark is
the run length in samples.
"""

import tempfile
from pathlib import Path

import numpy as np

from runclust import (SampledSeries, compute_threshold, extract_runs,
                      parse_series, write_series)

from datetime import datetime, timezone

# Build a persistent (AR(1)) lognormal series with a 2% missing mask,
# the shape of observational surface data.
n = 10_000
rng = np.random.Generator(np.random.Philox(key=np.array([42, 0], dtype=np.uint64)))
phi = 0.7
e = np.sqrt(1 - phi ** 2) * rng.standard_normal(n)
z = np.empty(n)
z[0] = e[0]
for k in range(1, n):
    z[k] = phi * z[k - 1] + e[k]
values = np.round(np.exp(0.5 * z), 3)
missing = rng.random(n) < 0.02
values[missing] = np.nan
series = SampledSeries(station_id="demo", dt=600.0,
                       t0=datetime(2010, 1, 1, tzinfo=timezone.utc),
                       values=values, missing=missing)

with tempfile.TemporaryDirectory(prefix="runclust-demo-") as workdir:
    csv_path = Path(workdir) / "station.csv"
    write_series(series, csv_path)
    print(f"wrote {csv_path} ({series.n_samples} samples "
          f"at dt={series.dt:.0f}s)")

    # Parse it back: the parser validates the timestamp grid and keeps an
    # explicit missing-sample mask; a gap terminates any ongoing run.
    series = parse_series(csv_path, station_id="demo", dt=600.0)
print(f"parsed {series.n_samples} samples, "
      f"gap fraction {series.gap_fraction:.4f}")

# Thresholds are empirical quantiles of the non-missing values with
# one-based rank interpolation; higher percentiles keep fewer, longer
# blocks.
print(f"\n{'percentile':>10} {'threshold':>10} {'events':>7} "
      f"{'longest run':>12}")
for percentile in (0.95, 0.975, 0.99):
    threshold = compute_threshold(series, percentile)
    pp = extract_runs(series, threshold)
    print(f"{percentile:>10} {threshold.value:>10.3f} {pp.n_events:>7} "
          f"{pp.lengths.max():>9} x10min")

# Samples above a higher threshold are a subset of those above a lower
# one, so the run blocks nest.
def covered_slots(percentile):
    pp = extract_runs(series, compute_threshold(series, percentile))
    return set(int(t / 600.0) + k
               for t, m in zip(pp.times, pp.lengths) for k in range(m))

assert covered_slots(0.99) <= covered_slots(0.975) <= covered_slots(0.95)
print("\nrun blocks nest across the three thresholds")

pp = extract_runs(series, compute_threshold(series, 0.95))
print("first five events at p=0.95:")
for t, m in list(zip(pp.times, pp.lengths))[:5]:
    print(f"  t={t:>9.0f}s ({t / 3600.0:6.1f}h)  length={m} samples")
