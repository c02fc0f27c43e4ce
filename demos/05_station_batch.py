"""
Batch analysis across a station network
=======================================

Runs the full analysis matrix, with percentiles crossed with minimum
run lengths, over a directory of station CSVs plus a metadata table,
and walks the deterministic product tree it writes: per-station event
lists and cell statistics, and cross-station products keyed by sensor
height.
"""

import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from runclust import (AnalysisConfig, SampledSeries, TauGridSpec, run_batch,
                      write_series)

T0 = datetime(2010, 1, 1, tzinfo=timezone.utc)


def noise_station(station_id, seed, phi, n=100_000):
    # Persistent lognormal noise: AR(1) in the log so exceedances of a
    # high percentile arrive in clusters, not as isolated samples.
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64)))
    e = np.sqrt(1 - phi ** 2) * rng.standard_normal(n)
    z = np.empty(n)
    z[0] = e[0]
    for k in range(1, n):
        z[k] = phi * z[k - 1] + e[k]
    values = np.round(np.exp(0.45 * z), 3)
    missing = rng.random(n) < 0.01
    values[missing] = np.nan
    return SampledSeries(station_id=station_id, dt=600.0, t0=T0,
                         values=values, missing=missing)


with tempfile.TemporaryDirectory(prefix="runclust-batch-") as tmp:
    workdir = Path(tmp)
    stations = workdir / "stations"
    stations.mkdir()
    for station_id, seed, phi in (("wsl", 11, 0.75), ("wyn", 12, 0.55)):
        series = noise_station(station_id, seed, phi)
        write_series(series, stations / f"{station_id}.csv")
        print(f"wrote {station_id}.csv: {series.n_samples} samples, "
              f"gap fraction {series.gap_fraction:.4f}")

    # Station metadata keys the cross products: thresholds and mean
    # interevent times are tabulated against sensor height.
    meta = workdir / "meta.csv"
    meta.write_text("station_id,height,label\n"
                    "wsl,640,West slope\n"
                    "wyn,422,Wyndham\n")

    out = workdir / "out"
    config = AnalysisConfig(seed=99, output_dir=out,
                            percentiles=(0.95, 0.975),
                            min_run_lengths=(1, 2, 4),
                            tau_grid=TauGridSpec(points=24),
                            n_surrogates=200, workers=1)
    batch = run_batch(stations, meta, config)

    print(f"\nbatch: {batch['n_cells_ok']}/{batch['n_cells']} cells ok, "
          f"partial={batch['partial']}")
    for entry in batch["stations"]:
        print(f"  {entry['station_id']}: {entry['status']}")

    # Each station directory holds its thresholds, one event list per
    # percentile, and one cell directory per (percentile, min length).
    for station_id in ("wsl", "wyn"):
        summary = json.loads((out / station_id / "summary.json").read_text())
        thresholds = ", ".join(f"{k}={v:.3f}"
                               for k, v in summary["thresholds"].items())
        print(f"\n{station_id} (height {summary['height_m']}m): {thresholds}")
        for cell in summary["cells"]:
            print(f"  {cell['path']}: {cell['n_events']:>5} events, "
                  f"{cell['status']}")

    # A cell's stats.json carries the dispersion estimates with their
    # surrogate bands and classifications.
    stats = json.loads(
        (out / "wsl" / "p95" / "lm01" / "stats.json").read_text())
    cv, lv = stats["cv"], stats["lv"]
    print(f"\nwsl p95 lm01: n_events={stats['n_events']}")
    print(f"  cv={cv['observed']:.3f} band=({cv['band_lo']:.3f}, "
          f"{cv['band_hi']:.3f}) -> {cv['classification']}")
    print(f"  lv={lv['observed']:.3f} band=({lv['band_lo']:.3f}, "
          f"{lv['band_hi']:.3f}) -> {lv['classification']}")

    print("\ncross-station products:")
    for path in sorted((out / "cross").iterdir()):
        print(f"  cross/{path.name}")

    n_files = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"\n{n_files} files under {out}")
