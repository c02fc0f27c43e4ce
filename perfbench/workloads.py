"""Workload inputs and timed sections.

Every input is built from the workload seed by this file's own
generators.  Only ``fractal-af`` calls ``runclust.synth``, because synth
is what it measures; the station workloads build their series here, so
a change to synth does not change what they measure.

The program is always called through its module attributes
(``pipeline.run_station``, not a name imported once), so the
tracer in ``tracing.py`` can wrap the calls after this module is loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from runclust import allan, cli, ingest, pipeline, synth

DT = 600.0                      # ten-minute sampling
SAMPLES_PER_YEAR = 365 * 144
T0 = datetime(2000, 1, 1, tzinfo=timezone.utc)
OUTAGE_SAMPLES = 36             # one outage blanks six hours
MISSING_FRACTION = 0.01


@dataclass(frozen=True)
class Size:
    """Make-up of one workload's inputs.  ``full`` is what is timed;
    ``small`` keeps the self-test quick.  Station workloads use the
    first group of fields, ``fractal-af`` the second."""

    stations: int = 0
    samples: int = 0
    phi: float = 0.0
    percentiles: tuple[float, ...] = ()
    min_run_lengths: tuple[int, ...] = ()
    n_surrogates: int = 0
    tau_points: int = 0
    workers: int = 1
    alphas: tuple[float, ...] = ()
    window: float = 0.0
    taus: tuple[float, float, int] = (0.0, 0.0, 0)


SIZES = {
    "station-matrix": {
        "full": Size(stations=1, samples=10 * SAMPLES_PER_YEAR, phi=0.98,
                     percentiles=(0.95, 0.975, 0.99),
                     min_run_lengths=(1, 4, 12), n_surrogates=80,
                     tau_points=60),
        "small": Size(stations=1, samples=SAMPLES_PER_YEAR, phi=0.98,
                      percentiles=(0.95, 0.99), min_run_lengths=(1, 4),
                      n_surrogates=4, tau_points=12),
    },
    "batch-pool": {
        "full": Size(stations=3, samples=SAMPLES_PER_YEAR, phi=0.99,
                     percentiles=(0.9, 0.95),
                     min_run_lengths=tuple(range(1, 31)), n_surrogates=8,
                     tau_points=8, workers=2),
        "small": Size(stations=2, samples=SAMPLES_PER_YEAR // 4, phi=0.99,
                      percentiles=(0.9, 0.95), min_run_lengths=(1, 2, 3),
                      n_surrogates=4, tau_points=6, workers=2),
    },
    "fractal-af": {
        "full": Size(alphas=(0.2, 0.3), window=5.0e6, taus=(1.0e3, 1.0e6, 60)),
        "small": Size(alphas=(0.3,), window=1.0e6, taus=(1.0e3, 1.0e5, 20)),
    },
}


def derived_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and a path."""
    state = np.random.SeedSequence([seed, *path]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def station_series(seed: int, index: int, size: Size,
                   station_id: str) -> ingest.SampledSeries:
    """A log-normal AR(1) ten-minute wind series with outage blocks.

    ``phi`` is the lag-one correlation of the log speed; outages are
    blocks of ``OUTAGE_SAMPLES`` slots covering about 1% of the series.
    """
    rng = np.random.default_rng([seed, index])
    n = size.samples
    noise = rng.standard_normal(n)
    log_speed = lfilter([np.sqrt(1.0 - size.phi ** 2)], [1.0, -size.phi], noise)
    values = np.exp(0.5 * log_speed + 1.0)
    n_outages = int(round(MISSING_FRACTION * n / OUTAGE_SAMPLES))
    missing = np.zeros(n, dtype=bool)
    for start in rng.choice(n - OUTAGE_SAMPLES, n_outages, replace=False):
        missing[start:start + OUTAGE_SAMPLES] = True
    values[missing] = np.nan
    return ingest.SampledSeries(station_id=station_id, t0=T0, dt=DT,
                                values=values, missing=missing)


def station_ids(size: Size) -> list[str]:
    return [f"st{i:02d}" for i in range(size.stations)]


def station_height(index: int) -> float:
    return 400.0 + 700.0 * index


# ---------------------------------------------------------------------------
# Set-up (before the timed section) and the timed section of each workload.


@dataclass
class Prepared:
    """What set-up hands to the timed section and to the checks."""

    size: Size
    master_seed: int
    series: list
    argv: list | None = None
    specs: list | None = None


def prepare(workload: str, seed: int, size_name: str, work: Path) -> Prepared:
    size = SIZES[workload][size_name]
    master = derived_seed(seed, 0)
    if workload == "fractal-af":
        specs = [synth.SynthSpec.fractal_renewal(
            alpha, window=size.window, seed=derived_seed(seed, 1, i),
            min_gap=1.0) for i, alpha in enumerate(size.alphas)]
        return Prepared(size=size, master_seed=master, series=[], specs=specs)

    series = [station_series(seed, i, size, sid)
              for i, sid in enumerate(station_ids(size))]
    if workload == "station-matrix":
        return Prepared(size=size, master_seed=master, series=series)

    stations = work / "stations"
    stations.mkdir(parents=True)
    for s in series:
        ingest.write_series(s, stations / f"{s.station_id}.csv")
    meta = work / "meta.csv"
    meta.write_text("station_id,height\n" + "".join(
        f"{s.station_id},{station_height(i)!r}\n" for i, s in enumerate(series)))
    argv = (["batch", "stations", "meta.csv", "--seed", str(master),
             "--out", "out", "--workers", str(size.workers),
             "--n-surrogates", str(size.n_surrogates),
             "--tau-points", str(size.tau_points), "--percentiles"]
            + [repr(p) for p in size.percentiles] + ["--min-run-lengths"]
            + [str(m) for m in size.min_run_lengths])
    return Prepared(size=size, master_seed=master, series=series, argv=argv)


def run_timed(workload: str, prep: Prepared) -> dict:
    """The timed section: from the first call into runclust to the last
    product written.  Relative paths resolve in the round's work dir."""
    size = prep.size
    if workload == "station-matrix":
        config = pipeline.AnalysisConfig(
            seed=prep.master_seed, output_dir="out",
            percentiles=size.percentiles,
            min_run_lengths=size.min_run_lengths,
            tau_grid=pipeline.TauGridSpec(points=size.tau_points),
            n_surrogates=size.n_surrogates, workers=size.workers)
        pipeline.run_station(prep.series[0], None, config)
        return {}
    if workload == "batch-pool":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(prep.argv)
        return {"exit_code": code}

    lo, hi, points = size.taus
    taus = np.geomspace(lo, hi, points)
    curves = []
    for spec in prep.specs:
        pp = curve = None
        try:
            pp = synth.generate(spec)
            curve = allan.af_curve(pp, taus)
            fit = allan.fit_power_law(curve)
        except ValueError as exc:  # one failed curve is one failed operation
            fit = exc
        curves.append((pp, curve, fit))
    return {"curves": curves}


# ---------------------------------------------------------------------------
# Operations and their digests.


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def station_ops(prep: Prepared, out: Path) -> list[dict]:
    """One operation per cell of the workload's matrix, whether or not
    the program wrote it: its identity, status and the digest of its
    directory in the product tree."""
    size = prep.size
    ops = []
    for s in prep.series:
        summary = out / s.station_id / "summary.json"
        cells = {}
        if summary.exists():
            for cell in json.loads(summary.read_text())["cells"]:
                cells[(cell["percentile"], cell["min_run_length"])] = cell
        for pct in size.percentiles:
            for lm in size.min_run_lengths:
                cell = cells.get((pct, lm))
                op = {"id": f"{s.station_id}/p={pct!r}/m>={lm}",
                      "status": "missing", "digest": ""}
                if cell is not None:
                    op.update(status=cell["status"], path=cell["path"],
                              digest=tree_digest(out / s.station_id / cell["path"]))
                ops.append(op)
    return ops


def curve_ops(prep: Prepared, result: dict) -> list[dict]:
    """One operation per fractal spec, whether or not its curve was
    computed."""
    curves = result.get("curves", [])
    ops = []
    for i in range(len(prep.specs)):
        if i >= len(curves):
            ops.append({"id": f"curve{i}", "digest": "", "status": "missing"})
            continue
        pp, curve, fit = curves[i]
        h = hashlib.sha256(b"" if curve is None else curve.af.tobytes())
        h.update(repr(fit).encode())
        ops.append({"id": f"curve{i}", "digest": h.hexdigest(),
                    "status": "error" if isinstance(fit, Exception) else "ok"})
    return ops


def ops_and_digest(workload: str, prep: Prepared, result: dict,
                   work: Path) -> tuple[list[dict], str]:
    """Operations of one round and the digest of everything it produced."""
    if workload == "fractal-af":
        ops = curve_ops(prep, result)
        tree = hashlib.sha256("".join(op["digest"] for op in ops).encode())
        return ops, tree.hexdigest()
    out = work / "out"
    ops = station_ops(prep, out)
    if result.get("exit_code", 0) not in (0, 3):
        for op in ops:
            op["status"] = f"exit {result['exit_code']}"
    return ops, tree_digest(out)
