"""Station and batch analysis.

A station run sweeps the full experiment matrix: for every percentile
the series is thresholded and its runs extracted once, then for every
minimum run length the filtered process is characterised (run-length
density, mean interevent time, Cv and Lv with surrogate bands and
classifications, Allan-factor curve with band and departure, and
power-law fit).  Every (percentile, min length) cell is evaluated in
isolation: a cell that cannot produce its products records a status
instead of aborting the run.

Cells are independent, so a batch distributes them over a bounded
worker pool, and each cell writes its own products (``stats.json``,
``af.csv``, ``band.csv``, ``pm.csv``) in the process that evaluates it,
returning only the fields the station summary and cross products read;
the parent writes only a station's event lists, while the cells run,
and its ``summary.json``.  With more than one worker, the same pool
parses the station series, one station ahead of the cells, so at most
two parsed series are held at once.  Each cell's surrogate seed is
derived from the master seed and the cell identity alone, every file
has one writer, and results are assembled in sorted cell order, so
outputs are byte-identical across reruns regardless of worker count or
scheduling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allan import _curve_with_reasons, departure, fit_power_law
from .ingest import SampledSeries, StationMeta, _check_station_id, parse_series, \
    parse_station_meta
from .runs import MarkedPointProcess, _atomic_write_text, _thresholds, \
    extract_runs, filter_by_min_length, write_events
from .stats import RunLengthDensity, average_density, interevent_times, \
    mean_interevent_time, run_length_density
from .surrogates import _MIN_EVENTS, BAND, SurrogateConfig, cell_bands

__all__ = [
    "AnalysisConfig",
    "TauGridSpec",
    "derive_cell_seed",
    "percentile_label",
    "run_length_label",
    "run_batch",
    "run_station",
]


# Types a config value of each kind may have, and the kind's name in
# messages.  A bool is no integer or real number here, though Python
# counts it as both.
_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a real number")}


def _check_type(key: str, value, kind: type, optional: bool = False) -> None:
    """Raise TypeError naming config key ``key`` unless ``value`` is of
    ``kind`` (``int`` or ``float``), or ``None`` and ``optional``; raise
    ValueError if a ``float`` value is not finite."""
    if optional and value is None:
        return
    accepted, name = _KINDS[kind]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise TypeError(f"{key} must be {name}{' or null' if optional else ''}, "
                        f"got {value!r}")
    # NaN fails the comparison; math.isfinite would overflow on a huge int.
    if kind is float and not -math.inf < value < math.inf:
        raise ValueError(f"{key} must be finite, got {value!r}")


def _check_list(key: str, values, kind: type) -> None:
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{key} must be a list, got {values!r}")
    for value in values:
        _check_type(key, value, kind)


@dataclass(frozen=True)
class TauGridSpec:
    """Geometric tau grid; ``lo``/``hi`` default to twice the sampling
    step and a tenth of the observation span."""

    lo: float | None = None
    hi: float | None = None
    points: int = 60

    def __post_init__(self):
        _check_type("tau_lo", self.lo, float, optional=True)
        _check_type("tau_hi", self.hi, float, optional=True)
        _check_type("tau_points", self.points, int)
        if self.points < 1:
            raise ValueError("tau grid needs at least 1 point")
        if self.lo is not None and not self.lo > 0:
            raise ValueError("tau grid lo must be positive")
        if self.lo is not None and self.hi is not None and not self.hi >= self.lo:
            raise ValueError("tau grid hi must be >= lo")
        if self.lo is not None and self.lo == self.hi and self.points > 1:
            raise ValueError(f"tau grid of {self.points} points needs hi > lo")

    def resolve(self, dt: float, duration: float) -> np.ndarray:
        """The grid for a process sampled every ``dt`` seconds over
        ``duration`` seconds.

        Geometric from lo to hi, both exact, with ``lo * (hi/lo) **
        (i/(points-1))`` between them in scalar float arithmetic, which
        calls the C library's ``pow`` whatever SIMD loops numpy runs;
        ``np.geomspace`` gives some taus other last bits on numpy's
        AVX-512 loops.
        """
        lo, hi = self._edges(dt, duration / 10.0)
        if self.points == 1:
            return np.array([lo])
        ratio, last = hi / lo, self.points - 1
        grid = np.array([lo] + [lo * ratio ** (i / last) for i in range(1, last)]
                        + [hi])
        if not np.all(np.diff(grid) > 0):
            raise ValueError(f"tau grid of {self.points} points from {lo:g} s "
                             f"to {hi:g} s is not strictly ascending")
        return grid

    def _edges(self, dt: float, default_hi: float) -> tuple[float, float]:
        # The grid's first and last tau for sampling step ``dt``, with
        # ``default_hi`` as the last unless ``hi`` is set; raises unless
        # the grid is non-empty, no tau is below ``dt``, and a grid of
        # more than one point has hi > lo.
        if self.lo is None and not dt > 0:
            raise ValueError("process has no sampling step; supply an explicit grid")
        lo = 2.0 * dt if self.lo is None else self.lo
        hi = default_hi if self.hi is None else self.hi
        if lo < dt:
            raise ValueError(f"tau grid must not go below the sampling step "
                             f"({lo:g} s < {dt:g} s)")
        if not hi >= lo:
            raise ValueError(f"resolved tau grid is empty (hi {hi:g} s < lo {lo:g} s)")
        if hi == lo and self.points > 1:
            raise ValueError(f"tau grid of {self.points} points needs hi > lo "
                             f"(both {lo:g} s)")
        return lo, hi


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of a station or batch run.

    ``seed`` is the master seed every surrogate substream derives from;
    runs with surrogates always require it.  ``workers`` bounds the
    process pool (``None`` = the machine's CPU count).

    The method itself is fixed, not configured: a cell with fewer than
    3 events, the fewest the surrogate bands take, is recorded as
    ``insufficient_events``; thresholds need 100 non-missing samples;
    bands span the 2.5% to 97.5% quantiles; departures are read above
    :data:`~runclust.allan.DP_CUTOFF`; and every cell with a curve gets
    the power-law fit.

    The tau grid and ``n_surrogates`` take their defaults from
    :class:`TauGridSpec` and :class:`SurrogateConfig`.  Every value is
    checked here, before any input is read: first its type, naming its
    :meth:`as_mapping` key, then its range; the seed and surrogate count
    by building the :class:`SurrogateConfig` each cell builds, and the
    tau grid's edges against ``dt``, the sampling step every station is
    parsed with.
    """

    seed: int
    output_dir: str
    percentiles: tuple[float, ...] = (0.95, 0.975, 0.99)
    min_run_lengths: tuple[int, ...] = tuple(range(1, 31))
    tau_grid: TauGridSpec = TauGridSpec()
    n_surrogates: int = SurrogateConfig.n_surrogates
    dt: float = 600.0
    workers: int | None = None

    def __post_init__(self):
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise TypeError(f"output_dir must be a path, got {self.output_dir!r}")
        _check_list("percentiles", self.percentiles, float)
        _check_list("min_run_lengths", self.min_run_lengths, int)
        if not isinstance(self.tau_grid, TauGridSpec):
            raise TypeError("tau_grid must be a TauGridSpec")
        for key, value, kind in (
                ("seed", self.seed, int),
                ("n_surrogates", self.n_surrogates, int),
                ("dt", self.dt, float)):
            _check_type(key, value, kind)
        _check_type("workers", self.workers, int, optional=True)
        if not self.percentiles:
            raise ValueError("need at least one percentile")
        if any(not 0.0 < p < 1.0 for p in self.percentiles):
            raise ValueError("percentiles must lie in (0, 1)")
        if len(set(self.percentiles)) != len(self.percentiles):
            raise ValueError("duplicate percentiles")
        if not self.min_run_lengths:
            raise ValueError("need at least one minimum run length")
        if any(m < 1 for m in self.min_run_lengths):
            raise ValueError("minimum run lengths must be >= 1")
        if len(set(self.min_run_lengths)) != len(self.min_run_lengths):
            raise ValueError("duplicate minimum run lengths")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        self.tau_grid._edges(self.dt, math.inf)
        SurrogateConfig(self.seed, self.n_surrogates)
        object.__setattr__(self, "output_dir", str(self.output_dir))
        object.__setattr__(self, "percentiles", tuple(float(p) for p in self.percentiles))
        object.__setattr__(self, "min_run_lengths",
                           tuple(int(m) for m in self.min_run_lengths))

    def as_mapping(self) -> dict:
        """Flat mapping of the effective configuration, for echoing: one
        key per field, with the tau grid spelled out."""
        mapping = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        grid = mapping.pop("tau_grid")
        mapping.update(tau_lo=grid.lo, tau_hi=grid.hi, tau_points=grid.points)
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in mapping.items()}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "AnalysisConfig":
        """Inverse of :meth:`as_mapping`: a missing key takes its default,
        an unknown key is an error."""
        values = cls(seed=0, output_dir="").as_mapping()
        unknown = set(mapping) - set(values)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if mapping.get("seed") is None:
            raise ValueError("config requires a seed")
        if mapping.get("output_dir") is None:
            raise ValueError("config requires an output_dir")
        values.update(mapping)
        grid = TauGridSpec(values.pop("tau_lo"), values.pop("tau_hi"),
                           values.pop("tau_points"))
        return cls(tau_grid=grid, **values)


def derive_cell_seed(master_seed: int, station_id: str, percentile: float,
                     min_run_length: int) -> int:
    """64-bit surrogate seed for one cell, stable across scheduling.

    Hashes the master seed together with the cell identity, so any cell
    can be recomputed in isolation and still reproduce the batch run.
    """
    text = f"{master_seed}|{station_id}|{percentile!r}|{min_run_length}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def percentile_label(percentile: float) -> str:
    return f"p{100.0 * percentile:g}"


def run_length_label(min_run_length: int) -> str:
    return f"lm{min_run_length:02d}"


# ---------------------------------------------------------------------------
# Cell evaluation (runs inside worker processes; must stay top-level).


def _scalar_band_payload(band) -> dict:
    return {
        "observed": band.observed,
        "band_lo": band.lo,
        "band_hi": band.hi,
        "classification": band.classification,
    }


def _evaluate_cell(task: dict) -> dict:
    """Evaluate one cell and write its products to ``task["cell_dir"]``,
    in whichever process runs it; returns the cell's record, the fields
    the station's cell index and the cross products read."""
    pp: MarkedPointProcess = task["pp"]
    config: AnalysisConfig = task["config"]
    stats = {
        "station_id": task["station_id"],
        "height_m": task["height_m"],
        "percentile": task["percentile"],
        "min_run_length": task["min_run_length"],
        "threshold_value": pp.threshold.value if pp.threshold else None,
        "gap_fraction": pp.gap_fraction,
        "n_events": pp.n_events,
        "seed_master": config.seed,
        "seed_cell": task["seed_cell"],
        "n_surrogates": config.n_surrogates,
        "band": list(BAND),
        "estimators": {"quantile": "linear", "std": "population"},
    }
    tables, dp = {}, []
    if pp.n_events < _MIN_EVENTS:
        stats["status"] = "insufficient_events"
    else:
        try:
            density = run_length_density(pp)
            intervals = interevent_times(pp)
            cv_band, lv_band, band = cell_bands(
                pp, task["taus"], SurrogateConfig(task["seed_cell"], config.n_surrogates))
            curve = _curve_with_reasons(band.taus, band.observed, pp.duration)
            dp = departure(curve, band)

            fit_stats = None
            fit_message = None
            try:
                fit = fit_power_law(curve)
                fit_stats = {
                    "alpha": fit.alpha,
                    "tau1_seconds": fit.tau1,
                    "fit_lo": fit.fit_lo,
                    "fit_hi": fit.fit_hi,
                    "r_squared": fit.r_squared,
                    "n_used": fit.n_used,
                    "n_excluded": fit.n_excluded,
                    "detected": fit.detected,
                }
            except ValueError as exc:
                fit_message = str(exc)

            tables = {
                "af.csv": _af_table(curve, band, dp),
                "band.csv": _csv_text(
                    ["tau_seconds", "band_lo", "band_hi", "n_samples"],
                    zip(band.taus.tolist(), band.lo.tolist(), band.hi.tolist(),
                        band.n_samples.tolist())),
                "pm.csv": _csv_text(["m", "probability"],
                                    zip(density.lengths.tolist(),
                                        density.probs.tolist())),
            }
            stats.update({
                "status": "ok" if curve.n_defined > 0 else "undefined_af",
                "mean_interevent_seconds": mean_interevent_time(intervals),
                "cv": _scalar_band_payload(cv_band),
                "lv": _scalar_band_payload(lv_band),
                "af_reasons": {repr(k): v for k, v in curve.reasons.items()},
                "power_law_fit": fit_stats,
                "fit_message": fit_message,
            })
        except Exception as exc:  # fault isolation: one broken cell never
            stats["status"] = "error"  # takes the rest of the matrix down
            stats["message"] = f"{type(exc).__name__}: {exc}"
            tables, dp = {}, []

    task["cell_dir"].mkdir(parents=True, exist_ok=True)
    _write_json(task["cell_dir"] / "stats.json", stats)
    for name, text in tables.items():
        _atomic_write_text(task["cell_dir"] / name, text)
    return {"dp": dp, **{key: stats.get(key) for key in (
        "percentile", "min_run_length", "status", "n_events",
        "mean_interevent_seconds")}}


# ---------------------------------------------------------------------------
# Deterministic output writing.


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(path: Path, payload) -> None:
    _atomic_write_text(path, json.dumps(_jsonable(payload), indent=2,
                                        sort_keys=True) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if not math.isfinite(value) else repr(value)
    return str(value)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], rows) -> None:
    _atomic_write_text(path, _csv_text(header, rows))


def _af_table(curve, band=None, dp=()) -> str:
    """CSV text of an Allan-factor curve; with a band, its edges and the
    departures ``dp`` as ``(tau, value)`` pairs, empty at other taus."""
    header, columns = ["tau_seconds", "af"], [curve.taus.tolist(), curve.af.tolist()]
    if band is not None:
        dp = dict(dp)
        header += ["band_lo", "band_hi", "dp"]
        columns += [band.lo.tolist(), band.hi.tolist(),
                    [dp.get(tau) for tau in columns[0]]]
    return _csv_text(header, zip(*columns))


# ---------------------------------------------------------------------------
# Station and batch drivers.


def _cell_pool(config: AnalysisConfig):
    """The process pool cells run on; a null context (yielding ``None``)
    for one worker.  ``workers=None`` means the machine's CPU count."""
    workers = config.workers or os.cpu_count() or 1
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def run_station(series: SampledSeries, meta: StationMeta | None,
                config: AnalysisConfig, executor=None) -> dict:
    """Run the full analysis matrix for one station and write its outputs.

    Creates ``<output_dir>/<station_id>/`` holding the per-percentile
    event lists, one directory per (percentile, min run length) cell
    with ``af.csv``, ``band.csv``, ``pm.csv`` and ``stats.json``, and a
    ``summary.json`` enumerating every attempted cell with its status.
    Cells run on ``executor`` when one is given, else on a pool of
    ``config.workers``, and each writes its own directory where it runs;
    this process writes the event lists while the cells run, then the
    summary.

    Raises ValueError before writing if the station id names no
    directory of its own.  Returns the summary dict plus the thresholds,
    densities and cell records a batch reads for cross-station products.
    """
    _check_station_id(series.station_id)
    taus = config.tau_grid.resolve(series.dt, series.n_samples * series.dt)
    height = meta.height if meta is not None else None
    station_dir = Path(config.output_dir) / series.station_id
    thresholds: dict[float, float] = {}
    processes: dict[float, MarkedPointProcess] = {}
    densities: dict[float, RunLengthDensity] = {}
    tasks = []
    percentiles = sorted(config.percentiles)
    for pct, threshold in zip(percentiles, _thresholds(series, percentiles)):
        pp = extract_runs(series, threshold)
        thresholds[pct] = threshold.value
        processes[pct] = pp
        if pp.n_events:
            densities[pct] = run_length_density(pp)
        for lm in sorted(config.min_run_lengths):
            tasks.append({
                "station_id": series.station_id,
                "percentile": pct,
                "min_run_length": lm,
                "pp": filter_by_min_length(pp, lm),
                "taus": taus,
                "config": config,
                "seed_cell": derive_cell_seed(config.seed, series.station_id,
                                              pct, lm),
                "height_m": height,
                "cell_dir": (station_dir / percentile_label(pct)
                             / run_length_label(lm)),
            })
    station_dir.mkdir(parents=True, exist_ok=True)
    with (_cell_pool(config) if executor is None else nullcontext(executor)) as pool:
        # Pooled cells are all submitted here and run while the events
        # are written; serial ones run when the records are collected.
        results = (map if pool is None else pool.map)(_evaluate_cell, tasks)
        for pct, pp in processes.items():
            write_events(pp, station_dir / f"events_{percentile_label(pct)}.csv")
        records = list(results)

    cells_index = [{
        "percentile": record["percentile"],
        "min_run_length": record["min_run_length"],
        "status": record["status"],
        "n_events": record["n_events"],
        "path": f"{percentile_label(record['percentile'])}/"
                f"{run_length_label(record['min_run_length'])}",
    } for record in records]

    summary = {
        "station_id": series.station_id,
        "height_m": height,
        "label": meta.label if meta is not None else None,
        "n_samples": series.n_samples,
        "dt": series.dt,
        "t0": series.t0.isoformat().replace("+00:00", "Z"),
        "gap_fraction": series.gap_fraction,
        "thresholds": {percentile_label(p): v for p, v in thresholds.items()},
        "cells": cells_index,
    }
    _write_json(station_dir / "summary.json", summary)
    return {
        "summary": summary,
        "densities": densities,
        "thresholds": thresholds,
        "records": records,
    }


def run_batch(station_dir: str | Path, meta_path: str | Path,
              config: AnalysisConfig) -> dict:
    """Analyse every station CSV in a directory and build cross products.

    Stations without metadata are skipped with a warning, as are
    stations whose series cannot be parsed or thresholded, and stations
    one of whose cells killed its worker process (the stations that
    remain get a fresh pool); remaining stations still run (partial
    results).  With more than one worker, each series is parsed in the
    pool that runs the cells, one station ahead of them, so at most two
    parsed series are held at once; see :func:`_run_stations`.
    Cross-station products land in ``<output_dir>/cross/``: the
    threshold-vs-height table, and per percentile the averaged run-length
    density, mean interevent time by height per min length, and one
    departure table by station, min length and tau.
    """
    station_dir = Path(station_dir)
    meta_by_id = {m.station_id: m for m in parse_station_meta(meta_path)}
    series_paths = sorted(station_dir.glob("*.csv"))
    if not series_paths:
        raise ValueError(f"no station CSVs found in {station_dir}")
    out_root = Path(config.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    _write_json(out_root / "config.json", config.as_mapping())

    outcomes = dict(_run_stations(
        [(p, p.stem) for p in series_paths if p.stem in meta_by_id],
        meta_by_id, config))
    results: dict[str, dict] = {}
    stations_index: list[dict] = []
    warnings: list[str] = []
    for path in series_paths:
        station_id = path.stem
        outcome = outcomes.get(station_id)
        if outcome is None:
            warnings.append(f"station {station_id}: no metadata, skipped")
            stations_index.append({"station_id": station_id,
                                   "status": "skipped_no_metadata"})
        elif isinstance(outcome, str):
            warnings.append(f"station {station_id}: {outcome}")
            stations_index.append({"station_id": station_id,
                                   "status": "failed", "message": outcome})
        else:
            results[station_id] = outcome
            stations_index.append({"station_id": station_id, "status": "ok"})

    _write_cross_products(out_root / "cross", results, meta_by_id, config)

    cell_statuses = [c["status"] for r in results.values() for c in r["records"]]
    partial = (bool(warnings)
               or any(s != "ok" for s in cell_statuses)
               or not results)
    batch_summary = {
        "stations": stations_index,
        "warnings": warnings,
        "n_cells": len(cell_statuses),
        "n_cells_ok": sum(s == "ok" for s in cell_statuses),
        "partial": partial,
    }
    _write_json(out_root / "batch.json", batch_summary)
    return batch_summary


def _parse_station(path: Path, station_id: str, dt: float) -> SampledSeries:
    # A station's series, parsed in a pool worker.  ``parse_series`` is
    # looked up when this runs, so a patched one reaches forked workers.
    return parse_series(path, station_id=station_id, dt=dt)


def _run_stations(stations: list[tuple[Path, str]], meta_by_id: dict,
                  config: AnalysisConfig):
    """Parse and run each ``(path, station_id)`` in turn, yielding the
    station id with its :func:`run_station` result, or with the message
    of the ``ValueError`` or ``BrokenProcessPool`` that failed it.  A
    failed station's output directory is removed first, so no events or
    finished cells are left without a ``summary.json``.

    One worker parses inline.  A pool parses station k+1 while station
    k's cells run: its parse is submitted before them (station 0's and
    1's before any cell), so at most two parsed series are held.  A
    broken pool is replaced and fails the station it hit, unless the
    next station's parse broke with it and so may be what broke it; the
    station then runs once more on the fresh pool with no parse in
    flight, and fails only if that breaks too.
    """
    with ExitStack() as pools:
        executor = pools.enter_context(_cell_pool(config))
        parses = {}   # station index -> future of its parsed series

        def submit_parse(k: int) -> None:
            if executor is not None and k < len(stations) and k not in parses:
                parses[k] = executor.submit(_parse_station, *stations[k],
                                            config.dt)

        for k, (path, station_id) in enumerate(stations):
            series, alone = None, False
            while True:
                try:
                    if series is None:   # else a rerun alone, cells only
                        submit_parse(k)
                        if not alone:
                            submit_parse(k + 1)
                        series = (_parse_station(path, station_id, config.dt)
                                  if executor is None else parses.pop(k).result())
                    outcome = run_station(series, meta_by_id[station_id],
                                          config, executor)
                except ValueError as exc:
                    outcome = str(exc)
                except BrokenProcessPool as exc:
                    # Shutting the broken pool down settles every future
                    # it held; a parse that broke is submitted again.
                    executor.shutdown()
                    executor = pools.enter_context(_cell_pool(config))
                    broken = [j for j, f in parses.items()
                              if isinstance(f.exception(), BrokenProcessPool)]
                    for j in broken:
                        del parses[j]
                    if not alone and k + 1 in broken:
                        alone = True
                        continue
                    outcome = str(exc)
                break
            series = None
            if isinstance(outcome, str):
                shutil.rmtree(Path(config.output_dir) / station_id,
                              ignore_errors=True)
            yield station_id, outcome


def _write_cross_products(cross_dir: Path, results: dict, meta_by_id: dict,
                          config: AnalysisConfig) -> None:
    cross_dir.mkdir(parents=True, exist_ok=True)
    station_ids = sorted(results)

    rows = []
    for sid in station_ids:
        for pct in sorted(config.percentiles):
            rows.append((sid, meta_by_id[sid].height, pct,
                         results[sid]["thresholds"][pct]))
    _write_csv(cross_dir / "thresholds_vs_height.csv",
               ["station_id", "height_m", "percentile", "threshold"], rows)

    for pct in sorted(config.percentiles):
        label = percentile_label(pct)
        densities = [results[sid]["densities"][pct] for sid in station_ids
                     if pct in results[sid]["densities"]]
        if densities:
            mean_density = average_density(densities)
            _write_csv(cross_dir / f"mean_pm_{label}.csv", ["m", "probability"],
                       zip(mean_density.lengths.tolist(),
                           mean_density.probs.tolist()))

        # Station by station, each station's cells in min-length order.
        cells = [(sid, meta_by_id[sid].height, record) for sid in station_ids
                 for record in results[sid]["records"]
                 if record["percentile"] == pct]
        _write_csv(cross_dir / f"mean_interevent_vs_height_{label}.csv",
                   ["station_id", "height_m", "min_run_length",
                    "mean_interevent_seconds"],
                   [(sid, height, p["min_run_length"], p["mean_interevent_seconds"])
                    for sid, height, p in cells
                    if p["status"] in ("ok", "undefined_af")])
        _write_csv(cross_dir / f"departure_{label}.csv",
                   ["station_id", "height_m", "min_run_length", "tau_seconds",
                    "dp"],
                   [(sid, height, p["min_run_length"], tau, value)
                    for sid, height, p in cells if p["status"] == "ok"
                    for tau, value in p["dp"]])
