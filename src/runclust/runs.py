"""Threshold-run extraction.

A run is a maximal block of consecutive samples strictly above a
threshold.  Each run becomes one event of a marked temporal point
process: the event time is the first sample of the block, the mark is
the block length in samples.  Missing samples terminate runs and never
belong to one.

Event times are seconds on the series' own axis: sample ``k`` sits at
``k*dt`` and the observation window is ``[0, n_samples*dt)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import ParseError, SampledSeries, _open_csv

__all__ = [
    "MarkedPointProcess",
    "ThresholdSpec",
    "compute_threshold",
    "extract_runs",
    "filter_by_min_length",
    "read_events",
    "write_events",
]


@dataclass(frozen=True)
class ThresholdSpec:
    """A threshold value, optionally tagged with the percentile it realises."""

    value: float
    percentile: float | None = None

    def __post_init__(self):
        if self.percentile is not None and not 0.0 < self.percentile < 1.0:
            raise ValueError("percentile must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class MarkedPointProcess:
    """Run events on an observation window.

    Parameters
    ----------
    times : ndarray
        Event times in seconds, strictly increasing, inside the window.
    lengths : ndarray of int
        Run lengths in samples, all >= 1, aligned with ``times``.
    window_start, window_end : float
        Observation window ``[window_start, window_end)``.
    dt : float
        Sampling step of the originating grid in seconds; 0 marks a
        continuous-time process (synthetic or surrogate events).
    station_id : str
        Identifier of the originating series.
    threshold : ThresholdSpec or None
        Threshold that produced the runs, if any.
    gap_fraction : float
        Fraction of missing samples in the originating series.
    min_run_length : int
        Smallest run length admitted into ``lengths`` (1 = unfiltered).

    Notes
    -----
    For grid processes (``dt > 0``) consecutive events are separated by
    at least one below-threshold or missing sample, i.e.
    ``times[i+1] >= times[i] + (lengths[i]+1)*dt``, which is the
    maximality of runs.
    """

    times: np.ndarray
    lengths: np.ndarray
    window_start: float
    window_end: float
    dt: float
    station_id: str = ""
    threshold: ThresholdSpec | None = None
    gap_fraction: float = 0.0
    min_run_length: int = 1

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if times.ndim != 1 or lengths.shape != times.shape:
            raise ValueError("times and lengths must be matching 1-D arrays")
        if not (np.isfinite(self.window_start) and np.isfinite(self.window_end)):
            raise ValueError("window edges must be finite")
        if not self.window_end > self.window_start:
            raise ValueError("window must have positive duration")
        if not np.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if self.dt < 0:
            raise ValueError("dt must be >= 0")
        if self.min_run_length < 1:
            raise ValueError("min_run_length must be >= 1")
        if not 0.0 <= self.gap_fraction <= 1.0:
            raise ValueError("gap_fraction must lie in [0, 1]")
        if times.size:
            # A NaN compares false, so one anywhere fails this test too;
            # only a failure pays for finding which rule was broken.
            if not ((times[1:] > times[:-1]).all()
                    and self.window_start <= times[0]
                    and times[-1] < self.window_end):
                if np.isnan(times).any():
                    raise ValueError("event times must be finite")
                if np.any(times[1:] <= times[:-1]):
                    raise ValueError("event times must be strictly increasing")
                raise ValueError("event times must lie inside the window")
            shortest = lengths.min()
            if shortest < 1:
                raise ValueError("run lengths must be >= 1")
            if shortest < self.min_run_length:
                raise ValueError("run length below the declared minimum")
            if self.dt > 0:
                if times[-1] + (lengths[-1] - 1) * self.dt > self.window_end:
                    raise ValueError("final run extends past the window end")
                gaps = np.diff(times) - (lengths[:-1] + 1) * self.dt
                if np.any(gaps < -1e-9 * self.dt):
                    raise ValueError("runs overlap or touch; events must be "
                                     "separated by a below-threshold sample")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "lengths", lengths)

    @property
    def n_events(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return self.window_end - self.window_start


def compute_threshold(series: SampledSeries, percentile: float,
                      min_count: int = 100) -> ThresholdSpec:
    """Percentile threshold over the non-missing samples of a series.

    Parameters
    ----------
    series : SampledSeries
    percentile : float
        Level in (0, 1), e.g. 0.95.
    min_count : int
        Smallest acceptable number of non-missing samples; below the
        floor the quantile is too uncertain to threshold on.

    Returns
    -------
    ThresholdSpec
    """
    return _thresholds(series, (percentile,), min_count)[0]


def _thresholds(series: SampledSeries, percentiles, min_count: int = 100
                ) -> list[ThresholdSpec]:
    # compute_threshold at each level, in the order given, from one
    # np.quantile call: one selection pass over the samples serves every
    # level, each with the bits a call for that level alone gives.
    levels = np.asarray(percentiles, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError("percentile must lie in (0, 1)")
    sample = series.non_missing_values()
    if sample.size < min_count:
        raise ValueError(
            f"need at least {min_count} non-missing samples, have {sample.size}")
    values = np.quantile(sample, levels, method="linear").tolist()
    return [ThresholdSpec(value=value, percentile=percentile)
            for value, percentile in zip(values, percentiles)]


def extract_runs(series: SampledSeries, threshold: ThresholdSpec) -> MarkedPointProcess:
    """Extract maximal runs of samples strictly above a threshold.

    Missing samples terminate runs and never belong to one.  A run
    truncated by the end of the series still counts, with its observed
    length.

    Returns
    -------
    MarkedPointProcess
        Window ``[0, n_samples*dt)``; the event time of a run is the
        instant of its first sample, ``k*dt``.
    """
    above = ~series.missing & (series.values > threshold.value)
    padded = np.concatenate(([False], above, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)  # one past the last sample of each run
    return MarkedPointProcess(
        times=starts * series.dt,
        lengths=ends - starts,
        window_start=0.0,
        window_end=series.n_samples * series.dt,
        dt=series.dt,
        station_id=series.station_id,
        threshold=threshold,
        gap_fraction=series.gap_fraction,
    )


def filter_by_min_length(pp: MarkedPointProcess, min_length: int) -> MarkedPointProcess:
    """Keep only events whose run length is at least ``min_length``.

    Window and provenance metadata are unchanged; the applied floor is
    recorded in ``min_run_length``.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    keep = pp.lengths >= min_length
    return dataclasses.replace(
        pp, times=pp.times[keep], lengths=pp.lengths[keep],
        min_run_length=max(pp.min_run_length, int(min_length)))


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_events(pp: MarkedPointProcess, path: str | Path) -> None:
    """Write events to CSV (``event_time,run_length``) plus a JSON sidecar.

    The sidecar records the window, sampling step, station, threshold
    and gap fraction, so the process can be reconstructed losslessly.
    Both texts are built before either file is touched, and each file is
    replaced atomically.
    """
    path = Path(path)
    lines = ["event_time,run_length"]
    lines += [f"{t!r},{m}" for t, m in zip(pp.times.tolist(), pp.lengths.tolist())]
    meta = {
        "format": "runclust-events",
        "station_id": pp.station_id,
        "window_start": pp.window_start,
        "window_end": pp.window_end,
        "dt": pp.dt,
        "gap_fraction": pp.gap_fraction,
        "min_run_length": pp.min_run_length,
        "threshold": None if pp.threshold is None else {
            "value": pp.threshold.value,
            "percentile": pp.threshold.percentile,
        },
        "quantile_method": "linear",
    }
    csv_text = "\n".join(lines) + "\n"
    sidecar_text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    _atomic_write_text(path, csv_text)
    _atomic_write_text(_sidecar_path(path), sidecar_text)


def read_events(path: str | Path) -> MarkedPointProcess:
    """Read an events CSV written by :func:`write_events`.

    The JSON sidecar next to the CSV is required; it carries the window
    and metadata without which the process is ambiguous.
    """
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise ValueError(f"missing events sidecar {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:  # undecodable text or malformed JSON
        raise ParseError(f"cannot parse events sidecar: {exc}", sidecar) from None
    if not isinstance(meta, dict):
        raise ValueError(f"events sidecar {sidecar} must hold a JSON object")
    for key in ("window_start", "window_end", "dt"):
        if key not in meta:
            raise ValueError(f"events sidecar {sidecar} lacks {key!r}")
        if not isinstance(meta[key], (int, float)) or isinstance(meta[key], bool):
            raise ParseError(f"{key!r} must be a number, got {meta[key]!r}",
                             sidecar)
        try:
            finite = math.isfinite(meta[key])
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ParseError(f"{key!r} must be finite, got {meta[key]!r}",
                             sidecar)

    times: list[float] = []
    lengths: list[int] = []
    row_lines: list[int] = []
    with _open_csv(path) as handle:
        if handle.readline().strip() != "event_time,run_length":
            raise ParseError("expected header 'event_time,run_length'", path, 1)
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                t_text, m_text = line.split(",")
                times.append(float(t_text))
                lengths.append(int(m_text))
            except ValueError:
                raise ParseError(f"malformed event row {line!r}", path,
                                 number) from None
            row_lines.append(number)

    # The process checks these too, but only a row here can name its line.
    start, end = meta["window_start"], meta["window_end"]
    event_times = np.asarray(times, dtype=float)
    nonfinite = np.flatnonzero(~np.isfinite(event_times))
    if nonfinite.size:
        raise ParseError("event time must be finite", path,
                         row_lines[nonfinite[0]])
    unordered = np.flatnonzero(event_times[1:] <= event_times[:-1])
    if unordered.size:
        raise ParseError("event times must be strictly increasing", path,
                         row_lines[unordered[0] + 1])
    outside = np.flatnonzero((event_times < start) | (event_times >= end))
    if outside.size:
        raise ParseError(f"event time outside the window [{start}, {end})",
                         path, row_lines[outside[0]])

    threshold = None
    if meta.get("threshold") is not None:
        threshold = ThresholdSpec(value=meta["threshold"]["value"],
                                  percentile=meta["threshold"]["percentile"])
    return MarkedPointProcess(
        times=event_times,
        lengths=np.asarray(lengths, dtype=np.int64),
        window_start=start,
        window_end=end,
        dt=meta["dt"],
        station_id=meta.get("station_id", ""),
        threshold=threshold,
        gap_fraction=meta.get("gap_fraction", 0.0),
        min_run_length=meta.get("min_run_length", 1),
    )
