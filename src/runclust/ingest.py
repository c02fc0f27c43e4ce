"""Reading and writing regularly sampled station series.

Series CSVs have the header ``timestamp,value`` with ISO-8601 UTC
timestamps, one row per sample, rows sorted in time.  A parsed series
lives on the regular grid implied by its first timestamp and the
sampling step ``dt``: grid slots without a row, and rows whose value
field is empty or NaN, are recorded in an explicit boolean mask.  The
mask is the only authority on missingness; no finite value is ever
treated as a sentinel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

__all__ = [
    "ParseError",
    "SampledSeries",
    "StationMeta",
    "parse_series",
    "parse_station_meta",
    "write_series",
]


class ParseError(ValueError):
    """Malformed input data, pointing at the offending file and line."""

    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None):
        prefix = ""
        if path is not None:
            prefix = str(path)
            if line is not None:
                prefix += f", line {line}"
            prefix += ": "
        super().__init__(prefix + message)
        self.path = None if path is None else str(path)
        self.line = line


@dataclass(frozen=True, eq=False)
class SampledSeries:
    """A regularly sampled scalar series with an explicit missing mask.

    Sample ``k`` corresponds to the instant ``t0 + k*dt``.  ``values``
    holds NaN at missing slots so that accidental unmasked use fails
    loudly; ``missing`` is the authoritative mask.

    Parameters
    ----------
    station_id : str
        Identifier of the originating station.
    t0 : datetime
        Timezone-aware UTC instant of sample 0.
    dt : float
        Sampling step in seconds, > 0 (600 for 10-minute data).
    values : ndarray
        Sample values, NaN where missing.
    missing : ndarray of bool
        True where the slot has no observation.
    """

    station_id: str
    t0: datetime
    dt: float
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        missing = np.asarray(self.missing, dtype=bool)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a non-empty 1-D array")
        if missing.shape != values.shape:
            raise ValueError("missing mask must match values in shape")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t0.tzinfo is None or self.t0.utcoffset() != timedelta(0):
            raise ValueError("t0 must be timezone-aware UTC")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledSeries):
            return NotImplemented
        return (
            self.station_id == other.station_id
            and self.t0 == other.t0
            and self.dt == other.dt
            and np.array_equal(self.missing, other.missing)
            and np.array_equal(self.values[~self.missing],
                               other.values[~other.missing])
        )

    @property
    def n_samples(self) -> int:
        return self.values.size

    @property
    def n_missing(self) -> int:
        return int(self.missing.sum())

    @property
    def gap_fraction(self) -> float:
        """Fraction of grid slots without an observation."""
        return self.n_missing / self.n_samples

    @property
    def duration(self) -> float:
        """Covered time span in seconds, one ``dt`` per sample."""
        return self.n_samples * self.dt

    def non_missing_values(self) -> np.ndarray:
        return self.values[~self.missing]


@dataclass(frozen=True)
class StationMeta:
    """Station metadata: identifier, height in metres a.s.l., optional label."""

    station_id: str
    height: float
    label: str | None = None


def _parse_timestamp(text: str, path, line: int) -> datetime:
    # ISO-8601, UTC only; a trailing Z and an explicit +00:00 are equivalent,
    # a naive stamp is taken as UTC per the file contract.
    try:
        stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"malformed timestamp {text!r}", path, line) from None
    if stamp.tzinfo is None:
        return stamp.replace(tzinfo=timezone.utc)
    if stamp.utcoffset() != timedelta(0):
        raise ParseError(f"timestamp {text!r} is not UTC", path, line)
    return stamp


def parse_series(path: str | Path, station_id: str, dt: float = 600.0) -> SampledSeries:
    """Parse a station CSV into a :class:`SampledSeries`.

    The grid starts at the first row's timestamp.  Every later timestamp
    is snapped to its nearest slot and must sit within ``dt/2`` of it;
    slots no row maps to become missing, as do rows with an empty or NaN
    value field.

    Parameters
    ----------
    path : str or Path
        CSV file with header ``timestamp,value``.
    station_id : str
        Identifier recorded on the returned series.
    dt : float
        Sampling step in seconds.

    Returns
    -------
    SampledSeries

    Raises
    ------
    ParseError
        On an unreadable file, bad header, malformed row, duplicate or
        unsorted timestamp, off-grid timestamp, or negative value.  The
        message carries the file and line number.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    path = Path(path)
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}", path) from exc

    slots: list[int] = []
    row_values: list[float] = []
    row_missing: list[bool] = []
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "value"]:
            raise ParseError("expected header 'timestamp,value'", path, 1)
        t0 = None
        t0_epoch = 0.0
        prev_slot = -1
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", path, line)
            stamp = _parse_timestamp(row[0], path, line)
            if t0 is None:
                t0 = stamp
                t0_epoch = stamp.timestamp()
            offset = stamp.timestamp() - t0_epoch
            slot = round(offset / dt)
            if slot < 0:
                raise ParseError("timestamp precedes the first row", path, line)
            if abs(offset - slot * dt) > dt / 2:
                raise ParseError(
                    f"timestamp off the sampling grid by more than dt/2", path, line)
            if slot == prev_slot:
                raise ParseError("duplicate timestamp", path, line)
            if slot < prev_slot:
                raise ParseError("timestamps not sorted", path, line)
            prev_slot = slot

            field = row[1].strip()
            try:
                value = float(field) if field else math.nan
            except ValueError:
                raise ParseError(f"malformed value {row[1]!r}", path, line) from None
            if value < 0:
                raise ParseError(f"negative value {value!r}", path, line)
            if math.isinf(value):
                raise ParseError(f"infinite value {row[1]!r}", path, line)
            slots.append(slot)
            row_values.append(value)
            row_missing.append(math.isnan(value))

    if t0 is None:
        raise ParseError("no data rows", path)

    n_samples = prev_slot + 1
    values = np.full(n_samples, np.nan)
    missing = np.ones(n_samples, dtype=bool)
    idx = np.asarray(slots, dtype=np.intp)
    values[idx] = row_values
    missing[idx] = row_missing
    return SampledSeries(station_id=station_id, t0=t0, dt=float(dt),
                         values=values, missing=missing)


def write_series(series: SampledSeries, path: str | Path) -> None:
    """Write a series back to CSV, missing slots as rows with an empty value.

    Inverse of :func:`parse_series`: reparsing the written file with the
    same ``dt`` reproduces the series exactly.
    """
    path = Path(path)
    t0 = series.t0
    dt = series.dt
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "value"])
        for k in range(series.n_samples):
            stamp = (t0 + timedelta(seconds=k * dt)).isoformat()
            stamp = stamp.replace("+00:00", "Z")
            if series.missing[k]:
                writer.writerow([stamp, ""])
            else:
                writer.writerow([stamp, repr(float(series.values[k]))])


def parse_station_meta(path: str | Path) -> list[StationMeta]:
    """Parse station metadata from a CSV with header ``station_id,height``.

    A third ``label`` column is optional.  Duplicate station ids and
    non-numeric heights are errors.
    """
    path = Path(path)
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}", path) from exc

    out: list[StationMeta] = []
    seen: set[str] = set()
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", path, 1)
        header = [h.strip() for h in header]
        if header[:2] != ["station_id", "height"] or len(header) > 3 or (
                len(header) == 3 and header[2] != "label"):
            raise ParseError("expected header 'station_id,height[,label]'", path, 1)
        has_label = len(header) == 3
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                                 path, line)
            station_id = row[0].strip()
            if not station_id:
                raise ParseError("empty station_id", path, line)
            if station_id in seen:
                raise ParseError(f"duplicate station_id {station_id!r}", path, line)
            seen.add(station_id)
            try:
                height = float(row[1])
            except ValueError:
                raise ParseError(f"malformed height {row[1]!r}", path, line) from None
            label = row[2].strip() if has_label and row[2].strip() else None
            out.append(StationMeta(station_id=station_id, height=height, label=label))
    return out
