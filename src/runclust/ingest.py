"""Reading and writing regularly sampled station series.

Series CSVs have the header ``timestamp,value`` with ISO-8601 UTC
timestamps, one row per sample, rows sorted in time.  A parsed series
lives on the regular grid implied by its first timestamp and the
sampling step ``dt``: grid slots without a row, and rows whose value
field is empty or NaN, are recorded in an explicit boolean mask.  The
mask is the only authority on missingness; no finite value is ever
treated as a sentinel.

:func:`write_series` stamps rows ``YYYY-MM-DDTHH:MM:SSZ`` (with
microseconds where they are not zero).  :func:`parse_series` reads any
ISO-8601 UTC form by one of two routes.  A file in the form
:func:`write_series` writes is decoded with array arithmetic, block by
block, with no Python-level loop over the rows.  Any other file, and
any file with a faulty row, goes through one row loop over
``csv.reader``, which holds every fault rule and message; on a year of
ten-minute rows it takes about 2.7 times as long.
"""

from __future__ import annotations

import csv
import math
from array import array
from contextlib import contextmanager
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


@contextmanager
def _open_csv(path: Path):
    """The open text of a CSV file, decoded as UTF-8 with or without a
    leading byte-order mark, as spreadsheet exports often write.  A
    file that cannot be opened or decoded raises :class:`ParseError`
    naming it; the decoder's byte offset counts from the chunk it was
    decoding, not from the start of the file, so it is left out."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}", path) from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot decode text as {exc.encoding}: "
                             f"{exc.reason}", path) from exc


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


# Block size of write_series, in rows: it bounds the temporaries to a few
# hundred kilobytes, whatever the series' length.
_CHUNK_ROWS = 4096
# Block size of parse_series's block route, in characters, for the same bound.
_CHUNK_CHARS = 1 << 17

_DIGIT_COLS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":", 19: "Z"}
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _canonical_epoch(stamps) -> np.ndarray | None:
    """Epoch seconds of the stamps, or ``None`` unless every one is in the
    form ``YYYY-MM-DDTHH:MM:SSZ`` and names a real instant (year >= 1,
    month lengths and leap years checked)."""
    n = len(stamps)
    ok = np.fromiter(map(len, stamps), np.intp, n) == 20
    # U20 truncates longer stamps, which the length mask already rejects.
    chars = np.array(stamps, dtype="U20").view(np.uint32).reshape(n, 20)
    for col, sep in _SEPARATORS.items():
        ok &= chars[:, col] == ord(sep)
    digits = chars[:, _DIGIT_COLS].astype(np.int64) - ord("0")
    ok &= ((digits >= 0) & (digits <= 9)).all(axis=1)
    tens = digits[:, 0::2] * 10 + digits[:, 1::2]   # YY YY MM DD hh mm ss
    year = tens[:, 0] * 100 + tens[:, 1]
    month, day, hour, minute, second = tens[:, 2:].T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59))
    if not ok.all():
        return None
    # Days from 1970-01-01 to the civil date (Hinnant's days_from_civil).
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * (month + np.where(month > 2, -3, 9)) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    return days * 86400 + hour * 3600 + minute * 60 + second


def _parse_values(fields) -> np.ndarray | None:
    """Value fields as floats, NaN where empty, or ``None`` if one is
    malformed.  ``float`` decides what parses, so whitespace, ``nan``,
    exponents and underscores are accepted."""
    values = np.empty(len(fields))
    for i, text in enumerate(fields):
        field = text.strip()
        try:
            values[i] = float(field) if field else math.nan
        except ValueError:
            return None
    return values


def _split_block(text: str) -> tuple[list, list] | None:
    """The stamps and value fields of a block of whole lines, split with
    ``str.split``, or ``None`` unless that split is the one ``csv.reader``
    makes: every line holds one comma, no quote and no field longer than
    ``csv.field_size_limit()``."""
    if '"' in text:
        return None
    text = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n")
    chars = np.frombuffer(text.encode(), np.uint8)
    breaks = np.flatnonzero((chars == ord(",")) | (chars == ord("\n")))
    seps = chars[breaks]
    if (seps.size % 2 == 0 or (seps[0::2] != ord(",")).any()
            or (seps[1::2] != ord("\n")).any()
            or np.diff(breaks, prepend=-1, append=chars.size).max()
            > csv.field_size_limit() + 1):
        return None
    flat = text.replace("\n", ",").split(",")
    return flat[0::2], flat[1::2]


def _parse_blocks(handle, path: Path, dt: float) -> tuple | None:
    """The block route: the grid's ``t0``, and the slots and values of the
    data rows of an open series CSV in blocks of whole lines, or ``None``
    at the first block that is not clean.

    A block is clean when :func:`_split_block` splits it, every stamp is
    in the form :func:`_canonical_epoch` decodes, and no row has a fault:
    each slot lies past the one before, within ``dt/2`` of its stamp, and
    each value parses and is neither negative nor infinite.
    """
    t0 = None
    t0_epoch = 0
    prev_slot = -1.0
    slot_blocks: list[np.ndarray] = []
    value_blocks: list[np.ndarray] = []
    while text := handle.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += handle.readline()
        split = _split_block(text)
        if split is None:
            return None
        stamps, fields = split
        seconds = _canonical_epoch(stamps)
        values = _parse_values(fields)
        if seconds is None or values is None:
            return None
        if t0 is None:
            t0, t0_epoch = _parse_timestamp(stamps[0], path, 2), seconds[0]
        # Float slots compare exactly as the integers ``round`` gives.
        offset = (seconds - t0_epoch).astype(float)
        slots = np.rint(offset / dt)
        if ((np.diff(slots, prepend=prev_slot) <= 0).any()
                or (np.abs(offset - slots * dt) > dt / 2).any()
                or (values < 0).any() or np.isinf(values).any()):
            return None
        prev_slot = slots[-1]
        slot_blocks.append(slots.astype(np.intp))
        value_blocks.append(values)
    return t0, slot_blocks, value_blocks


def _parse_rows(reader, path: Path, dt: float) -> tuple:
    """The row loop: the grid's ``t0``, and the slots and values of the
    rows ``reader`` yields from line 2 on, checked one row at a time in
    the order :func:`parse_series` documents."""
    t0 = None
    t0_epoch = 0.0
    prev_slot = -1
    slots, values = array("q"), array("d")
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", path, line)
        stamp = _parse_timestamp(row[0], path, line)
        if t0 is None:
            t0, t0_epoch = stamp, stamp.timestamp()
        offset = stamp.timestamp() - t0_epoch
        slot = round(offset / dt)
        if slot < 0:
            raise ParseError("timestamp precedes the first row", path, line)
        if abs(offset - slot * dt) > dt / 2:
            raise ParseError("timestamp off the sampling grid by more than dt/2",
                             path, line)
        if slot == prev_slot:
            raise ParseError("duplicate timestamp", path, line)
        if slot < prev_slot:
            raise ParseError("timestamps not sorted", path, line)
        field = row[1].strip()
        try:
            value = float(field) if field else math.nan
        except ValueError:
            raise ParseError(f"malformed value {row[1]!r}", path, line) from None
        if value < 0:
            raise ParseError(f"negative value {value!r}", path, line)
        if math.isinf(value):
            raise ParseError(f"infinite value {row[1]!r}", path, line)
        prev_slot = slot
        slots.append(slot)
        values.append(value)
    return t0, [np.frombuffer(slots, np.int64)], [np.frombuffer(values)]


def parse_series(path: str | Path, station_id: str, dt: float = 600.0) -> SampledSeries:
    """Parse a station CSV into a :class:`SampledSeries`.

    The grid starts at the first row's timestamp.  Every later timestamp
    is snapped to its nearest slot and must sit within ``dt/2`` of it;
    slots no row maps to become missing, as do rows with an empty or NaN
    value field.

    A file takes one of two routes.  Files in the form
    :func:`write_series` writes (stamps ``YYYY-MM-DDTHH:MM:SSZ``, no
    quotes, no blank lines) are read in blocks of whole lines, split
    with ``str.split`` and checked with array arithmetic.  At the first
    block that is not clean (another stamp form such as ``+00:00``,
    naive or fractional seconds, a quote, a blank line, a row without
    two fields, an overlong field or any fault), the file is read again
    from its first data row by a row loop over ``csv.reader``, which
    checks each row with ``datetime.fromisoformat`` and ``float`` and
    reports the first faulty row, with the first of its faults in this
    order: field count, malformed timestamp, timestamp not UTC,
    timestamp before the first row, off the grid, duplicate, unsorted,
    malformed value, negative value, infinite value.  On a year of
    ten-minute rows the row loop takes about 2.7 times as long as the
    block route.

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
        unsorted timestamp, off-grid timestamp, or negative or infinite
        value.  The message carries the file and line number.
    csv.Error
        On a row ``csv.reader`` cannot read, such as a field longer than
        ``csv.field_size_limit()``.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    path = Path(path)
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "value"]:
            raise ParseError("expected header 'timestamp,value'", path, 1)
        parsed = _parse_blocks(handle, path, dt)
        if parsed is None:
            handle.seek(0)
            next(reader)
            parsed = _parse_rows(reader, path, dt)
    t0, slot_blocks, value_blocks = parsed
    if t0 is None:
        raise ParseError("no data rows", path)

    n_samples = int(slot_blocks[-1][-1]) + 1
    values = np.full(n_samples, np.nan)
    missing = np.ones(n_samples, dtype=bool)
    for idx, block in zip(slot_blocks, value_blocks):
        values[idx] = block
        missing[idx] = np.isnan(block)
    return SampledSeries(station_id=station_id, t0=t0, dt=float(dt),
                         values=values, missing=missing)


def _timedelta_us(seconds: np.ndarray) -> np.ndarray:
    """Whole microseconds of ``timedelta(seconds=s)`` for each ``s >= 0``,
    rounded as ``timedelta`` rounds them: the integer part exactly, the
    fraction times 1e6 in float, its leftover half to even."""
    whole = np.trunc(seconds)
    micro = (seconds - whole) * 1e6
    micro_whole = np.trunc(micro)
    leftover = micro - micro_whole
    us = whole.astype(np.int64) * 1_000_000 + micro_whole.astype(np.int64)
    return us + ((leftover > 0.5) | ((leftover == 0.5) & (us % 2 == 1)))


def write_series(series: SampledSeries, path: str | Path) -> None:
    """Write a series back to CSV, missing slots as rows with an empty value.

    Inverse of :func:`parse_series`: reparsing the written file with the
    same ``dt`` reproduces the series exactly.  Row ``k`` is stamped
    ``t0 + timedelta(seconds=k*dt)`` in ISO form with a ``Z`` suffix
    (microseconds only when they are not zero) and holds ``repr`` of the
    value; lines end in CRLF, as the ``csv`` module writes them.  Rows
    are formatted in blocks, with array arithmetic on the stamps.
    """
    path = Path(path)
    t0 = np.datetime64(series.t0.replace(tzinfo=None), "us")
    with open(path, "w", newline="") as handle:
        handle.write("timestamp,value\r\n")
        for start in range(0, series.n_samples, _CHUNK_ROWS):
            k = np.arange(start, min(start + _CHUNK_ROWS, series.n_samples))
            stamps = t0 + _timedelta_us(k * series.dt).astype("timedelta64[us]")
            whole = stamps.astype(np.int64) % 1_000_000 == 0
            text = np.datetime_as_string(stamps, unit="s" if whole.all() else "us")
            if whole.any() and not whole.all():
                text[whole] = np.datetime_as_string(stamps[whole], unit="s")
            values = [repr(v) for v in series.values[k].tolist()]
            for i in np.flatnonzero(series.missing[k]):
                values[i] = ""
            handle.write("".join(f"{stamp}Z,{value}\r\n"
                                 for stamp, value in zip(text.tolist(), values)))


def _check_station_id(station_id: str, path=None, line=None) -> None:
    """Raise ParseError, naming ``path`` and ``line`` if given, unless
    ``station_id`` names a directory of its own: not empty, ``.`` or
    ``..``, and without ``/``, ``\\`` or NUL."""
    if station_id in ("", ".", "..") or any(c in station_id for c in "/\\\0"):
        raise ParseError(f"station_id {station_id!r} cannot name an output "
                         "directory", path, line)


def parse_station_meta(path: str | Path) -> list[StationMeta]:
    """Parse station metadata from a CSV with header ``station_id,height``.

    A third ``label`` column is optional.  Invalid or duplicate station
    ids and non-numeric or non-finite heights are errors.
    """
    path = Path(path)
    out: list[StationMeta] = []
    seen: set[str] = set()
    with _open_csv(path) as handle:
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
            _check_station_id(station_id, path, line)
            if station_id in seen:
                raise ParseError(f"duplicate station_id {station_id!r}", path, line)
            seen.add(station_id)
            try:
                height = float(row[1])
            except ValueError:
                raise ParseError(f"malformed height {row[1]!r}", path, line) from None
            if not math.isfinite(height):
                raise ParseError(f"non-finite height {row[1]!r}", path, line)
            label = row[2].strip() if has_label and row[2].strip() else None
            out.append(StationMeta(station_id=station_id, height=height, label=label))
    return out
