"""Tests for series and metadata parsing."""

import csv
import math
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from runclust import ParseError, SampledSeries, StationMeta, ingest, parse_series, \
    parse_station_meta, write_series


def _write(path, text):
    path.write_text(text)
    return path


def test_parse_series_direct_grid(tmp_path):
    path = _write(tmp_path / "s.csv",
                  "timestamp,value\n"
                  "2010-01-01T00:00:00Z,1.0\n"
                  "2010-01-01T00:10:00Z,2.0\n"
                  "2010-01-01T00:20:00Z,3.0\n")
    series = parse_series(path, "S1", dt=600.0)
    assert series.n_samples == 3
    assert series.n_missing == 0
    assert np.array_equal(series.values, [1.0, 2.0, 3.0])
    assert series.t0 == datetime(2010, 1, 1, tzinfo=timezone.utc)
    assert series.dt == 600.0
    assert series.station_id == "S1"


def test_parse_series_gap_fill(tmp_path):
    path = _write(tmp_path / "s.csv",
                  "timestamp,value\n"
                  "2010-01-01T00:00:00Z,1.0\n"
                  "2010-01-01T00:30:00Z,2.0\n")
    series = parse_series(path, "S1", dt=600.0)
    assert series.n_samples == 4
    assert np.array_equal(series.missing, [False, True, True, False])
    assert series.values[0] == 1.0 and series.values[3] == 2.0
    assert np.all(np.isnan(series.values[1:3]))
    assert series.gap_fraction == 0.5


def test_parse_series_grid_completeness(tmp_path):
    # n_samples = 1 + (last_timestamp - t0)/dt even with interior gaps.
    path = _write(tmp_path / "s.csv",
                  "timestamp,value\n"
                  "2010-01-01T00:00:00Z,1.0\n"
                  "2010-01-01T02:00:00Z,2.0\n")
    series = parse_series(path, "S1", dt=600.0)
    assert series.n_samples == 1 + 7200 // 600


def test_parse_series_empty_and_nan_values_missing(tmp_path):
    path = _write(tmp_path / "s.csv",
                  "timestamp,value\n"
                  "2010-01-01T00:00:00Z,\n"
                  "2010-01-01T00:10:00Z,nan\n"
                  "2010-01-01T00:20:00Z,4.5\n"
                  "2010-01-01T00:30:00Z,NaN\n"
                  "2010-01-01T00:40:00Z, NAN \n")
    series = parse_series(path, "S1", dt=600.0)
    assert np.array_equal(series.missing, [True, True, False, True, True])
    assert series.non_missing_values().tolist() == [4.5]


def test_parse_series_negative_value_error(tmp_path):
    path = _write(tmp_path / "s.csv",
                  "timestamp,value\n"
                  "2010-01-01T00:00:00Z,1.0\n"
                  "2010-01-01T00:10:00Z,-1.2\n")
    with pytest.raises(ParseError, match="negative value") as info:
        parse_series(path, "S1", dt=600.0)
    assert info.value.line == 3
    assert "line 3" in str(info.value)


def test_parse_series_infinite_value_error(tmp_path):
    for text in ("inf", "Infinity", " +INF "):
        path = _write(tmp_path / "s.csv",
                      "timestamp,value\n"
                      "2010-01-01T00:00:00Z,1.0\n"
                      "2010-01-01T00:10:00Z,2.0\n"
                      f"2010-01-01T00:20:00Z,{text}\n")
        with pytest.raises(ParseError, match="infinite value") as info:
            parse_series(path, "S1", dt=600.0)
        assert info.value.line == 4
        assert "line 4" in str(info.value)


def test_parse_series_malformed_rows(tmp_path):
    bad_stamp = _write(tmp_path / "a.csv",
                       "timestamp,value\nnot-a-time,1.0\n")
    with pytest.raises(ParseError, match="malformed timestamp"):
        parse_series(bad_stamp, "S1", dt=600.0)

    bad_value = _write(tmp_path / "b.csv",
                       "timestamp,value\n2010-01-01T00:00:00Z,abc\n")
    with pytest.raises(ParseError, match="malformed value") as info:
        parse_series(bad_value, "S1", dt=600.0)
    assert info.value.line == 2

    bad_header = _write(tmp_path / "c.csv", "time,speed\n")
    with pytest.raises(ParseError, match="expected header"):
        parse_series(bad_header, "S1", dt=600.0)

    empty = _write(tmp_path / "d.csv", "timestamp,value\n")
    with pytest.raises(ParseError, match="no data rows"):
        parse_series(empty, "S1", dt=600.0)


def test_parse_series_duplicate_and_unsorted(tmp_path):
    dup = _write(tmp_path / "a.csv",
                 "timestamp,value\n"
                 "2010-01-01T00:00:00Z,1.0\n"
                 "2010-01-01T00:00:00Z,2.0\n")
    with pytest.raises(ParseError, match="duplicate timestamp") as info:
        parse_series(dup, "S1", dt=600.0)
    assert info.value.line == 3

    # Two stamps jittered onto the same grid slot collide as well.
    jitter = _write(tmp_path / "b.csv",
                    "timestamp,value\n"
                    "2010-01-01T00:00:00Z,1.0\n"
                    "2010-01-01T00:04:00Z,2.0\n")
    with pytest.raises(ParseError, match="duplicate timestamp"):
        parse_series(jitter, "S1", dt=600.0)

    unsorted = _write(tmp_path / "c.csv",
                      "timestamp,value\n"
                      "2010-01-01T00:10:00Z,1.0\n"
                      "2010-01-01T00:00:00Z,2.0\n")
    with pytest.raises(ParseError, match="precedes the first row"):
        parse_series(unsorted, "S1", dt=600.0)


def test_parse_series_non_utc_rejected(tmp_path):
    path = _write(tmp_path / "s.csv",
                  "timestamp,value\n2010-01-01T00:00:00+01:00,1.0\n")
    with pytest.raises(ParseError, match="not UTC"):
        parse_series(path, "S1", dt=600.0)


def test_parse_series_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read file"):
        parse_series(tmp_path / "nope.csv", "S1", dt=600.0)


def test_undecodable_bytes_name_the_file(tmp_path):
    # A byte that is not UTF-8 is a ParseError naming the file, whether it
    # sits in the header, the first block or a later one.  The decoder's
    # offset counts from its chunk, not the file, so none is reported.
    t0 = datetime(2010, 1, 1)
    rows = "".join(f"{t0 + timedelta(minutes=10 * k):%Y-%m-%dT%H:%M:%S}Z,1.0\n"
                   for k in range(2 * ingest._CHUNK_CHARS // 25)).encode()
    cases = [(parse_series, b"time\xffstamp,value\n" + rows),
             (parse_series, b"timestamp,value\n\xff" + rows),
             (parse_series, b"timestamp,value\n" + rows + b"\xff"),
             (parse_station_meta, b"station_id,height\nWYN,42\xff2\n")]
    for i, (parse, data) in enumerate(cases):
        path = tmp_path / f"s{i}.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="cannot decode") as info:
            parse(path) if parse is parse_station_meta else parse(path, "S1")
        assert info.value.path == str(path)
        assert str(info.value).startswith(f"{path}: ")
        assert "position" not in str(info.value)


def test_parse_series_accepts_byte_order_mark(tmp_path):
    # Spreadsheet exports often start with a UTF-8 byte-order mark; it is
    # not part of the header, on the block path (canonical rows) or the
    # row loop (a quoted value), and line numbers still count from 1.
    rows = "2010-01-01T00:00:00Z,1.5\n2010-01-01T00:10:00Z,\n"
    for body in (rows, rows.replace(",1.5", ',"1.5"')):
        plain = _write(tmp_path / "plain.csv", "timestamp,value\n" + body)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_series(marked, "S1", dt=600.0) == \
            parse_series(plain, "S1", dt=600.0)
    marked.write_bytes(b"\xef\xbb\xbftimestamp,value\n"
                       b"2010-01-01T00:00:00Z,1.5\n2010-01-01T00:10:00Z,x\n")
    with pytest.raises(ParseError, match="malformed value") as info:
        parse_series(marked, "S1", dt=600.0)
    assert info.value.line == 3


def test_parse_station_meta_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_bytes(b"\xef\xbb\xbfstation_id,height\nWYN,422\n")
    assert parse_station_meta(path) == [StationMeta("WYN", 422.0)]


def test_series_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    values = rng.random(50) * 30.0
    missing = rng.random(50) < 0.2
    values[missing] = np.nan
    original = SampledSeries(station_id="S1",
                             t0=datetime(2010, 1, 1, tzinfo=timezone.utc),
                             dt=600.0, values=values, missing=missing)
    path = tmp_path / "s.csv"
    write_series(original, path)
    assert parse_series(path, "S1", dt=600.0) == original


def test_parse_station_meta(tmp_path):
    path = _write(tmp_path / "meta.csv",
                  "station_id,height\nWSLVSF,640\nWYN,422\n")
    metas = parse_station_meta(path)
    assert metas == [StationMeta("WSLVSF", 640.0), StationMeta("WYN", 422.0)]

    labelled = _write(tmp_path / "meta2.csv",
                      "station_id,height,label\nAIG,381,Aigle\nBAS,316,\n")
    metas = parse_station_meta(labelled)
    assert metas[0] == StationMeta("AIG", 381.0, "Aigle")
    assert metas[1] == StationMeta("BAS", 316.0, None)

    header_only = _write(tmp_path / "meta3.csv", "station_id,height\n")
    assert parse_station_meta(header_only) == []


def test_parse_station_meta_errors(tmp_path):
    dup = _write(tmp_path / "a.csv",
                 "station_id,height\nWYN,422\nWYN,400\n")
    with pytest.raises(ParseError, match="duplicate station_id"):
        parse_station_meta(dup)

    bad_height = _write(tmp_path / "b.csv", "station_id,height\nWYN,tall\n")
    with pytest.raises(ParseError, match="malformed height"):
        parse_station_meta(bad_height)

    for rows, line, height in (("A,nan\nB,1\n", 2, "nan"), ("A,1\nB,inf\n", 3, "inf")):
        non_finite = _write(tmp_path / "e.csv", "station_id,height\n" + rows)
        with pytest.raises(ParseError, match=f"non-finite height '{height}'") as info:
            parse_station_meta(non_finite)
        assert info.value.line == line
        assert str(info.value).startswith(f"{non_finite}, line {line}: ")

    for station_id in ("", ".", "..", "a/b", "a\\b"):
        bad_id = _write(tmp_path / "d.csv",
                        f"station_id,height\nWYN,1\n{station_id},2\n")
        with pytest.raises(ParseError, match="cannot name an output directory") \
                as info:
            parse_station_meta(bad_id)
        assert info.value.line == 3

    bad_header = _write(tmp_path / "c.csv", "id,elevation\nWYN,422\n")
    with pytest.raises(ParseError, match="expected header"):
        parse_station_meta(bad_header)


def test_sampled_series_validation():
    t0 = datetime(2010, 1, 1, tzinfo=timezone.utc)
    with pytest.raises(ValueError, match="dt must be positive"):
        SampledSeries("S1", t0, 0.0, np.ones(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="non-empty"):
        SampledSeries("S1", t0, 600.0, np.ones(0), np.zeros(0, dtype=bool))
    with pytest.raises(ValueError, match="mask must match"):
        SampledSeries("S1", t0, 600.0, np.ones(3), np.zeros(4, dtype=bool))
    with pytest.raises(ValueError, match="UTC"):
        SampledSeries("S1", datetime(2010, 1, 1), 600.0, np.ones(3),
                      np.zeros(3, dtype=bool))


# ---------------------------------------------------------------------------
# The row-by-row parser and writer that the block versions replaced, kept as
# references: the block versions must give the same series, the same error
# (message and line) and the same bytes.


def _reference_parse(path, station_id, dt=600.0):
    path = Path(path)
    slots, row_values, row_missing = [], [], []
    with open(path, newline="") as handle:
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
            stamp = ingest._parse_timestamp(row[0], path, line)
            if t0 is None:
                t0 = stamp
                t0_epoch = stamp.timestamp()
            offset = stamp.timestamp() - t0_epoch
            slot = round(offset / dt)
            if slot < 0:
                raise ParseError("timestamp precedes the first row", path, line)
            if abs(offset - slot * dt) > dt / 2:
                raise ParseError(
                    "timestamp off the sampling grid by more than dt/2", path, line)
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
    values = np.full(prev_slot + 1, np.nan)
    missing = np.ones(prev_slot + 1, dtype=bool)
    values[slots] = row_values
    missing[slots] = row_missing
    return SampledSeries(station_id=station_id, t0=t0, dt=float(dt),
                         values=values, missing=missing)


def _reference_write(series, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "value"])
        for k in range(series.n_samples):
            stamp = (series.t0 + timedelta(seconds=k * series.dt)).isoformat()
            stamp = stamp.replace("+00:00", "Z")
            if series.missing[k]:
                writer.writerow([stamp, ""])
            else:
                writer.writerow([stamp, repr(float(series.values[k]))])


def _outcome(parse, path, dt):
    try:
        series = parse(path, "S1", dt=dt)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("series", series.t0, series.n_samples, series.values.tobytes(),
            series.missing.tobytes())


def _assert_same_outcome(path, dt):
    expected = _outcome(_reference_parse, path, dt)
    # Tiny blocks put block edges between every few rows, and inside rows
    # and CRLFs.
    for chars in (ingest._CHUNK_CHARS, 64, 7):
        with mock.patch.object(ingest, "_CHUNK_CHARS", chars):
            assert _outcome(parse_series, path, dt) == expected
    return expected


_T0 = datetime(2010, 1, 1, tzinfo=timezone.utc)
_VALUES = st.one_of(
    st.floats(0.0, 60.0).map(repr),
    st.sampled_from(["", "nan", "NaN", " 4.5 ", "\t2", "1e2", "1_0.5", "  ",
                     "0", "-0.0", "7."]))
_FAULTS = ["fields", "stamp", "date", "not_utc", "precedes", "duplicate",
           "unsorted", "value", "negative", "infinite"]


def _stamp(instant, form):
    text = instant.replace(tzinfo=None).isoformat()
    return {"Z": text + "Z", "offset": text + "+00:00", "naive": text}[form]


@st.composite
def _series_csv(draw, faults=0):
    """A series CSV in the forms station files take, and its ``dt``;
    with ``faults``, that many rows (first, middle or last) are corrupted."""
    dt = draw(st.sampled_from([600.0, 60.0, 1.0]))
    start = _T0 + timedelta(seconds=draw(st.integers(0, 10 ** 8)))
    n = draw(st.integers(1, 30))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 5]), min_size=n, max_size=n))
    rows, slot = [], 0
    for k in range(n):
        slot += steps[k] if k else 0
        instant = start + timedelta(seconds=slot * dt)
        if draw(st.integers(0, 4)) == 0:      # fractional seconds, within dt/5
            instant += timedelta(microseconds=draw(
                st.integers(-int(dt * 2e5), int(dt * 2e5))))
        stamp = _stamp(instant, draw(st.sampled_from(["Z", "Z", "offset", "naive"])))
        rows.append([stamp, draw(_VALUES), instant])
    positions = draw(st.lists(st.sampled_from([0, n // 2, n - 1]),
                              min_size=faults, max_size=faults))
    kinds = draw(st.lists(st.sampled_from(_FAULTS), min_size=faults,
                          max_size=faults, unique=True))
    for pos, kind in zip(positions, kinds):
        row = rows[pos]
        previous = rows[pos - 1][2] if pos else row[2]
        if kind == "fields":
            row[1] += ",extra"
        elif kind == "stamp":
            row[0] = "not-a-time"
        elif kind == "date":
            row[0] = "2011-02-29T00:00:00Z"
        elif kind == "not_utc":
            row[0] = row[2].replace(tzinfo=None).isoformat() + "+01:00"
        elif kind == "precedes":
            row[0] = _stamp(start - timedelta(seconds=dt), "Z")
        elif kind == "duplicate":
            row[0] = _stamp(previous, "Z")
        elif kind == "unsorted":
            row[0] = _stamp(previous - timedelta(seconds=dt), "Z")
        elif kind == "value":
            row[1] = "abc"
        elif kind == "negative":
            row[1] = "-1.5"
        else:
            row[1] = draw(st.sampled_from(["inf", " -inf", "Infinity"]))

    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = ["timestamp,value"]
    for stamp, value, _ in rows:
        if draw(st.integers(0, 5)) == 0:
            value = f'"{value}"'
        if draw(st.integers(0, 9)) == 0:
            stamp = f'"{stamp}"'
        lines += [""] * draw(st.sampled_from([0, 0, 0, 0, 1, 2]))
        lines.append(f"{stamp},{value}")
    lines += [""] * draw(st.integers(0, 2))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text, dt


_ORACLE = settings(max_examples=150, deadline=None, derandomize=True,
                   database=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@_ORACLE
@given(_series_csv())
def test_parse_series_matches_row_loop(tmp_path, case):
    text, dt = case
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    _assert_same_outcome(path, dt)


@_ORACLE
@given(st.one_of(_series_csv(faults=1), _series_csv(faults=2)))
def test_parse_series_faults_match_row_loop(tmp_path, case):
    text, dt = case
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    _assert_same_outcome(path, dt)


def test_parse_series_fault_order_within_a_row(tmp_path):
    # Every fault of a row but the first in check order is masked.
    rows = [
        ("a,b,c", "expected 2 fields, got 3"),
        ("not-a-time,-1", "malformed timestamp"),
        ("2010-01-01T00:00:00+01:00,abc", "not UTC"),
        ("2009-12-31T23:50:00Z,-1", "precedes the first row"),
        ("2010-01-01T00:10:00Z,-1", "duplicate timestamp"),
        ("2010-01-01T00:00:00Z,inf", "timestamps not sorted"),
        ("2010-01-01T00:20:00Z,-inf", "negative value -inf"),
    ]
    for row, message in rows:
        path = _write(tmp_path / "s.csv",
                      "timestamp,value\n2010-01-01T00:00:00Z,1\n"
                      "2010-01-01T00:10:00Z,2\n" + row + "\n")
        with pytest.raises(ParseError, match=message) as info:
            parse_series(path, "S1", dt=600.0)
        assert info.value.line == 4
        assert _assert_same_outcome(path, 600.0)[1] == str(info.value)


def test_parse_series_half_slot_ties_round_to_even(tmp_path):
    # 0.5 slots rounds to slot 0, a duplicate of the first row; 1.5 to 2.
    path = _write(tmp_path / "s.csv", "timestamp,value\n2010-01-01T00:00:00Z,1\n"
                                      "2010-01-01T00:05:00Z,2\n")
    assert _assert_same_outcome(path, 600.0)[1:] == (
        f"{path}, line 3: duplicate timestamp", 3)
    path = _write(tmp_path / "s.csv", "timestamp,value\n2010-01-01T00:00:00Z,1\n"
                                      "2010-01-01T00:15:00Z,2\n")
    assert _assert_same_outcome(path, 600.0)[2] == 3


def test_parse_series_field_size_limit_as_csv_reader(tmp_path):
    # A field past csv.field_size_limit() is csv.reader's error, which the
    # str.split path must not hide, also in a line longer than a block.
    long_value = "1" * (csv.field_size_limit() + 1)
    path = _write(tmp_path / "s.csv", "timestamp,value\n2010-01-01T00:00:00Z,1\n"
                                      f"2010-01-01T00:10:00Z,{long_value}\n")
    for parse in (_reference_parse, parse_series):
        with pytest.raises(csv.Error, match="field larger than field limit"):
            parse(path, "S1", dt=600.0)


def test_parse_series_canonical_stamps_decoded_exactly(tmp_path):
    # Leap days, month ends, century rules and the edges of each field.
    stamps = ["0001-01-01T00:00:00Z", "1600-02-29T23:59:59Z",
              "1900-02-28T12:00:00Z", "1969-12-31T23:59:59Z",
              "1970-01-01T00:00:00Z", "2000-02-29T00:00:01Z",
              "2024-12-31T23:59:59Z", "9999-12-31T23:59:59Z"]
    for stamp in stamps:
        path = _write(tmp_path / "s.csv", f"timestamp,value\n{stamp},1\n")
        series = parse_series(path, "S1", dt=1.0)
        assert series.t0 == datetime.fromisoformat(stamp.replace("Z", "+00:00"))
    days = "\n".join(f"{d.date().isoformat()}T00:00:00Z,1" for d in
                     (datetime(1899, 12, 30) + timedelta(days=k) for k in range(800)))
    path = _write(tmp_path / "s.csv", "timestamp,value\n" + days + "\n")
    assert parse_series(path, "S1", dt=86400.0).n_missing == 0
    for bad in ["1900-02-29T00:00:00Z", "2010-04-31T00:00:00Z",
                "0000-01-01T00:00:00Z", "2010-13-01T00:00:00Z",
                "2010-01-01T24:00:00Z", "2010-01-01T00:60:00Z",
                "2010-01-01T00:00:60Z", "2010-01-01T00:00:00z",
                "2010-01-01T00:00:0aZ", "2010-01-01T00:00:00ZZ"]:
        # After a first row, which the grid's t0 is read from once more.
        path = _write(tmp_path / "s.csv",
                      f"timestamp,value\n1899-01-01T00:00:00Z,1\n{bad},1\n")
        with pytest.raises(ParseError, match="malformed timestamp") as info:
            parse_series(path, "S1", dt=1.0)
        assert info.value.line == 3


def test_parse_series_memory_bounded(tmp_path):
    # The block route reads the canonical file; the same rows with +00:00
    # stamps or with quoted values go through the row loop.
    n = 52_560
    rng = np.random.default_rng(3)
    values = rng.random(n) * 20.0
    missing = rng.random(n) < 0.01
    values[missing] = np.nan
    path = tmp_path / "s.csv"
    write_series(SampledSeries("S1", _T0, 600.0, values, missing), path)
    header, *rows = path.read_bytes().split(b"\r\n")
    forms = {
        "canonical": rows,
        "offset": [row.replace(b"Z,", b"+00:00,") for row in rows],
        "quoted": [row.replace(b",", b',"') + b'"' if row else row for row in rows],
    }
    for form, form_rows in forms.items():
        path.write_bytes(b"\r\n".join([header, *form_rows]))
        tracemalloc.start()
        try:
            series = parse_series(path, "S1", dt=600.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.n_samples == n, form
        assert peak <= 3 * path.stat().st_size, form


@pytest.mark.parametrize("dt", [600.0, 1.0, 0.1, 1.0 / 3.0])
def test_write_series_matches_row_loop(tmp_path, dt):
    n = 5_000                                  # more than one block of rows
    rng = np.random.default_rng(int(dt * 1000))
    values = rng.random(n) * 30.0
    missing = rng.random(n) < 0.1
    missing[100:400] = True
    values[missing] = np.nan
    t0 = datetime(2010, 3, 4, 5, 6, 7, 890_123, tzinfo=timezone.utc)
    for start in (t0, t0.replace(microsecond=0)):
        series = SampledSeries("S1", start, dt, values, missing)
        write_series(series, tmp_path / "new.csv")
        _reference_write(series, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_timedelta_microseconds_round_as_timedelta():
    # Multiples of 2**-21 s give exact half-microsecond leftovers, which
    # timedelta rounds to the even total.
    seconds = np.concatenate([np.arange(70_000) * 2.0 ** -21,
                              np.random.default_rng(5).random(5_000) * 1e5])
    expected = [timedelta(seconds=s) // timedelta(microseconds=1)
                for s in seconds.tolist()]
    assert ingest._timedelta_us(seconds).tolist() == expected
