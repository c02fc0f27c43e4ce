"""Tests for series and metadata parsing."""

from datetime import datetime, timezone

import numpy as np
import pytest

from runclust import ParseError, SampledSeries, StationMeta, parse_series, \
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
