"""Exit-code and wiring tests for the command line interface.

The CLI is driven in-process through ``main(argv)`` so exit codes,
printed output, and produced files can all be checked without spawning
interpreters; a single subprocess smoke test covers the
``python -m runclust`` entry point.  Exit codes under test: 0 success,
1 usage or configuration error, 2 unreadable or malformed input data,
3 run finished but some products are missing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from runclust import pipeline
from runclust.cli import _ANALYSIS_FLAGS, main
from runclust.ingest import parse_series, write_series
from runclust.pipeline import AnalysisConfig
from runclust.runs import MarkedPointProcess, read_events, write_events
from runclust.synth import SynthSpec, generate_series


def call(argv):
    """Run the CLI in-process, folding SystemExit into the exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def render_station(path, seed=2, phase=0.0):
    """Write a rendered periodic station: 100 events, 10000 samples."""
    spec = SynthSpec.periodic(period=60000.0, window=6.0e6, seed=seed,
                              phase=phase)
    series, _ = generate_series(spec, dt=600.0)
    write_series(series, path)


def test_module_entry_point_prints_help():
    proc = subprocess.run([sys.executable, "-m", "runclust", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage: runclust" in proc.stdout
    for command in ("analyze", "batch", "synth", "af"):
        assert command in proc.stdout


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None   # any import of scipy now raises
import numpy as np
import runclust
from runclust import cli
taus = np.geomspace(1e3, 1e6, 30)
fit = runclust.fit_power_law(runclust.AfCurve(taus=taus, af=1.0 + (taus / 1e3) ** 0.5))
assert abs(fit.alpha - 0.5) < 1e-9 and abs(fit.tau1 - 1e3) < 1e-6, fit
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
assert not loaded, loaded
"""


def test_package_and_cli_run_without_scipy():
    # numpy is the one runtime dependency; scipy serves only the tests
    # and the benchmark.
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: runclust" in proc.stdout


def test_missing_or_unknown_command_is_usage_error(capsys):
    assert call([]) == 1
    assert call(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'frobnicate'" in err


def test_analyze_writes_station_products(tmp_path, capsys):
    station = tmp_path / "stn_a.csv"
    render_station(station)
    out = tmp_path / "out"
    code = call(["analyze", str(station), "--out", str(out), "--seed", "11",
                 "--percentiles", "0.95", "--min-run-lengths", "1", "2",
                 "--tau-points", "10", "--n-surrogates", "16"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""

    # first stdout line echoes the effective configuration as JSON
    lines = captured.out.splitlines()
    echo = json.loads(lines[0])
    assert echo["seed"] == 11
    assert echo["percentiles"] == [0.95]
    assert echo["min_run_lengths"] == [1, 2]
    assert lines[-1] == f"wrote {out / 'stn_a'}"

    assert json.loads((out / "config.json").read_text()) == echo
    assert (out / "stn_a" / "summary.json").exists()
    assert (out / "stn_a" / "events_p95.csv").exists()


def test_analyze_reports_bad_cells_and_exits_3(tmp_path, capsys):
    station = tmp_path / "stn_a.csv"
    render_station(station)
    code = call(["analyze", str(station), "--out", str(tmp_path / "out"),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "25",
                 "--tau-points", "10", "--n-surrogates", "16"])
    captured = capsys.readouterr()
    assert code == 3
    assert "m>=25: insufficient_events" in captured.err


def test_config_file_values_overridden_by_flags(tmp_path, capsys):
    station = tmp_path / "stn_a.csv"
    render_station(station)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "n_surrogates": 24,
                               "percentiles": [0.95], "min_run_lengths": [1],
                               "tau_points": 10, "output_dir": str(out)}))
    code = call(["analyze", str(station), "--config", str(cfg),
                 "--seed", "7"])
    echo = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 0
    assert echo["seed"] == 7              # flag wins over the file
    assert echo["n_surrogates"] == 24     # file value kept
    assert echo["percentiles"] == [0.95]
    assert echo["output_dir"] == str(out)


def test_analyze_usage_errors_exit_1(tmp_path, capsys):
    station = tmp_path / "stn_a.csv"
    render_station(station)
    out = str(tmp_path / "out")
    cases = [
        ["analyze", str(station), "--out", out],                 # no seed
        ["analyze", str(station), "--seed", "1"],                # no out
        ["analyze", str(station), "--out", out, "--seed", "1",
         "--percentiles", "1.5"],
        ["analyze", str(station), "--config",
         str(tmp_path / "missing.json")],
    ]
    for argv in cases:
        assert call(argv) == 1, argv
    err = capsys.readouterr().err
    assert "config requires a seed" in err
    assert "config requires an output_dir" in err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]\n")
    assert call(["analyze", str(station), "--config", str(not_object)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err


def test_analyze_station_id_naming_no_directory_exits_1_before_reading(
        tmp_path, capsys):
    # The series does not exist: reading it would exit 2.
    ghost = str(tmp_path / "ghost.csv")
    for station_id in ("", ".", "..", "a/b", "a\\b", "a\0b"):
        code = call(["analyze", ghost, "--station-id", station_id,
                     "--out", str(tmp_path / "out"), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1, station_id
        assert f"station_id {station_id!r} cannot name" in captured.err
        assert captured.out == ""
    # A file stem can be ".." too.
    assert call(["analyze", str(tmp_path / "...csv"), "--out",
                 str(tmp_path / "out"), "--seed", "1"]) == 1
    assert not (tmp_path / "out").exists()


def test_analyze_bad_config_values_exit_1_before_reading(tmp_path, capsys):
    station = tmp_path / "stn_a.csv"
    render_station(station)
    out = tmp_path / "out"
    base = ["analyze", str(station), "--out", str(out), "--seed", "1",
            "--percentiles", "0.95", "--min-run-lengths", "1",
            "--tau-points", "10", "--n-surrogates", "16"]
    cases = [
        (["--band-lo", "0.9", "--band-hi", "0.1"], "0 < lo < hi < 1"),
        (["--n-surrogates", "1"], "at least 2 surrogates"),
        (["--n-surrogates", "0"], "at least 2 surrogates"),
        (["--seed", "-1"], "64-bit unsigned integer"),
        (["--dt", "0"], "dt must be positive"),
        (["--tau-lo", "10"], "must not go below the sampling step"),
        (["--tau-hi", "100"], "tau grid is empty"),
        (["--tau-hi", "1200"], "tau grid of 10 points needs hi > lo"),
        (["--tau-lo", "1200", "--tau-hi", "1200"],
         "tau grid of 10 points needs hi > lo"),
    ]
    for extra, message in cases:
        assert call(base + extra) == 1, extra
        assert message in capsys.readouterr().err, extra
        assert not out.exists(), extra

    # A wrongly typed value in a config file is a usage error too.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_surrogates": "many"}))
    assert call(["analyze", str(station), "--config", str(cfg),
                 "--seed", "1", "--out", str(out)]) == 1
    assert "runclust analyze: error:" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_mistyped_config_values_exit_1_naming_the_key(tmp_path, capsys):
    # The station file does not exist: a config error must stop the run
    # before any input is read, which would exit 2.
    station = tmp_path / "ghost.csv"
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cases = [({"workers": 1.5}, "workers must be an integer or null"),
             ({"workers": True}, "workers must be an integer or null"),
             ({"n_surrogates": 16.0}, "n_surrogates must be an integer"),
             ({"dt": True}, "dt must be a real number"),
             ({"band_lo": "0.1"}, "band_lo must be a real number"),
             ({"tau_points": 2.5}, "tau_points must be an integer"),
             ({"tau_lo": "a"}, "tau_lo must be a real number or null"),
             ({"percentiles": 0.95}, "percentiles must be a list"),
             ({"min_run_lengths": [1, 2.5]}, "min_run_lengths must be an integer"),
             ({"output_dir": 3}, "output_dir must be a path")]
    # The departure cutoff, the event and sample floors and the fit are
    # the method's constants, not config keys.
    cases += [({key: value}, "unknown config keys") for key, value in (
        ("dp_cutoff", 12000.0), ("min_events", 3), ("threshold_floor", 100),
        ("fit", True))]
    for values, message in cases:
        cfg.write_text(json.dumps({"output_dir": str(out), **values}))
        assert call(["analyze", str(station), "--config", str(cfg),
                     "--seed", "1"]) == 1, values
        assert message in capsys.readouterr().err, values
        assert not out.exists(), values


def test_analyze_data_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert call(["analyze", str(tmp_path / "ghost.csv"), "--out", out,
                 "--seed", "1"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("time,val\n2000-01-01T00:00:00Z,1.0\n")
    assert call(["analyze", str(bad), "--out", out, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "expected header 'timestamp,value'" in err


def test_analyze_undecodable_series_exits_2(tmp_path, capsys):
    station = tmp_path / "S1.csv"
    render_station(station)
    data = station.read_bytes()
    station.write_bytes(data[:60] + b"\xff" + data[60:])
    assert call(["analyze", str(station), "--out", str(tmp_path / "out"),
                 "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert f"data error: {station}: cannot decode text" in err
    assert "position" not in err


def test_analyze_infinite_sample_exits_2(tmp_path, capsys):
    station = tmp_path / "S1.csv"
    render_station(station)
    lines = station.read_text().splitlines(keepends=True)
    stamp = lines[500].split(",")[0]
    lines[500] = f"{stamp},inf\n"
    station.write_text("".join(lines))
    assert call(["analyze", str(station), "--out", str(tmp_path / "out"),
                 "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "line 501: infinite value 'inf'" in err
    assert not (tmp_path / "out").exists()


def test_synth_writes_events_with_sidecar(tmp_path, capsys):
    events = tmp_path / "ev.csv"
    code = call(["synth", "periodic", "--seed", "3", "--period", "6000",
                 "--window", "6e6", "--out", str(events)])
    assert code == 0
    assert "1000 events" in capsys.readouterr().out
    assert (tmp_path / "ev.json").exists()
    pp = read_events(events)
    assert pp.n_events == 1000
    assert pp.dt == 0.0
    assert pp.window_end == 6.0e6


def test_synth_series_renders_sampling_grid(tmp_path, capsys):
    path = tmp_path / "ser.csv"
    code = call(["synth", "periodic", "--seed", "2", "--period", "60000",
                 "--window", "6e6", "--series", "--dt", "600",
                 "--out", str(path)])
    assert code == 0
    assert "10000 samples" in capsys.readouterr().out
    series = parse_series(path, station_id="ser", dt=600.0)
    assert series.n_samples == 10000
    assert not series.missing.any()


def test_synth_usage_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert call(["synth", "poisson", "--seed", "1", "--out", out]) == 1
    assert call(["synth", "fractal_renewal", "--seed", "1",
                 "--af-exponent", "0.95", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "poisson requires --rate" in err
    assert "calibrated range" in err


def test_synth_render_collision_exits_2(tmp_path, capsys):
    # period equal to dt puts every event on an adjacent slot
    code = call(["synth", "periodic", "--seed", "1", "--period", "600",
                 "--window", "60000", "--series", "--dt", "600",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "events collide on the sampling grid" in capsys.readouterr().err


def test_af_prints_curve_and_interval_stats(tmp_path, capsys):
    events = tmp_path / "ev.csv"
    call(["synth", "periodic", "--seed", "3", "--period", "6000",
          "--window", "6e6", "--out", str(events)])
    capsys.readouterr()

    code = call(["af", str(events), "--tau-lo", "1200", "--tau-hi", "60000",
                 "--tau-points", "8"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "n_events=1000 cv=0 lv=0"
    assert out[1].startswith("fit:")
    header = out.index("tau_seconds,af")
    rows = out[header + 1:]
    assert len(rows) == 8
    taus = [float(row.split(",")[0]) for row in rows]
    assert np.allclose(taus, np.geomspace(1200.0, 60000.0, 8))


def test_af_band_csv_departure_beyond_cutoff(tmp_path, capsys):
    events = tmp_path / "ev.csv"
    call(["synth", "periodic", "--seed", "3", "--period", "6000",
          "--window", "6e6", "--out", str(events)])
    out_csv = tmp_path / "af.csv"
    code = call(["af", str(events), "--tau-lo", "1200", "--tau-hi", "60000",
                 "--tau-points", "8", "--n-surrogates", "24", "--seed", "5",
                 "--out", str(out_csv)])
    capsys.readouterr()
    assert code == 0

    lines = out_csv.read_text().splitlines()
    assert lines[0] == "tau_seconds,af,band_lo,band_hi,dp"
    assert len(lines) == 9
    for line in lines[1:]:
        tau, af, lo, hi, dp = line.split(",")
        assert float(lo) <= float(hi)
        if float(tau) <= 12000.0:
            assert dp == ""       # departure starts strictly past the cutoff
        else:
            assert float(dp) == float(af) - float(hi)


def test_af_out_replaces_file_atomically(tmp_path, capsys, monkeypatch):
    events = tmp_path / "ev.csv"
    call(["synth", "periodic", "--seed", "3", "--period", "6000",
          "--window", "6e6", "--out", str(events)])
    argv = ["af", str(events), "--tau-lo", "1200", "--tau-hi", "60000",
            "--tau-points", "8"]
    call(argv)
    printed = capsys.readouterr().out.splitlines()
    expected = "\n".join(printed[printed.index("tau_seconds,af"):]) + "\n"

    out_csv = tmp_path / "af.csv"
    out_csv.write_text("stale\n")
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append((Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    assert call(argv + ["--out", str(out_csv)]) == 0
    assert [dst for _, dst in replaced] == [out_csv]
    assert out_csv.read_text() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["af.csv", "ev.csv",
                                                          "ev.json"]


def test_af_usage_errors_exit_1(tmp_path, capsys):
    events = tmp_path / "ev.csv"
    call(["synth", "periodic", "--seed", "3", "--period", "6000",
          "--window", "6e6", "--out", str(events)])
    grid = ["--tau-lo", "1200", "--tau-hi", "60000"]
    assert call(["af", str(events)] + grid + ["--n-surrogates", "8"]) == 1
    assert call(["af", str(events)] + grid +
                ["--n-surrogates", "1", "--seed", "4"]) == 1
    # events from synth carry no sampling step, so the grid is mandatory
    assert call(["af", str(events)]) == 1
    assert call(["af", str(events), "--tau-lo", "1200",
                 "--tau-points", "0"]) == 1
    assert call(["af", str(events), "--tau-lo", "60000",
                 "--tau-hi", "1200"]) == 1
    assert call(["af", str(events), "--tau-lo", "1200",
                 "--tau-hi", "1200"]) == 1
    assert call(["af", str(events)] + grid +
                ["--n-surrogates", "10", "--seed", "-1"]) == 1
    assert call(["af", str(events)] + grid +
                ["--n-surrogates", "10", "--seed", "4",
                 "--band-lo", "0.9", "--band-hi", "0.1"]) == 1
    err = capsys.readouterr().err
    assert "--seed is required" in err
    assert "must be 0 or at least 2" in err
    assert "no sampling step" in err
    assert "at least 1 point" in err
    assert "hi must be >= lo" in err
    assert "tau grid of 60 points needs hi > lo" in err
    assert "64-bit unsigned integer" in err
    assert "0 < lo < hi < 1" in err

    for extra in (["--n-surrogates", "-3"], ["--n-surrogates", "-1", "--seed", "4"]):
        assert call(["af", str(events)] + grid + extra) == 1, extra
        assert "--n-surrogates must be 0 or at least 2" in capsys.readouterr().err


def test_af_two_events_and_lone_tau_lo(tmp_path, capsys):
    pair = MarkedPointProcess(times=np.array([1200.0, 90000.0]),
                              lengths=np.array([1, 3]),
                              window_start=0.0, window_end=6.0e5, dt=600.0,
                              station_id="pair", threshold=None,
                              gap_fraction=0.0)
    events = tmp_path / "pair.csv"
    write_events(pair, events)
    # A lone --tau-lo moves the first tau; the top stays a tenth of the span.
    code = call(["af", str(events), "--tau-lo", "5000", "--tau-points", "4"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "n_events=2 cv=nan lv=nan"
    rows = out[out.index("tau_seconds,af") + 1:]
    taus = [float(row.split(",")[0]) for row in rows]
    assert taus[0] == 5000.0
    assert abs(taus[-1] - 6.0e4) < 1e-6
    assert all(row.split(",")[1] != "" for row in rows)

    # Cv and Lv bands need a third event.
    assert call(["af", str(events), "--n-surrogates", "8", "--seed", "1"]) == 2
    assert "at least 3 events" in capsys.readouterr().err


def test_af_grid_below_sampling_step_exits_1(tmp_path, capsys):
    events = tmp_path / "ev.csv"
    write_events(MarkedPointProcess(times=np.arange(0.0, 6.0e6, 6000.0),
                                    lengths=np.ones(1000, dtype=np.int64),
                                    window_start=0.0, window_end=6.0e6,
                                    dt=600.0), events)
    for extra in ([], ["--n-surrogates", "8", "--seed", "1"]):
        assert call(["af", str(events), "--tau-lo", "10"] + extra) == 1, extra
        assert ("runclust af: error: tau grid must not go below the sampling step"
                in capsys.readouterr().err), extra


def test_late_usage_errors_print_the_subcommand_usage(tmp_path, capsys):
    # Both grids are checked after parsing: analyze's when the config is
    # built, af's after the events are read.
    events = tmp_path / "ev.csv"
    write_events(MarkedPointProcess(times=[0.0, 6000.0, 9000.0],
                                    lengths=[1, 1, 1], window_start=0.0,
                                    window_end=6.0e5, dt=600.0), events)
    analyze = ["analyze", str(tmp_path / "s.csv"), "--seed", "1", "--out",
               str(tmp_path / "out")]
    for argv in (analyze, ["af", str(events)]):
        command = argv[0]
        assert call(argv + ["--tau-lo", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: runclust {command} "), err
        assert f"runclust {command}: error: tau grid must not go below" in err


def test_af_missing_sidecar_exits_2(tmp_path, capsys):
    assert call(["af", str(tmp_path / "ghost.csv")]) == 2
    assert "missing events sidecar" in capsys.readouterr().err

    # Sidecar present, events CSV gone.
    write_events(MarkedPointProcess(times=[0.0, 1200.0], lengths=[1, 1],
                                    window_start=0.0, window_end=6.0e5,
                                    dt=600.0), tmp_path / "ghost.csv")
    (tmp_path / "ghost.csv").unlink()
    assert call(["af", str(tmp_path / "ghost.csv")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "ghost.csv" in err

    # Events CSV present, sidecar not an object or missing a window key.
    write_events(MarkedPointProcess(times=[0.0, 1200.0], lengths=[1, 1],
                                    window_start=0.0, window_end=6.0e5,
                                    dt=600.0), tmp_path / "e.csv")
    for sidecar, message in (("{}", "lacks 'window_start'"),
                             ("[]", "must hold a JSON object")):
        (tmp_path / "e.json").write_text(sidecar)
        assert call(["af", str(tmp_path / "e.csv")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "e.json" in err and message in err


def test_af_malformed_events_name_file_and_line(tmp_path, capsys):
    events = tmp_path / "e.csv"
    write_events(MarkedPointProcess(times=[0.0, 1200.0, 5400.0],
                                    lengths=[1, 1, 2], window_start=0.0,
                                    window_end=6.0e5, dt=600.0), events)
    good = events.read_text().splitlines()
    for line, row, message in ((3, "1200.0,1,7",
                                "malformed event row '1200.0,1,7'"),
                               (2, "abc,1", "malformed event row 'abc,1'")):
        rows = list(good)
        rows[line - 1] = row
        events.write_text("\n".join(rows) + "\n")
        assert call(["af", str(events), "--tau-points", "4"]) == 2
        assert (f"data error: {events}, line {line}: {message}"
                in capsys.readouterr().err)

    events.write_text("\n".join(good) + "\n")
    (tmp_path / "e.json").write_text('{"window_start": 0.0,')
    assert call(["af", str(events), "--tau-points", "4"]) == 2
    err = capsys.readouterr().err
    assert f"data error: {tmp_path / 'e.json'}: cannot parse events sidecar" in err

    write_events(MarkedPointProcess(times=[0.0, 1200.0], lengths=[1, 1],
                                    window_start=0.0, window_end=6.0e5,
                                    dt=600.0), events)
    events.write_bytes(events.read_bytes() + b"\xff,1\n")
    assert call(["af", str(events), "--tau-points", "4"]) == 2
    assert f"data error: {events}: cannot decode text" in capsys.readouterr().err


def test_af_events_out_of_order_or_window_name_file_and_line(tmp_path, capsys):
    events = tmp_path / "e.csv"
    write_events(MarkedPointProcess(times=[0.0, 1200.0, 5400.0, 9000.0],
                                    lengths=[1, 1, 2, 1], window_start=0.0,
                                    window_end=6.0e5, dt=600.0), events)
    good = events.read_text().splitlines()
    swapped = list(good)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    late = list(good)
    late[4] = "600000.0,1"
    # A NaN time passes every ordering and window comparison.
    undefined = list(good)
    undefined[3] = "nan,2"
    for rows, line, message in ((swapped, 4, "event times must be strictly increasing"),
                                (late, 5, "event time outside the window"),
                                (undefined, 4, "event time must be finite")):
        events.write_text("\n".join(rows) + "\n")
        assert call(["af", str(events), "--tau-points", "4"]) == 2
        assert (f"data error: {events}, line {line}: {message}"
                in capsys.readouterr().err)

    sidecar = tmp_path / "e.json"
    meta = json.loads(sidecar.read_text())
    for key, value, message in (("window_end", "6e5", "must be a number, got '6e5'"),
                                ("dt", float("nan"), "must be finite, got nan"),
                                ("window_end", float("inf"), "must be finite, got inf"),
                                ("window_end", 10**400, f"must be finite, got {10**400}")):
        sidecar.write_text(json.dumps({**meta, key: value}))
        assert call(["af", str(events), "--tau-points", "4"]) == 2
        assert (f"data error: {sidecar}: {key!r} {message}"
                in capsys.readouterr().err)


def test_af_undefined_everywhere_exits_3(tmp_path, capsys):
    solo = MarkedPointProcess(times=np.array([1200.0]),
                              lengths=np.array([2]),
                              window_start=0.0, window_end=6.0e5, dt=600.0,
                              station_id="solo", threshold=None,
                              gap_fraction=0.0)
    events = tmp_path / "solo.csv"
    write_events(solo, events)
    code = call(["af", str(events), "--tau-points", "10"])
    out = capsys.readouterr().out.splitlines()
    assert code == 3
    assert out[0] == "n_events=1 cv=nan lv=nan"
    rows = out[out.index("tau_seconds,af") + 1:]
    assert len(rows) == 10
    assert all(row.endswith(",") for row in rows)  # every AF value empty


def test_batch_all_ok_exits_0(tmp_path, capsys):
    stations = tmp_path / "stations"
    stations.mkdir()
    render_station(stations / "alpha.csv")
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\n")
    out = tmp_path / "out"
    code = call(["batch", str(stations), str(meta), "--out", str(out),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "--tau-points", "10",
                 "--n-surrogates", "16"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == f"wrote {out}: 1/1 cells ok"
    summary = json.loads((out / "batch.json").read_text())
    assert summary["partial"] is False


def test_batch_station_without_metadata_exits_3(tmp_path, capsys):
    stations = tmp_path / "stations"
    stations.mkdir()
    render_station(stations / "alpha.csv")
    render_station(stations / "beta.csv", seed=5, phase=1200.0)
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\n")
    out = tmp_path / "out"
    code = call(["batch", str(stations), str(meta), "--out", str(out),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "--tau-points", "10",
                 "--n-surrogates", "16"])
    captured = capsys.readouterr()
    assert code == 3
    assert "station beta: no metadata, skipped" in captured.err
    summary = json.loads((out / "batch.json").read_text())
    assert summary["partial"] is True


def test_batch_data_errors_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\n")
    assert call(["batch", str(empty), str(meta), "--out",
                 str(tmp_path / "o1"), "--seed", "1"]) == 2

    stations = tmp_path / "stations"
    stations.mkdir()
    render_station(stations / "alpha.csv")
    assert call(["batch", str(stations), str(tmp_path / "nometa.csv"),
                 "--out", str(tmp_path / "o2"), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "no station CSVs found" in err
    assert "cannot read file" in err
    # Both inputs are read before anything is written.
    assert not (tmp_path / "o1").exists()
    assert not (tmp_path / "o2").exists()


def test_batch_bad_band_exits_1_before_writing(tmp_path, capsys):
    stations = tmp_path / "stations"
    stations.mkdir()
    render_station(stations / "alpha.csv")
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\n")
    out = tmp_path / "out"
    code = call(["batch", str(stations), str(meta), "--out", str(out),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "--tau-points", "10",
                 "--n-surrogates", "16", "--band-lo", "0.9", "--band-hi", "0.1"])
    assert code == 1
    assert "0 < lo < hi < 1" in capsys.readouterr().err
    assert not (out / "batch.json").exists()
    assert not out.exists()


def test_batch_station_id_naming_no_directory_exits_2_writing_nothing_outside(
        tmp_path, capsys):
    # A station file "...csv" has the stem "..": with a ".." metadata row
    # its products would land in the parent of --out.
    stations = tmp_path / "stations"
    stations.mkdir()
    render_station(stations / "...csv")
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\n..,640\n")
    outer = tmp_path / "outer"
    code = call(["batch", str(stations), str(meta), "--out", str(outer / "out"),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "--tau-points", "10",
                 "--n-surrogates", "16"])
    assert code == 2
    assert (f"{meta}, line 2: station_id '..' cannot name an output directory"
            in capsys.readouterr().err)
    assert not outer.exists()


def test_af_on_a_batch_event_list_gives_the_cell_af_csv(tmp_path, capsys):
    # The lm01 cell's process is the percentile's whole event list, so
    # ``af`` with the cell's seed and the batch's grid and surrogate count
    # writes the cell's af.csv byte for byte.
    stations = tmp_path / "stations"
    stations.mkdir()
    render_station(stations / "alpha.csv")
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\n")
    out = tmp_path / "out"
    assert call(["batch", str(stations), str(meta), "--out", str(out),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "--tau-points", "12",
                 "--n-surrogates", "40"]) == 0
    cell = out / "alpha" / "p95" / "lm01"
    stats = json.loads((cell / "stats.json").read_text())
    assert stats["status"] == "ok"
    recomputed = tmp_path / "af.csv"
    assert call(["af", str(out / "alpha" / "events_p95.csv"), "--tau-points",
                 "12", "--n-surrogates", "40", "--seed",
                 str(stats["seed_cell"]), "--out", str(recomputed)]) == 0
    assert recomputed.read_bytes() == (cell / "af.csv").read_bytes()


def test_batch_config_file_reproduces_the_tree(tmp_path, capsys):
    # A batch's config.json, given back with another --out, reproduces
    # every other file of the tree.
    stations = tmp_path / "stations"
    stations.mkdir()
    render_station(stations / "alpha.csv")
    render_station(stations / "beta.csv", seed=5, phase=1200.0)
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\nbeta,422\n")
    first, second = tmp_path / "out", tmp_path / "out2"
    assert call(["batch", str(stations), str(meta), "--out", str(first),
                 "--seed", "11", "--percentiles", "0.95", "0.975",
                 "--min-run-lengths", "1", "--tau-points", "10",
                 "--n-surrogates", "16"]) == 0
    assert call(["batch", str(stations), str(meta), "--config",
                 str(first / "config.json"), "--out", str(second)]) == 0
    capsys.readouterr()

    def tree(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    trees = tree(first), tree(second)
    configs = [json.loads(t.pop(Path("config.json"))) for t in trees]
    assert configs[1] == {**configs[0], "output_dir": str(second)}
    assert trees[0] == trees[1]


class _ExitOnUnpickle:
    # A pool worker that unpickles this ends its process at once.
    def __reduce__(self):
        return os._exit, (1,)


def test_batch_dead_worker_fails_its_station_and_exits_3(tmp_path, capsys,
                                                         monkeypatch):
    # Every cell of station "beta" kills the worker that receives it.
    filter_by_min_length = pipeline.filter_by_min_length
    monkeypatch.setattr(
        pipeline, "filter_by_min_length",
        lambda pp, lm: _ExitOnUnpickle() if pp.station_id == "beta"
        else filter_by_min_length(pp, lm))
    stations = tmp_path / "stations"
    stations.mkdir()
    for seed, name in enumerate(("alpha", "beta", "gamma")):
        render_station(stations / f"{name}.csv", seed=seed + 2,
                       phase=600.0 * seed)
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\nalpha,640\nbeta,900\ngamma,1200\n")
    out = tmp_path / "out"
    code = call(["batch", str(stations), str(meta), "--out", str(out),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "2", "--tau-points", "10",
                 "--n-surrogates", "16", "--workers", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "station beta: A process in the process pool" in err
    summary = json.loads((out / "batch.json").read_text())
    statuses = {s["station_id"]: s["status"] for s in summary["stations"]}
    assert statuses == {"alpha": "ok", "beta": "failed", "gamma": "ok"}
    assert summary["partial"] is True
    assert (summary["n_cells"], summary["n_cells_ok"]) == (4, 4)
    # The failed station leaves no directory behind; the station after
    # the dead worker ran on a fresh pool, and the cross products cover
    # the stations that finished.
    assert not (out / "beta").exists()
    assert (out / "gamma" / "summary.json").is_file()
    thresholds = (out / "cross" / "thresholds_vs_height.csv").read_text()
    assert [row.split(",")[0] for row in thresholds.splitlines()[1:]] == [
        "alpha", "gamma"]


def _three_station_batch(tmp_path, workers, out="out"):
    # Stations alpha, beta and gamma, with metadata; the batch's exit code.
    stations = tmp_path / "stations"
    if not stations.is_dir():
        stations.mkdir()
        for seed, name in enumerate(("alpha", "beta", "gamma")):
            render_station(stations / f"{name}.csv", seed=seed + 2,
                           phase=600.0 * seed)
        (tmp_path / "meta.csv").write_text(
            "station_id,height\nalpha,640\nbeta,900\ngamma,1200\n")
    return call(["batch", str(stations), str(tmp_path / "meta.csv"),
                 "--out", str(tmp_path / out), "--seed", "11",
                 "--percentiles", "0.95", "--min-run-lengths", "1", "2",
                 "--tau-points", "10", "--n-surrogates", "16",
                 "--workers", str(workers)])


def test_batch_dead_parse_worker_fails_its_station_and_exits_3(
        tmp_path, capsys, monkeypatch):
    # Parsing station "beta" kills the worker that parses it, while the
    # pool may still be running alpha's cells or parsing alpha or gamma.
    parse_series = pipeline.parse_series

    def parse_or_die(path, station_id, dt):
        if station_id == "beta":
            os._exit(1)
        return parse_series(path, station_id=station_id, dt=dt)

    monkeypatch.setattr(pipeline, "parse_series", parse_or_die)
    code = _three_station_batch(tmp_path, workers=2)
    err = capsys.readouterr().err
    assert code == 3
    assert "warning: station beta: A " in err
    summary = json.loads((tmp_path / "out" / "batch.json").read_text())
    statuses = {s["station_id"]: s["status"] for s in summary["stations"]}
    assert statuses == {"alpha": "ok", "beta": "failed", "gamma": "ok"}
    assert (summary["n_cells"], summary["n_cells_ok"]) == (4, 4)
    assert not (tmp_path / "out" / "beta").exists()


def test_batch_malformed_station_reports_alike_at_any_worker_count(
        tmp_path, capsys):
    _three_station_batch(tmp_path, workers=1, out="unused")
    capsys.readouterr()
    beta = tmp_path / "stations" / "beta.csv"
    lines = beta.read_text().splitlines()
    lines[5] = lines[5].replace("Z,", "Z;")
    beta.write_text("\n".join(lines) + "\n")
    reports = []
    for workers in (1, 2):
        code = _three_station_batch(tmp_path, workers, out=f"w{workers}")
        reports.append((code, capsys.readouterr().err,
                        (tmp_path / f"w{workers}" / "batch.json").read_text()))
    assert reports[0] == reports[1]
    code, err, batch = reports[0]
    assert code == 3
    assert f"warning: station beta: {beta}, line 6: " in err
    statuses = {s["station_id"]: s["status"]
                for s in json.loads(batch)["stations"]}
    assert statuses == {"alpha": "ok", "beta": "failed", "gamma": "ok"}


def test_analyze_dead_worker_exits_3_without_traceback(tmp_path, capsys,
                                                     monkeypatch):
    # Every lm 2 cell kills the worker that receives it.
    filter_by_min_length = pipeline.filter_by_min_length
    monkeypatch.setattr(
        pipeline, "filter_by_min_length",
        lambda pp, lm: _ExitOnUnpickle() if lm == 2
        else filter_by_min_length(pp, lm))
    station = tmp_path / "stn_a.csv"
    render_station(station)
    code = call(["analyze", str(station), "--out", str(tmp_path / "out"),
                 "--seed", "11", "--percentiles", "0.95",
                 "--min-run-lengths", "1", "2", "--tau-points", "10",
                 "--n-surrogates", "16", "--workers", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("runclust: A process in the process pool")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


# A non-default value for every config key: the flag's argv words and
# the value the effective configuration then echoes.
FLAG_VALUES = {
    "output_dir": (["elsewhere"], "elsewhere"),
    "seed": (["5"], 5),
    "percentiles": (["0.9", "0.99"], [0.9, 0.99]),
    "min_run_lengths": (["2", "3"], [2, 3]),
    "tau_lo": (["1500"], 1500.0),
    "tau_hi": (["9e5"], 9e5),
    "tau_points": (["12"], 12),
    "n_surrogates": (["50"], 50),
    "band_lo": (["0.05"], 0.05),
    "band_hi": (["0.9"], 0.9),
    "dt": (["300"], 300.0),
    "workers": (["2"], 2),
}


def test_analysis_flag_table_covers_every_config_key(tmp_path, capsys):
    defaults = AnalysisConfig(seed=1, output_dir="o").as_mapping()
    assert set(_ANALYSIS_FLAGS) == set(defaults)
    assert set(FLAG_VALUES) == set(defaults)
    ghost = str(tmp_path / "ghost.csv")
    for key, (flag, _) in _ANALYSIS_FLAGS.items():
        words, value = FLAG_VALUES[key]
        assert value != defaults[key], key
        code = call(["analyze", ghost, "--seed", "1", "--out", "o", flag]
                    + words)
        echo = json.loads(capsys.readouterr().out.splitlines()[0])
        assert code == 2, key      # the config is echoed, then the read fails
        assert echo == {**defaults, key: value}, key
