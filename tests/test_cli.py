"""Exit-code and wiring tests for the command line interface.

The CLI is driven in-process through ``main(argv)`` so exit codes,
printed output, and produced files can all be checked without spawning
interpreters; a single subprocess smoke test covers the
``python -m runclust`` entry point.  Exit codes under test: 0 success,
1 usage or configuration error, 2 unreadable or malformed input data,
3 run finished but some products are missing.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from runclust.cli import main
from runclust.ingest import parse_series, write_series
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
    err = capsys.readouterr().err
    assert "--seed is required" in err
    assert "must be 0 or at least 2" in err
    assert "events carry no sampling step" in err
    assert "at least 1 point" in err
    assert "hi must be >= lo" in err


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
