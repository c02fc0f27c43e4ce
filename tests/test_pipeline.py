"""Tests for the station/batch drivers and their output layout."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from runclust import AnalysisConfig, RunLengthDensity, SynthSpec, TauGridSpec, \
    average_density, derive_cell_seed, generate_series, run_batch, run_station, \
    write_series
from runclust import pipeline
from runclust.pipeline import percentile_label, run_length_label


def small_config(out, **overrides):
    base = dict(seed=7, output_dir=str(out), percentiles=(0.95,),
                min_run_lengths=(1, 2, 25), tau_grid=TauGridSpec(points=10),
                n_surrogates=24, workers=1)
    base.update(overrides)
    return AnalysisConfig(**base)


def synth_station(seed, station_id, period=60000.0, window=6.0e7):
    spec = SynthSpec.periodic(period=period, window=window, seed=seed,
                              phase=600.0 * seed)
    series, _ = generate_series(spec, dt=600.0)
    return series.__class__(station_id=station_id, t0=series.t0, dt=series.dt,
                            values=series.values, missing=series.missing)


def tree_hashes(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_derive_cell_seed_is_stable():
    assert derive_cell_seed(42, "S", 0.95, 1) == 17801226246935058073
    assert derive_cell_seed(42, "S", 0.95, 2) == 5324986575032415161
    assert derive_cell_seed(42, "S", 0.95, 1) != derive_cell_seed(42, "T", 0.95, 1)
    assert derive_cell_seed(42, "S", 0.95, 1) != derive_cell_seed(43, "S", 0.95, 1)


def test_labels():
    assert percentile_label(0.95) == "p95"
    assert percentile_label(0.975) == "p97.5"
    assert run_length_label(7) == "lm07"


def test_tau_grid_spec():
    grid = TauGridSpec().resolve(600.0, 6.0e6)
    assert grid.size == 60
    assert abs(grid[0] - 1200.0) < 1e-9
    assert abs(grid[-1] - 6.0e5) < 1e-9

    explicit = TauGridSpec(lo=2000.0, hi=8000.0, points=3).resolve(600.0, 6.0e6)
    assert np.allclose(explicit, [2000.0, 4000.0, 8000.0])

    with pytest.raises(ValueError, match="at least 1 point"):
        TauGridSpec(points=0)
    with pytest.raises(ValueError, match="hi must be >= lo"):
        TauGridSpec(lo=100.0, hi=10.0)
    with pytest.raises(ValueError, match="empty"):
        TauGridSpec(hi=600.0).resolve(600.0, 6.0e6)

    single = TauGridSpec(lo=5000.0, hi=9000.0, points=1).resolve(600.0, 6.0e6)
    assert single.tolist() == [5000.0]
    with pytest.raises(ValueError, match="no sampling step"):
        TauGridSpec().resolve(0.0, 6.0e5)
    assert TauGridSpec(lo=1200.0).resolve(0.0, 6.0e5)[-1] == pytest.approx(6.0e4)


def test_analysis_config_validation(tmp_path):
    with pytest.raises(ValueError, match="percentile"):
        small_config(tmp_path, percentiles=())
    with pytest.raises(ValueError, match="percentiles must lie"):
        small_config(tmp_path, percentiles=(1.5,))
    with pytest.raises(ValueError, match="duplicate"):
        small_config(tmp_path, percentiles=(0.95, 0.95))
    with pytest.raises(ValueError, match=">= 1"):
        small_config(tmp_path, min_run_lengths=(0,))
    with pytest.raises(ValueError, match="min_events"):
        small_config(tmp_path, min_events=2)
    with pytest.raises(ValueError, match="workers"):
        small_config(tmp_path, workers=0)
    for overrides, message in (({"band": (0.9, 0.1)}, "0 < lo < hi < 1"),
                               ({"n_surrogates": 1}, "at least 2 surrogates"),
                               ({"n_surrogates": 0}, "at least 2 surrogates"),
                               ({"seed": -1}, "64-bit unsigned integer"),
                               ({"dt": 0.0}, "dt must be positive"),
                               ({"tau_grid": TauGridSpec(lo=10.0)},
                                "below the sampling step"),
                               ({"tau_grid": TauGridSpec(hi=100.0)},
                                "tau grid is empty")):
        with pytest.raises(ValueError, match=message):
            small_config(tmp_path, **overrides)
    # The grid may start at the sampling step and end where it starts.
    small_config(tmp_path, tau_grid=TauGridSpec(lo=600.0, hi=600.0))
    small_config(tmp_path, tau_grid=TauGridSpec(hi=1200.0))


def test_analysis_config_type_checks(tmp_path):
    for overrides, message in (({"seed": 1.0}, "seed must be an integer"),
                               ({"seed": True}, "seed must be an integer"),
                               ({"dp_cutoff": "x"}, "dp_cutoff must be a real"),
                               ({"workers": 1.5}, "workers must be an integer"),
                               ({"fit": None}, "fit must be true or false"),
                               ({"band": (0.1, "0.9")}, "band_hi must be a real"),
                               ({"band": (0.1,)}, "band must be a pair"),
                               ({"percentiles": (0.9, True)},
                                "percentiles must be a real")):
        with pytest.raises(TypeError, match=message):
            small_config(tmp_path, **overrides)
    with pytest.raises(TypeError, match="tau_points must be an integer"):
        TauGridSpec(points=True)
    with pytest.raises(TypeError, match="tau_hi must be a real number or null"):
        TauGridSpec(hi="1e5")
    # Integers are real numbers, and numpy scalars are numbers too.
    config = small_config(tmp_path, seed=np.int64(7), dt=600,
                          dp_cutoff=np.float64(3e5), workers=np.int32(2),
                          percentiles=(np.float64(0.95),))
    assert config.as_mapping()["dt"] == 600


def test_analysis_config_mapping_round_trip(tmp_path):
    config = small_config(tmp_path, tau_grid=TauGridSpec(lo=1500.0, points=12),
                          band=(0.05, 0.95), workers=3)
    back = AnalysisConfig.from_mapping(config.as_mapping())
    assert back == config

    partial = AnalysisConfig.from_mapping(
        {"seed": 3, "output_dir": "x", "band_lo": 0.1, "percentiles": [0.9, 0.99]})
    assert partial == AnalysisConfig(seed=3, output_dir="x", band=(0.1, 0.975),
                                     percentiles=(0.9, 0.99))
    assert partial.tau_grid == TauGridSpec()

    with pytest.raises(ValueError, match="unknown config keys"):
        AnalysisConfig.from_mapping({"seed": 1, "output_dir": "x", "bogus": 2})
    with pytest.raises(ValueError, match="requires a seed"):
        AnalysisConfig.from_mapping({"output_dir": "x"})
    with pytest.raises(ValueError, match="requires an output_dir"):
        AnalysisConfig.from_mapping({"seed": 1})


def test_run_station_layout_and_fault_isolation(tmp_path):
    series = synth_station(0, "alpha")
    out = tmp_path / "out"
    result = run_station(series, None, small_config(out))

    statuses = {(c["percentile"], c["min_run_length"]): c["status"]
                for c in result["summary"]["cells"]}
    assert statuses[(0.95, 1)] == "ok"
    assert statuses[(0.95, 2)] == "ok"
    # No run ever reaches 25 samples, but the cell records its status
    # instead of aborting the others.
    assert statuses[(0.95, 25)] == "insufficient_events"

    station_dir = out / "alpha"
    assert (station_dir / "summary.json").is_file()
    assert (station_dir / "events_p95.csv").is_file()
    assert (station_dir / "events_p95.json").is_file()
    ok_cell = station_dir / "p95" / "lm01"
    assert (ok_cell / "stats.json").is_file()
    assert (ok_cell / "af.csv").is_file()
    assert (ok_cell / "band.csv").is_file()
    assert (ok_cell / "pm.csv").is_file()
    bad_cell = station_dir / "p95" / "lm25"
    assert (bad_cell / "stats.json").is_file()
    assert not (bad_cell / "af.csv").exists()

    stats = json.loads((ok_cell / "stats.json").read_text())
    assert stats["status"] == "ok"
    assert stats["cv"]["classification"] in ("clustered", "poissonian",
                                             "quasi-periodic")
    assert stats["estimators"] == {"quantile": "linear", "std": "population"}
    assert stats["seed_cell"] == derive_cell_seed(7, "alpha", 0.95, 1)

    af_lines = (ok_cell / "af.csv").read_text().splitlines()
    assert af_lines[0] == "tau_seconds,af,band_lo,band_hi,dp"
    assert len(af_lines) == 1 + 10

    summary = json.loads((station_dir / "summary.json").read_text())
    assert summary["thresholds"]["p95"] == 0.0
    assert summary["height_m"] is None


def test_run_station_rerun_identical(tmp_path):
    series = synth_station(1, "beta")
    out = tmp_path / "out"
    config = small_config(out, min_run_lengths=(1, 2))
    run_station(series, None, config)
    first = tree_hashes(out)
    run_station(series, None, config)
    assert tree_hashes(out) == first


def test_run_station_worker_count_does_not_change_output(tmp_path):
    series = synth_station(2, "gamma")
    serial, pooled = tmp_path / "w1", tmp_path / "w2"
    run_station(series, None, small_config(serial, min_run_lengths=(1, 2)))
    run_station(series, None, small_config(pooled, min_run_lengths=(1, 2),
                                           workers=2))
    assert tree_hashes(serial) == tree_hashes(pooled)


def _station_tasks(monkeypatch, series, config):
    """Run the station serially, capturing each cell's task on its way
    into ``_evaluate_cell``."""
    tasks = []
    evaluate = pipeline._evaluate_cell

    def capture(task):
        tasks.append(task)
        return evaluate(task)

    monkeypatch.setattr(pipeline, "_evaluate_cell", capture)
    run_station(series, None, config)
    monkeypatch.setattr(pipeline, "_evaluate_cell", evaluate)
    return tasks


def _cell_files(cell_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(cell_dir).iterdir())}


def test_evaluate_cell_writes_its_own_products(tmp_path, monkeypatch):
    series = synth_station(0, "alpha")
    tree = tmp_path / "tree"
    tasks = _station_tasks(monkeypatch, series, small_config(tree))
    statuses = set()
    for task in tasks:
        cell_dir = tmp_path / "direct" / task["cell_dir"].relative_to(tree)
        payload = pipeline._evaluate_cell({**task, "cell_dir": cell_dir})
        statuses.add(payload["status"])
        files = _cell_files(cell_dir)
        assert sorted(files) == (["af.csv", "band.csv", "pm.csv", "stats.json"]
                                 if payload["status"] == "ok" else ["stats.json"])
        assert files == _cell_files(task["cell_dir"])
    assert statuses == {"ok", "insufficient_events"}

    # A cell whose statistics raise is written as an error, stats only.
    def broken(*args, **kwargs):
        raise RuntimeError("broken sweep")

    monkeypatch.setattr(pipeline, "cell_bands", broken)
    broken_tree = tmp_path / "broken"
    tasks = _station_tasks(monkeypatch, series,
                           small_config(broken_tree, min_run_lengths=(1,)))
    cell_dir = tmp_path / "direct_error"
    payload = pipeline._evaluate_cell({**tasks[0], "cell_dir": cell_dir})
    assert payload["status"] == "error"
    assert payload["message"] == "RuntimeError: broken sweep"
    assert list(_cell_files(cell_dir)) == ["stats.json"]
    assert _cell_files(cell_dir) == _cell_files(tasks[0]["cell_dir"])


def _write_batch_inputs(root, bad_station=False):
    stations = root / "stations"
    stations.mkdir()
    for seed, sid in ((0, "s_one"), (1, "s_two")):
        write_series(synth_station(seed, sid), stations / f"{sid}.csv")
    write_series(synth_station(2, "s_orphan"), stations / "s_orphan.csv")
    if bad_station:
        (stations / "s_bad.csv").write_text(
            "timestamp,value\n2010-01-01T00:00:00Z,-4.0\n")
    meta = root / "meta.csv"
    heights = ["station_id,height,label", "s_one,640,", "s_two,422,Plateau",
               "s_bad,100,"]
    meta.write_text("\n".join(heights) + "\n")
    return stations, meta


def test_run_batch_products_and_warnings(tmp_path):
    stations, meta = _write_batch_inputs(tmp_path, bad_station=True)
    out = tmp_path / "out"
    config = small_config(out, min_run_lengths=(1, 2))
    summary = run_batch(stations, meta, config)

    statuses = {s["station_id"]: s["status"] for s in summary["stations"]}
    assert statuses == {"s_one": "ok", "s_two": "ok",
                        "s_orphan": "skipped_no_metadata", "s_bad": "failed"}
    assert summary["partial"] is True
    assert summary["n_cells"] == 4
    assert any("no metadata" in w for w in summary["warnings"])
    assert any("negative value" in w for w in summary["warnings"])

    assert json.loads((out / "config.json").read_text()) == config.as_mapping()
    assert (out / "batch.json").is_file()

    cross = out / "cross"
    thresholds = (cross / "thresholds_vs_height.csv").read_text().splitlines()
    assert thresholds[0] == "station_id,height_m,percentile,threshold"
    assert len(thresholds) == 3  # two analysed stations, one percentile
    assert thresholds[1].startswith("s_one,640.0,0.95,")

    mi = (cross / "mean_interevent_vs_height_p95.csv").read_text().splitlines()
    assert mi[0] == "station_id,height_m,min_run_length,mean_interevent_seconds"
    assert len(mi) == 5  # 2 stations x 2 min lengths

    dp = (cross / "departure_p95_lm01.csv").read_text().splitlines()
    assert dp[0] == "station_id,height_m,tau_seconds,dp"
    assert len(dp) > 1

    # The averaged density is the arithmetic mean of the per-station
    # unfiltered densities, which the lm01 cells expose verbatim.
    def density_from(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        return RunLengthDensity(lengths=[int(m) for m, _ in rows],
                                probs=[float(p) for _, p in rows])

    mean = density_from(cross / "mean_pm_p95.csv")
    d_one = density_from(out / "s_one" / "p95" / "lm01" / "pm.csv")
    d_two = density_from(out / "s_two" / "p95" / "lm01" / "pm.csv")
    assert mean == average_density([d_one, d_two])


def test_run_batch_records_undecodable_station_as_failed(tmp_path):
    stations, meta = _write_batch_inputs(tmp_path)
    bad = stations / "s_bad.csv"
    bad.write_bytes(b"timestamp,value\n2010-01-01T00:00:00Z,\xff1.0\n")
    summary = run_batch(stations, meta,
                        small_config(tmp_path / "out", min_run_lengths=(1,)))
    entry, = [s for s in summary["stations"] if s["station_id"] == "s_bad"]
    assert entry["status"] == "failed"
    assert entry["message"].startswith(f"{bad}: cannot decode text")
    assert summary["partial"] is True


def test_run_batch_rerun_byte_identical(tmp_path):
    stations, meta = _write_batch_inputs(tmp_path)
    out = tmp_path / "out"
    config = small_config(out, min_run_lengths=(1,))
    run_batch(stations, meta, config)
    first = tree_hashes(out)
    run_batch(stations, meta, config)
    assert tree_hashes(out) == first


def test_run_batch_worker_count_does_not_change_output(tmp_path):
    stations, meta = _write_batch_inputs(tmp_path)
    serial, pooled = tmp_path / "w1", tmp_path / "w2"
    run_batch(stations, meta, small_config(serial, min_run_lengths=(1, 2)))
    run_batch(stations, meta, small_config(pooled, min_run_lengths=(1, 2),
                                           workers=2))
    serial_tree, pooled_tree = tree_hashes(serial), tree_hashes(pooled)
    # config.json records the worker count; every other product must match.
    assert serial_tree.pop("config.json") != pooled_tree.pop("config.json")
    assert serial_tree == pooled_tree


def test_run_batch_empty_directory(tmp_path):
    stations = tmp_path / "stations"
    stations.mkdir()
    meta = tmp_path / "meta.csv"
    meta.write_text("station_id,height\n")
    with pytest.raises(ValueError, match="no station CSVs"):
        run_batch(stations, meta, small_config(tmp_path / "out"))


# SHA-256 of every file of the tree below, in `sha256sum` format, at one
# worker.  numpy's AVX-512 loops and the C library's ``pow``, which
# numpy uses on CPUs without AVX-512, give some taus of the geometric
# tau grid different last bits, so the tree has one pinned form for
# each.  A change that means to alter product bytes updates both files
# and names the changed files.
PINNED_TREES = [Path(__file__).with_name("data") / name for name in
                ("batch_tree.sha256", "batch_tree_no_avx512.sha256")]
# ``config.json`` at two workers: it records the worker count.
PINNED_CONFIG_W2 = (
    "7d484bf6c49d4c2e233d89d1c6b32347069dff84ff554d2450177f4c55c39dbd")


def _pinned_batch_tree(workers):
    """The acceptance batch (two stations, 2 percentiles x 2 minimum
    lengths, 12 taus, 50 surrogates), run in the working directory; the
    digests of its product tree."""
    Path("stations").mkdir()
    for name, seed, phase in [("alpha", 2, 0.0), ("beta", 5, 1200.0)]:
        spec = SynthSpec.periodic(period=60000.0, window=6.0e6, seed=seed,
                                  phase=phase, mark_q=0.6)
        write_series(generate_series(spec, dt=600.0)[0],
                     Path("stations") / f"{name}.csv")
    Path("meta.csv").write_text("station_id,height\nalpha,640\nbeta,422\n")
    # A relative output directory keeps config.json free of the test's path.
    config = AnalysisConfig(seed=11, output_dir="out",
                            percentiles=(0.95, 0.975), min_run_lengths=(1, 2),
                            tau_grid=TauGridSpec(points=12), n_surrogates=50,
                            workers=workers)
    assert run_batch("stations", "meta.csv", config)["partial"] is False
    return tree_hashes("out")


def test_batch_tree_matches_pinned_digests(tmp_path, monkeypatch):
    forms = [dict(line.split()[::-1] for line in path.read_text().splitlines())
             for path in PINNED_TREES]
    trees = {}
    for workers in (1, 2):
        (tmp_path / f"w{workers}").mkdir()
        monkeypatch.chdir(tmp_path / f"w{workers}")
        trees[workers] = _pinned_batch_tree(workers)
    # The form this CPU's tau grid gives is the one most files match;
    # every file must match it.
    pinned = max(forms, key=lambda form: sum(trees[1].get(name) == digest
                                             for name, digest in form.items()))
    assert trees[1] == pinned
    assert trees[2].pop("config.json") == PINNED_CONFIG_W2
    pinned.pop("config.json")
    assert trees[2] == pinned
