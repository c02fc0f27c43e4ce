"""Self-test of the benchmark's output checks.

Runs each workload at its small size, shows that the checks accept the
program's outputs, then corrupts one output at a time and shows that a
check rejects it: a perturbed Allan-factor value, a dropped event, a
changed band edge, and more.  Prints one line per case and exits 0 only
when every clean output passes and every corruption is caught.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks     # noqa: E402
import workloads  # noqa: E402
from runclust import allan, pipeline, runs  # noqa: E402

round_py = importlib.import_module("round")
run_py = importlib.import_module("run")

SCRATCH = ROOT / "perfbench_scratch"
SEED = 7


def _edit_csv(path: Path, row: int, column: int, change) -> None:
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = change(fields[column])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _first_ok_cell(out: Path, station: str) -> Path:
    summary = json.loads((out / station / "summary.json").read_text())
    return out / station / next(c["path"] for c in summary["cells"]
                                if c["status"] == "ok")


def _widen_band(cell: Path) -> None:
    """Band edge changed: lower edge moved above the upper one, in both
    files that carry the band."""
    for name, lo_col in (("af.csv", 2), ("band.csv", 1)):
        rows = (cell / name).read_text().splitlines()
        fields = rows[1].split(",")
        fields[lo_col] = repr(float(fields[lo_col + 1]) + 1.0)
        rows[1] = ",".join(fields)
        (cell / name).write_text("\n".join(rows) + "\n")


def _drop_event(out: Path, station: str) -> None:
    path = next((out / station).glob("events_*.csv"))
    lines = path.read_text().splitlines()
    del lines[len(lines) // 2]
    path.write_text("\n".join(lines) + "\n")


def _station_cases(batch: bool) -> dict:
    scale = lambda f: lambda text: repr(float(text) * f)  # noqa: E731
    cases = {
        "perturbed AF value": lambda out, sid: _edit_csv(
            _first_ok_cell(out, sid) / "af.csv", 2, 1, scale(1.0 + 1e-6)),
        "dropped event": _drop_event,
        "changed band edge": lambda out, sid: _widen_band(_first_ok_cell(out, sid)),
        "band n_samples above n_surrogates": lambda out, sid: _edit_csv(
            _first_ok_cell(out, sid) / "band.csv", 1, 3, lambda t: str(int(t) + 99)),
        "run-length density off 1": lambda out, sid: _edit_csv(
            _first_ok_cell(out, sid) / "pm.csv", 1, 1, scale(1.001)),
        "threshold shifted": lambda out, sid: _edit_json(
            out / sid / "summary.json",
            lambda d: d["thresholds"].update(
                {k: v * (1 + 1e-9) for k, v in d["thresholds"].items()})),
        "observed Cv changed": lambda out, sid: _edit_json(
            _first_ok_cell(out, sid) / "stats.json",
            lambda d: d["cv"].update(observed=d["cv"]["observed"] * (1 + 1e-6))),
        "summary.json missing": lambda out, sid: (out / sid / "summary.json").unlink(),
    }
    if batch:
        cases["mean density changed"] = lambda out, sid: _edit_csv(
            next((out / "cross").glob("mean_pm_*.csv")), 1, 1, scale(0.999))
    return cases


def _edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")
    return ok


def station_workload(workload: str) -> bool:
    work = SCRATCH / workload
    work.mkdir(parents=True)
    prep = workloads.prepare(workload, SEED, "small", work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        workloads.run_timed(workload, prep)
    finally:
        os.chdir(cwd)
    out = work / "out"
    batch = workload == "batch-pool"
    sid = prep.series[0].station_id

    def run_checks(tree: Path) -> list:
        ops = workloads.station_ops(prep, tree)
        return checks.check_station_tree(tree, prep.series, prep.size, ops,
                                         allan.DP_CUTOFF, batch)

    ok = True
    s = prep.series[0]
    for pct in prep.size.percentiles:
        threshold = checks.quantile_threshold(s.values, s.missing, pct)
        pp = runs.extract_runs(s, runs.ThresholdSpec(threshold, pct))
        starts, lengths = checks.scan_runs(s.values, s.missing, threshold)
        ok &= _report(f"{workload}: scanner equals extract_runs at p={pct}",
                      pp.times.tolist() == [k * s.dt for k in starts]
                      and pp.lengths.tolist() == lengths,
                      f"{len(starts)} events")
    clean = run_checks(out)
    ok &= _report(f"{workload}: clean outputs pass", not clean,
                  "; ".join(m for _, m in clean[:3]))
    digest = workloads.tree_digest(out)

    for name, corrupt in _station_cases(batch).items():
        copy = work / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        corrupt(copy, sid)
        found = run_checks(copy)
        changed = workloads.tree_digest(copy) != digest
        ok &= _report(f"{workload}: {name} rejected", bool(found) and changed,
                      found[0][1] if found else "not caught")
    return ok


def fractal_workload() -> bool:
    prep = workloads.prepare("fractal-af", SEED, "small", SCRATCH)
    result = workloads.run_timed("fractal-af", prep)
    lo, hi, points = prep.size.taus
    taus = np.geomspace(lo, hi, points)
    pp, curve, fit = result["curves"][0]
    ok = _report("fractal-af: clean curve passes",
                 not checks.check_fractal("c", pp, curve, fit, taus, 1.0),
                 f"{pp.n_events} events")

    af = curve.af.copy()
    j = int(np.flatnonzero(np.isfinite(af))[len(af) // 3])
    af[j] *= 1.0 + 1e-6
    bad_curve = dataclasses.replace(curve, af=af)
    ok &= _report("fractal-af: perturbed AF value rejected",
                  bool(checks.check_fractal("c", pp, bad_curve, fit, taus, 1.0)))
    bad_fit = dataclasses.replace(fit, alpha=fit.alpha * (1.0 + 1e-6))
    ok &= _report("fractal-af: perturbed fit slope rejected",
                  bool(checks.check_fractal("c", pp, curve, bad_fit, taus, 1.0)))
    ok &= _report("fractal-af: digest sees the perturbed AF value",
                  workloads.curve_ops(prep, {"curves": [(pp, bad_curve, fit)]})
                  != workloads.curve_ops(prep, result))

    ok &= _report("exact power law recovered",
                  not checks.check_exact_power_law(allan.fit_power_law,
                                                   allan.AfCurve))

    def biased_fit(curve_):
        got = allan.fit_power_law(curve_)
        return dataclasses.replace(got, tau1=got.tau1 * (1.0 + 1e-5))

    ok &= _report("exact power law: biased tau1 rejected",
                  bool(checks.check_exact_power_law(biased_fit, allan.AfCurve)))
    return ok


def crashed_round(workload: str, module, name: str) -> bool:
    """A round whose timed section raises something other than a
    ValueError must fail every operation and report ``correct`` false."""
    work = SCRATCH / f"crash-{workload}"
    work.mkdir()
    result = work / "result.json"

    def crash(*args, **kwargs):
        raise TypeError("deliberate crash")

    original = getattr(module, name)
    setattr(module, name, crash)
    cwd = os.getcwd()
    try:
        round_py.main(["--workload", workload, "--seed", str(SEED),
                       "--size", "small", "--check", "1", "--work", str(work),
                       "--result", str(result)])
    finally:
        os.chdir(cwd)
        setattr(module, name, original)
    out = json.loads(result.read_text())
    attempted, failed, correct, _ = run_py.tally([out, out])
    return _report(f"{workload}: {module.__name__.split('.')[-1]}.{name} raising "
                   "TypeError fails every operation",
                   not correct and attempted > 0 and failed == attempted,
                   f"attempted {attempted}, failed {failed}, correct {correct}")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir()
    try:
        ok = station_workload("station-matrix")
        ok &= station_workload("batch-pool")
        ok &= fractal_workload()
        ok &= crashed_round("fractal-af", allan, "af_curve")
        ok &= crashed_round("station-matrix", pipeline, "run_station")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
