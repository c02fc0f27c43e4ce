"""Independent checks of the program's outputs.

Every reference here is computed from the workload's inputs with plain
Python and numpy, never from runclust and never from a stored copy of
an earlier output.  A check returns failures as ``(op_id, message)``
pairs; ``op_id`` None marks a failure of the round as a whole (a cross
product, the tree, or the fit of an exact power law).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9          # summation order may differ from the program's
DENSITY_TOL = 1e-12  # run-length densities sum to 1 to this tolerance
FIT_TOL = 1e-6       # exact power law: alpha and tau1 recovered to this


def scan_runs(values, missing, threshold) -> tuple[list[int], list[int]]:
    """Maximal runs strictly above ``threshold``, one sample at a time.

    Missing samples end a run and never belong to one.
    Returns (first sample of each run, run length in samples).
    """
    starts: list[int] = []
    lengths: list[int] = []
    start = -1
    for k, (value, gap) in enumerate(zip(values.tolist(), missing.tolist())):
        if not gap and value > threshold:
            if start < 0:
                start = k
        elif start >= 0:
            starts.append(start)
            lengths.append(k - start)
            start = -1
    if start >= 0:
        starts.append(start)
        lengths.append(len(values) - start)
    return starts, lengths


def quantile_threshold(values, missing, percentile: float) -> float:
    return float(np.quantile(values[~missing], percentile))


def cv_lv(times) -> tuple[float, float]:
    """Population-std coefficient of variation and local variation."""
    d = np.diff(np.asarray(times, dtype=float))
    cv = float(np.sqrt(np.mean((d - d.mean()) ** 2)) / d.mean())
    lv = 3.0 * np.mean(((d[:-1] - d[1:]) / (d[:-1] + d[1:])) ** 2)
    return cv, float(lv)


def allan_factor(times, duration: float, tau: float) -> float:
    """Allan factor at one tau from an integer ``bincount``; NaN when the
    window holds fewer than two counting windows or two counted events."""
    n_windows = int(duration // tau)
    if n_windows < 2:
        return math.nan
    k = np.floor(np.asarray(times) / tau).astype(np.int64)
    k = k[k < n_windows]
    if k.size < 2:
        return math.nan
    counts = np.bincount(k, minlength=n_windows)
    d = np.diff(counts)
    squares = int(np.dot(d, d))          # exact in integers
    return (squares / (n_windows - 1)) / (2.0 * k.size / n_windows)


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _num(text: str) -> float:
    return math.nan if text == "" else float(text)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _curve_failures(taus, af, times, duration) -> list[str]:
    out = []
    for tau, value in zip(taus, af):
        ref = allan_factor(times, duration, tau)
        if not close(value, ref):
            out.append(f"AF at tau={tau!r} is {value!r}, reference {ref!r}")
    return out


def _band_failures(lo, hi, n_samples, n_surrogates) -> list[str]:
    out = []
    for j, (a, b) in enumerate(zip(lo, hi)):
        if not (math.isnan(a) or math.isnan(b)) and a > b:
            out.append(f"band row {j}: lo {a!r} > hi {b!r}")
    for j, n in enumerate(n_samples):
        if not 0 <= n <= n_surrogates:
            out.append(f"band row {j}: n_samples {n} outside [0, {n_surrogates}]")
    return out


def _classification(observed: float, lo: float, hi: float) -> str:
    if observed > hi:
        return "clustered"
    if observed < lo:
        return "quasi-periodic"
    return "poissonian"


def check_cell(op_id: str, cell_dir: Path, times, lengths, min_length: int,
               duration: float, taus_ref, dp_cutoff: float) -> list:
    """Every product of one (percentile, min length) cell against the
    reference events of that cell."""
    fail = []
    keep = [i for i, m in enumerate(lengths) if m >= min_length]
    t = np.asarray([times[i] for i in keep], dtype=float)
    m = [lengths[i] for i in keep]
    stats = json.loads((cell_dir / "stats.json").read_text())
    if stats["n_events"] != len(m):
        fail.append(f"n_events {stats['n_events']}, reference {len(m)}")
    if stats["status"] != "ok":
        return [(op_id, msg) for msg in fail]

    cv, lv = cv_lv(t)
    for name, ref in (("cv", cv), ("lv", lv)):
        entry = stats[name]
        if not close(entry["observed"], ref):
            fail.append(f"{name} {entry['observed']!r}, reference {ref!r}")
        if entry["band_lo"] > entry["band_hi"]:
            fail.append(f"{name} band lo > hi")
        want = _classification(entry["observed"], entry["band_lo"],
                               entry["band_hi"])
        if entry["classification"] != want:
            fail.append(f"{name} classified {entry['classification']}, "
                        f"band says {want}")

    _, rows = read_csv(cell_dir / "af.csv")
    taus = [float(r[0]) for r in rows]
    af = [_num(r[1]) for r in rows]
    band_lo = [_num(r[2]) for r in rows]
    band_hi = [_num(r[3]) for r in rows]
    if len(taus) != len(taus_ref) or not np.allclose(taus, taus_ref,
                                                      rtol=1e-12, atol=0):
        fail.append("tau grid differs from 2*dt .. span/10")
    fail += _curve_failures(taus, af, t, duration)
    for tau, a, hi, row in zip(taus, af, band_hi, rows):
        expect_dp = tau > dp_cutoff and not math.isnan(a) and not math.isnan(hi)
        if expect_dp != (row[4] != ""):
            fail.append(f"departure presence wrong at tau={tau!r}")
        elif expect_dp and not close(float(row[4]), a - hi):
            fail.append(f"departure at tau={tau!r} is not AF - band_hi")

    _, rows = read_csv(cell_dir / "band.csv")
    lo = [_num(r[1]) for r in rows]
    hi = [_num(r[2]) for r in rows]
    n_samples = [int(r[3]) for r in rows]
    if not (np.array_equal(lo, band_lo, equal_nan=True)
            and np.array_equal(hi, band_hi, equal_nan=True)):
        fail.append("band.csv and af.csv disagree on the band")
    fail += _band_failures(lo, hi, n_samples, stats["n_surrogates"])

    _, rows = read_csv(cell_dir / "pm.csv")
    probs = [float(r[1]) for r in rows]
    if abs(sum(probs) - 1.0) > DENSITY_TOL:
        fail.append(f"run-length density sums to {sum(probs)!r}")
    support, counts = np.unique(m, return_counts=True)
    if [int(r[0]) for r in rows] != support.tolist() or not np.allclose(
            probs, counts / len(m), rtol=1e-12, atol=0):
        fail.append("run-length density differs from the event histogram")
    return [(op_id, msg) for msg in fail]


def check_station_tree(out: Path, series_list, size, ops, dp_cutoff: float,
                       batch: bool) -> list:
    """Station and batch product trees: thresholds, event lists, cells,
    and for a batch the cross products."""
    fail = []
    ops_by_id = {op["id"]: op for op in ops}
    mean_densities = {}
    thresholds = {}
    for s in series_list:
        summary_path = out / s.station_id / "summary.json"
        if not summary_path.exists():
            fail += [(f"{s.station_id}/p={pct!r}/m>={lm}", "summary.json missing")
                     for pct in size.percentiles for lm in size.min_run_lengths]
            continue
        summary = json.loads(summary_path.read_text())
        duration = s.values.size * s.dt
        taus_ref = np.geomspace(2.0 * s.dt, duration / 10.0, size.tau_points)
        for pct in size.percentiles:
            ref = quantile_threshold(s.values, s.missing, pct)
            thresholds[(s.station_id, pct)] = ref
            label = next(c["path"].split("/")[0] for c in summary["cells"]
                         if c["percentile"] == pct)
            if summary["thresholds"][label] != ref:
                fail.append((None, f"{s.station_id} {label}: threshold "
                             f"{summary['thresholds'][label]!r}, "
                             f"np.quantile {ref!r}"))
            starts, lengths = scan_runs(s.values, s.missing, ref)
            times = [k * s.dt for k in starts]
            _, rows = read_csv(out / s.station_id / f"events_{label}.csv")
            written = ([float(r[0]) for r in rows], [int(r[1]) for r in rows])
            if written != (times, lengths):
                fail.append((None, f"{s.station_id} {label}: written events "
                             f"differ from the scanner ({len(rows)} written, "
                             f"{len(times)} scanned)"))
            support, counts = np.unique(lengths, return_counts=True)
            mean_densities.setdefault(label, []).append(
                dict(zip(support.tolist(), (counts / len(lengths)).tolist())))
            for lm in size.min_run_lengths:
                op = ops_by_id[f"{s.station_id}/p={pct!r}/m>={lm}"]
                if "path" not in op:
                    continue
                fail += check_cell(op["id"], out / s.station_id / op["path"],
                                   times, lengths, lm, duration, taus_ref,
                                   dp_cutoff)
    if batch:
        fail += _check_cross(out / "cross", mean_densities, thresholds)
    return fail


def _check_cross(cross: Path, mean_densities: dict, thresholds: dict) -> list:
    fail = []
    for label, densities in mean_densities.items():
        _, rows = read_csv(cross / f"mean_pm_{label}.csv")
        probs = {int(r[0]): float(r[1]) for r in rows}
        if abs(sum(probs.values()) - 1.0) > DENSITY_TOL:
            fail.append((None, f"mean density {label} sums to "
                         f"{sum(probs.values())!r}"))
        support = sorted(set().union(*densities))
        ref = [sum(d.get(m, 0.0) for d in densities) / len(densities)
               for m in support]
        if sorted(probs) != support or not np.allclose(
                [probs[m] for m in support], ref, rtol=1e-12, atol=1e-15):
            fail.append((None, f"mean density {label} differs from the "
                         "average of the station histograms"))
    _, rows = read_csv(cross / "thresholds_vs_height.csv")
    written = {(r[0], float(r[2])): float(r[3]) for r in rows}
    if written != thresholds:
        fail.append((None, "thresholds_vs_height.csv differs from np.quantile"))
    return fail


def check_fractal(op_id: str, pp, curve, fit, taus_ref, min_gap: float) -> list:
    """One fractal-renewal curve: the events, every AF value, and the fit
    against an independent least-squares line."""
    if curve is None:      # the curve failed; its status counts it
        return []
    fail = []
    t = pp.times
    if t.size < 2 or np.any(np.diff(t) < min_gap * (1.0 - 1e-9)) \
            or t[0] < 0 or t[-1] >= pp.window_end:
        fail.append("events not increasing by min_gap inside the window")
    if not np.array_equal(curve.taus, taus_ref):
        fail.append("tau grid differs from the calibration grid")
    fail += _curve_failures(curve.taus.tolist(), curve.af.tolist(),
                            t - pp.window_start, pp.window_end - pp.window_start)
    if isinstance(fit, Exception):
        return [(op_id, msg) for msg in fail]

    defined = curve.taus[np.isfinite(curve.af)]
    lo, hi = math.log10(defined[0]), math.log10(defined[-1])
    mid = (lo + hi) / 2.0
    f_lo, f_hi = ((defined[0], defined[-1]) if hi - lo <= 2.0
                  else (10.0 ** (mid - 1.0), 10.0 ** (mid + 1.0)))
    with np.errstate(invalid="ignore"):
        use = ((curve.taus >= f_lo) & (curve.taus <= f_hi)
               & (curve.af > 1.01))
    slope, intercept = np.polyfit(np.log(curve.taus[use]),
                                  np.log(curve.af[use] - 1.0), 1)
    if fit.n_used != int(use.sum()):
        fail.append(f"fit used {fit.n_used} points, reference {int(use.sum())}")
    if not close(fit.alpha, slope):
        fail.append(f"fit alpha {fit.alpha!r}, least squares {slope!r}")
    if slope > 0 and not close(fit.tau1, math.exp(-intercept / slope), FIT_TOL):
        fail.append(f"fit tau1 {fit.tau1!r}, least squares "
                    f"{math.exp(-intercept / slope)!r}")
    return [(op_id, msg) for msg in fail]


def check_exact_power_law(fit_power_law, curve_type) -> list:
    """The fit must recover alpha and tau1 of an exact power law."""
    fail = []
    taus = np.geomspace(1.0e3, 1.0e6, 60)
    for alpha, tau1 in ((0.37, 150.0), (0.81, 900.0)):
        curve = curve_type(taus=taus, af=1.0 + (taus / tau1) ** alpha)
        fit = fit_power_law(curve)
        if not (close(fit.alpha, alpha, FIT_TOL) and close(fit.tau1, tau1, FIT_TOL)):
            fail.append((None, f"exact power law alpha={alpha} tau1={tau1}: "
                         f"fit gave alpha={fit.alpha!r} tau1={fit.tau1!r}"))
    return fail
