"""Calibrate the fractal-renewal generator's exponent mapping.

The generator draws i.i.d. Pareto interevent times with tail exponent
gamma and promises a requested Allan-factor slope alpha.  Theory gives
alpha = 2 - gamma asymptotically for 1 < gamma < 2, but convergence is
logarithmically slow near gamma = 1 and the slope measured over any
finite timescale range sits well below the asymptote, so the shipped
table is measured, not derived.

Measurement protocol (shared with the tests that consume the table):
min_gap 1 s, window 1e7 s, Allan curve on a 60-point geometric grid
over [1e3, 1e6] s, power-law fit over the default middle two
log-decades, slope per realisation, median over seeds.  Per-seed
scatter is large for mid gamma (single giant gaps dominate whole
decades), so the median uses many seeds and the final table is a cubic
least-squares smooth of the medians, tabulated back on the gamma grid.

Run from the repo root (1 min 15 s on a 2-CPU Xeon with numpy 2.4):

    python3 tools/calibrate_fractal_renewal.py \
        --out src/runclust/data/fractal_renewal_calibration.json
"""

import argparse
import json
import sys

import numpy as np

from runclust import MarkedPointProcess, af_curve, fit_power_law
from runclust.surrogates import surrogate_rng
from runclust.synth import _fractal_renewal_times

WINDOW = 1.0e7
MIN_GAP = 1.0
TAUS = np.geomspace(1.0e3, 1.0e6, 60)

# Dense near gamma = 1 where the slope curve is steepest.
GAMMA_GRID = (1.02, 1.05, 1.08, 1.12, 1.16, 1.20, 1.25, 1.30, 1.36,
              1.42, 1.50, 1.60, 1.70, 1.80, 1.90)


def seed_slope(gamma: float, seed: int) -> tuple[float, int]:
    rng = surrogate_rng(seed, stream=0)
    times = _fractal_renewal_times(rng, gamma, MIN_GAP, WINDOW)
    if times.size < 100:
        return np.nan, times.size
    pp = MarkedPointProcess(
        times=times, lengths=np.ones(times.size, dtype=np.int64),
        window_start=0.0, window_end=WINDOW, dt=0.0,
        station_id="calibration", threshold=None, gap_fraction=0.0)
    try:
        fit = fit_power_law(af_curve(pp, TAUS))
    except ValueError:
        return np.nan, times.size
    return (fit.alpha if fit.detected else np.nan), times.size


def median_slope(gamma: float, n_seeds: int, base_seed: int) -> tuple[float, int]:
    vals = []
    n_events = 0
    for s in range(n_seeds):
        alpha, n = seed_slope(gamma, base_seed + s)
        if np.isfinite(alpha):
            vals.append(alpha)
        n_events = max(n_events, n)
    if len(vals) < n_seeds // 2:
        return np.nan, n_events
    return float(np.median(vals)), n_events


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32,
                        help="realisations per gamma")
    parser.add_argument("--base-seed", type=int, default=20260301)
    parser.add_argument("--check-seeds", type=int, default=48,
                        help="realisations per self-check exponent")
    parser.add_argument("--skip-check", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    gammas, medians = [], []
    for i, gamma in enumerate(GAMMA_GRID):
        med, n = median_slope(gamma, args.seeds, args.base_seed + 100000 * i)
        if not np.isfinite(med):
            print(f"gamma={gamma:.2f}: unusable, dropped")
            continue
        gammas.append(gamma)
        medians.append(med)
        print(f"gamma={gamma:.2f}: alpha={med:.4f}  n_events/seed ~{n}")

    if len(gammas) < 6:
        print("too few usable gamma points; nothing written", file=sys.stderr)
        return 1

    # Cubic least-squares smooth of the medians; Monte-Carlo noise on
    # individual medians would otherwise leak straight into the table.
    coeffs = np.polyfit(gammas, medians, 3)
    smooth = np.polyval(coeffs, gammas)
    resid = np.asarray(medians) - smooth
    print(f"smoothing residuals: max {np.abs(resid).max():.4f}, "
          f"rms {np.sqrt(np.mean(resid ** 2)):.4f}")
    if np.any(np.diff(smooth) >= -1e-4):
        print("smoothed alpha(gamma) is not strictly decreasing; "
              "recalibrate with more seeds", file=sys.stderr)
        return 1

    alpha_tab = [round(float(a), 4) for a in smooth[::-1]]
    gamma_tab = [round(float(g), 4) for g in gammas[::-1]]
    payload = {
        "alpha": alpha_tab,
        "gamma": gamma_tab,
        "protocol": {
            "min_gap_seconds": MIN_GAP,
            "window_seconds": WINDOW,
            "tau_grid": "geomspace(1e3, 1e6, 60) seconds",
            "fit_range": "default middle two log-decades",
            "statistic": "median per-seed fitted slope",
            "seeds_per_gamma": args.seeds,
            "smoothing": "cubic least squares over the gamma grid",
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}: alpha range [{alpha_tab[0]:.3f}, "
          f"{alpha_tab[-1]:.3f}] over gamma [{gamma_tab[-1]:.2f}, "
          f"{gamma_tab[0]:.2f}]")

    if args.skip_check:
        return 0

    # Round-trip through the public generator path with fresh seeds.
    from runclust.synth import SynthSpec, _calibration_table, generate
    _calibration_table.cache_clear()
    ok = True
    for requested in (0.4, 0.6, 0.8):
        vals = []
        for s in range(args.check_seeds):
            spec = SynthSpec.fractal_renewal(
                af_exponent=requested, window=WINDOW,
                seed=args.base_seed + 7777 + s, min_gap=MIN_GAP)
            pp = generate(spec)
            try:
                fit = fit_power_law(af_curve(pp, TAUS))
            except ValueError:
                continue
            if fit.detected:
                vals.append(fit.alpha)
        med = float(np.median(vals))
        err = med - requested
        print(f"self-check alpha={requested}: measured {med:.4f} "
              f"(err {err:+.4f}, {len(vals)} fits)")
        ok = ok and abs(err) <= 0.1
    if not ok:
        print("self-check outside +/-0.1; recalibrate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
