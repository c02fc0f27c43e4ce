"""Command line front end.

Four subcommands cover the workflows: ``analyze`` runs the full matrix
on one station, ``batch`` sweeps a directory of stations against a
metadata table, ``synth`` generates benchmark event streams or sampled
series, and ``af`` computes an Allan-factor curve (optionally banded)
from a previously written event list.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed input data, 3 run finished but some products are missing
(skipped stations, failed cells, too few events).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .allan import _curve_with_reasons, af_curve, departure, fit_power_law
from .ingest import _check_station_id, parse_series, write_series
from .pipeline import AnalysisConfig, TauGridSpec, run_batch, run_station, \
    _af_table, _write_json
from .runs import _atomic_write_text, read_events, write_events
from .stats import coefficient_of_variation, interevent_times, \
    local_coefficient_of_variation
from .surrogates import SurrogateConfig, cell_bands
from .synth import KINDS, SynthSpec, generate, generate_series

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Flag and argparse spec of each ``AnalysisConfig.as_mapping`` key, in
# ``--help`` order.  An omitted flag is ``None``: the file or default holds.
_ANALYSIS_FLAGS = {
    "output_dir": ("--out", dict(metavar="DIR", help="output directory")),
    "seed": ("--seed", dict(type=int, help="master surrogate seed")),
    "percentiles": ("--percentiles", dict(type=float, nargs="+", metavar="P")),
    "min_run_lengths": ("--min-run-lengths",
                        dict(type=int, nargs="+", metavar="M")),
    "tau_lo": ("--tau-lo", dict(type=float, metavar="SECONDS")),
    "tau_hi": ("--tau-hi", dict(type=float, metavar="SECONDS")),
    "tau_points": ("--tau-points", dict(type=int, metavar="N")),
    "n_surrogates": ("--n-surrogates", dict(type=int, metavar="N")),
    "dt": ("--dt", dict(type=float, metavar="SECONDS")),
    "workers": ("--workers", dict(type=int, metavar="N")),
}


def _add_analysis_flags(parser: _Parser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file; flags override its values")
    for key, (flag, spec) in _ANALYSIS_FLAGS.items():
        parser.add_argument(flag, dest=key, **spec)


def _build_config(parser: _Parser, args) -> AnalysisConfig:
    mapping: dict = {}
    if args.config:
        try:
            mapping = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(mapping, dict):
            parser.error("config file must hold a JSON object")
    flags = {key: getattr(args, key) for key in _ANALYSIS_FLAGS}
    mapping.update({k: v for k, v in flags.items() if v is not None})
    try:
        config = AnalysisConfig.from_mapping(mapping)
    except (TypeError, ValueError) as exc:  # TypeError: a wrongly typed
        parser.error(str(exc))              # value in the config file
    print(json.dumps(config.as_mapping(), sort_keys=True))
    return config


def _cmd_analyze(parser: _Parser, args) -> int:
    try:
        _check_station_id(args.station_id)
    except ValueError as exc:
        parser.error(str(exc))
    config = _build_config(parser, args)
    series = parse_series(args.series, station_id=args.station_id,
                          dt=config.dt)
    out_root = Path(config.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    _write_json(out_root / "config.json", config.as_mapping())
    result = run_station(series, None, config)
    bad = [c for c in result["summary"]["cells"] if c["status"] != "ok"]
    for cell in bad:
        print(f"cell p={cell['percentile']:g} m>={cell['min_run_length']}: "
              f"{cell['status']}", file=sys.stderr)
    print(f"wrote {out_root / series.station_id}")
    return 3 if bad else 0


def _cmd_batch(parser: _Parser, args) -> int:
    config = _build_config(parser, args)
    summary = run_batch(args.station_dir, args.meta, config)
    for line in summary["warnings"]:
        print(f"warning: {line}", file=sys.stderr)
    print(f"wrote {config.output_dir}: {summary['n_cells_ok']}/"
          f"{summary['n_cells']} cells ok")
    return 3 if summary["partial"] else 0


def _synthesize(parser: _Parser, args):
    """The event list ``synth`` writes, or with ``--series`` its sampled
    series.  synth reads no input, so a parameter the generator rejects
    is a usage error."""
    def need(*names):
        missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
        if missing:
            parser.error(f"{args.kind} requires " +
                         ", ".join("--" + n for n in missing))

    common = {"window": args.window, "seed": args.seed, "mark_q": args.mark_q}
    try:
        if args.kind == "poisson":
            need("rate")
            spec = SynthSpec.poisson(rate=args.rate, **common)
        elif args.kind == "periodic":
            need("period")
            spec = SynthSpec.periodic(period=args.period, phase=args.phase,
                                      **common)
        elif args.kind == "mixed_periodic":
            need("period1", "period2")
            spec = SynthSpec.mixed_periodic(period1=args.period1,
                                            period2=args.period2,
                                            phase1=args.phase, **common)
        elif args.kind == "fractal_renewal":
            need("af-exponent")
            spec = SynthSpec.fractal_renewal(af_exponent=args.af_exponent,
                                             min_gap=args.min_gap, **common)
        else:
            need("cluster-rate", "in-cluster-rate", "mean-cluster-size")
            spec = SynthSpec.bursty(cluster_rate=args.cluster_rate,
                                    in_cluster_rate=args.in_cluster_rate,
                                    mean_cluster_size=args.mean_cluster_size,
                                    **common)
        if args.series:
            return generate_series(spec, dt=args.dt, base_level=args.base_level,
                                   extreme_level=args.extreme_level)[0]
        return generate(spec)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_synth(parser: _Parser, args) -> int:
    made, out = _synthesize(parser, args), Path(args.out)
    if args.series:
        write_series(made, out)
        print(f"wrote {out} ({made.n_samples} samples)")
    else:
        write_events(made, out)
        print(f"wrote {out} ({made.n_events} events)")
    return 0


def _cmd_af(parser: _Parser, args) -> int:
    surrogates = None
    if args.n_surrogates < 0 or args.n_surrogates == 1:
        parser.error("--n-surrogates must be 0 or at least 2")
    if args.n_surrogates and args.seed is None:
        parser.error("--seed is required when --n-surrogates > 0")
    try:
        grid = TauGridSpec(args.tau_lo, args.tau_hi, args.tau_points)
        if args.n_surrogates:
            surrogates = SurrogateConfig(args.seed, args.n_surrogates)
    except ValueError as exc:
        parser.error(str(exc))
    pp = read_events(args.events)
    try:
        taus = grid.resolve(pp.dt, pp.duration)
    except ValueError as exc:
        parser.error(str(exc))

    if surrogates is None:
        curve = af_curve(pp, taus)
        text = _af_table(curve)
        cv = lv = float("nan")
        if pp.n_events >= 3:
            intervals = interevent_times(pp)
            cv = coefficient_of_variation(intervals)
            lv = local_coefficient_of_variation(intervals)
    else:
        cv_band, lv_band, band = cell_bands(pp, taus, surrogates)
        curve = _curve_with_reasons(band.taus, band.observed, pp.duration)
        text = _af_table(curve, band, departure(curve, band))
        cv, lv = cv_band.observed, lv_band.observed
    print(f"n_events={pp.n_events} cv={cv:.6g} lv={lv:.6g}")

    try:
        fit = fit_power_law(curve)
        print(f"fit: alpha={fit.alpha:.6g} tau1={fit.tau1:.6g}s "
              f"r2={fit.r_squared:.4f} n_used={fit.n_used} "
              f"detected={fit.detected}")
    except ValueError as exc:
        print(f"fit: {exc}")

    if args.out:
        _atomic_write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 3 if curve.n_defined == 0 else 0


def _make_parser() -> _Parser:
    parser = _Parser(prog="runclust",
                     description="threshold-run extraction and clustering "
                                 "analysis of sampled time series")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                            parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("analyze",
                       help="full analysis matrix for one station CSV")
    p.add_argument("series", help="station sample CSV (timestamp,value)")
    p.add_argument("--station-id", default=None,
                   help="station identifier (default: file stem)")
    _add_analysis_flags(p)
    p.set_defaults(handler=_cmd_analyze, parser=p)

    p = sub.add_parser("batch",
                       help="analyse every station CSV in a directory")
    p.add_argument("station_dir", help="directory of station CSVs")
    p.add_argument("meta", help="station metadata CSV (station_id,height,...)")
    _add_analysis_flags(p)
    p.set_defaults(handler=_cmd_batch, parser=p)

    p = sub.add_parser("synth",
                       help="generate a benchmark event stream or series")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--window", type=float, default=6.0e6, metavar="SECONDS")
    p.add_argument("--mark-q", type=float, default=0.35,
                   help="geometric mark parameter")
    p.add_argument("--rate", type=float, metavar="PER_SECOND")
    p.add_argument("--period", type=float, metavar="SECONDS")
    p.add_argument("--period1", type=float, metavar="SECONDS")
    p.add_argument("--period2", type=float, metavar="SECONDS")
    p.add_argument("--phase", type=float, default=0.0, metavar="SECONDS")
    p.add_argument("--af-exponent", type=float, metavar="ALPHA")
    p.add_argument("--min-gap", type=float, default=1.0, metavar="SECONDS")
    p.add_argument("--cluster-rate", type=float, metavar="PER_SECOND")
    p.add_argument("--in-cluster-rate", type=float, metavar="PER_SECOND")
    p.add_argument("--mean-cluster-size", type=float, metavar="N")
    p.add_argument("--series", action="store_true",
                   help="render a sampled series instead of an event list")
    p.add_argument("--dt", type=float, default=600.0, metavar="SECONDS")
    p.add_argument("--base-level", type=float, default=0.0)
    p.add_argument("--extreme-level", type=float, default=10.0)
    p.set_defaults(handler=_cmd_synth, parser=p)

    p = sub.add_parser("af",
                       help="Allan-factor curve from an event list")
    p.add_argument("events", help="events CSV written by analyze/synth")
    p.add_argument("--tau-lo", type=float, metavar="SECONDS")
    p.add_argument("--tau-hi", type=float, metavar="SECONDS")
    p.add_argument("--tau-points", type=int, default=TauGridSpec.points, metavar="N")
    p.add_argument("--n-surrogates", type=int, default=0, metavar="N",
                   help="surrogate band size (0 disables the band)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_af, parser=p)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "station_id", "") is None:
        args.station_id = Path(args.series).stem
    try:
        # The subcommand's own parser, so a late usage error prints its usage.
        return args.handler(args.parser, args)
    except (FileNotFoundError, ValueError) as exc:  # ParseError is a ValueError
        print(f"runclust: data error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:  # a cell ended its worker process
        print(f"runclust: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
