"""One round of a workload, in a fresh process.

A fresh process per round makes the peak resident memory the round's
own, and makes set-up (imports plus input building) happen every round.
The round writes a JSON result to ``--result``: timings, the operations
with their status and digest, the product-tree digest, check failures
when ``--check 1``, and per-layer figures when ``--trace 1``.

    python3 perfbench/round.py --workload station-matrix --seed 1 \
        --work DIR --result FILE [--trace 1] [--check 1] [--size small]
"""

from time import perf_counter

T_START = perf_counter()   # set-up time counts from here, before the imports

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks    # noqa: E402
import tracing   # noqa: E402
import workloads  # noqa: E402
from runclust import allan  # noqa: E402


def _cpu() -> tuple[float, float]:
    """User plus system CPU seconds of this process and of its reaped
    children (the pool workers, which are joined before a batch returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def run_checks(workload: str, prep, result: dict, ops: list, work: Path) -> list:
    """Failures of every check; a check that cannot read what it needs
    fails the round as a whole."""
    try:
        fail = checks.check_exact_power_law(allan.fit_power_law, allan.AfCurve)
        if workload == "fractal-af":
            lo, hi, points = prep.size.taus
            taus = np.geomspace(lo, hi, points)
            for op, (pp, curve, fit) in zip(ops, result["curves"]):
                fail += checks.check_fractal(op["id"], pp, curve, fit, taus, 1.0)
            return fail
        return fail + checks.check_station_tree(
            work / "out", prep.series, prep.size, ops, allan.DP_CUTOFF,
            batch=workload == "batch-pool")
    except Exception as exc:
        return [(None, f"a check raised {exc!r}")]


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--check", type=int, default=0, choices=(0, 1))
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--size", default="full", choices=("full", "small"))
    args = parser.parse_args(argv)

    work = Path(args.work).resolve()
    os.chdir(work)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(work / "trace-workers")
        tracing.install(tracer)
    prep = workloads.prepare(args.workload, args.seed, args.size, work)
    setup_s = perf_counter() - T_START

    error = None
    cpu0, child0 = _cpu()
    t0 = perf_counter()
    try:
        result = workloads.run_timed(args.workload, prep)
    except Exception:  # every operation of this round fails, see run.tally
        error = traceback.format_exc()
        result = {"curves": []}
    t1 = perf_counter()
    cpu1, child1 = _cpu()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    ops, tree = workloads.ops_and_digest(args.workload, prep, result, work)
    timing = {"parent_cpu_s": cpu1 - cpu0, "worker_cpu_s": child1 - child0}
    out = {
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "cpu_s": timing["parent_cpu_s"] + timing["worker_cpu_s"],
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": ops,
        "tree": tree,
        "error": error,
        "failures": None,
        "layers": None,
    }
    if args.check:
        out["failures"] = run_checks(args.workload, prep, result, ops, work)
    if tracer is not None:
        size = prep.size
        base = {"stations": size.stations, "percentiles": len(size.percentiles),
                "workers": size.workers}
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.worker_spans(),
                                            t0, t1, timing, base)
        with open(work / "spans.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    Path(args.result).write_text(json.dumps(out))
    return out


if __name__ == "__main__":
    main()
