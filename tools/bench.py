"""Paired benchmark of the working tree against a parent revision.

    python3 tools/bench.py --parent HEAD --pr 18 --workload batch-pool \
        --seed 1 --pairs 10 [--trace 0]

Runs ``perfbench/run.py`` for one workload and seed ``--pairs`` times
on each side, for the ``run_seconds`` that ``BENCHMARK.json`` fixes:
the parent revision, checked out in a temporary clone, and the working
tree.  The sides alternate which runs first from one pair to the next.
Each side runs its own ``perfbench/`` and ``src/``; nothing here
imports either.  The clone shares the repository's objects and adds
nothing to the repository itself, so a killed run leaves no entry
behind in it.

The result is appended to the list of entries in ``BENCH_<pr>.json``
at the root of the working tree, so every set of pairs run stays on
record.  An entry names its workload, seed and trace setting, the
parent revision, and the working tree's ``HEAD`` with the paths that
differed from it (``git status --porcelain``) when the runs began.  Per
metric an entry gives each side's values, median and quartiles, the
pairs the change won (ties count for neither side) and whether the
change meets the gain rule: it wins at least nine tenths of the pairs
and its median beats the parent's by more than the parent's
interquartile range.  End-to-end metrics also say whether the change's
median is within the regression bound ``BENCHMARK.json`` fixes.  Per
side, an entry counts the runs whose outputs were all correct and the
operations attempted and failed.

A run that exits non-zero ends the set: the entry is still appended,
with the pairs finished before it, the failed run's side, pair index,
exit code and the tail of its stderr, and the tool exits 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(root: Path, args, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in checkout ``root``: its result line,
    or its exit code and stderr tail if it exited non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def compare(runs: dict, spec: dict) -> dict:
    """Per-metric comparison of the two sides' runs, paired by index."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for name in runs["parent"][0]["metrics"]:
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        sign = 1.0 if declared[name]["better"] == "lower" else -1.0
        won = sum(sign * (p - c) > 0 for p, c in zip(sides["parent"],
                                                     sides["change"]))
        parent, change = summary(sides["parent"]), summary(sides["change"])
        gain = sign * (parent["median"] - change["median"])
        entry = {
            "unit": declared[name]["unit"],
            "better": declared[name]["better"],
            "parent": parent,
            "change": change,
            "pairs_won": won,
            "pairs": len(sides["parent"]),
            "meets_gain_rule": (won >= 0.9 * len(sides["parent"])
                                and gain > parent["q3"] - parent["q1"]),
        }
        if "bound" in declared[name]:
            entry["within_bound"] = (-gain <= declared[name]["bound"]
                                     * abs(parent["median"]))
        out[name] = entry
    return out


def host() -> dict:
    """The machine and the runtime the runs share.  Kernel timings, and
    which SIMD loops numpy runs, depend on the numpy version and on
    whether the CPU has AVX-512 (``None`` where ``/proc/cpuinfo`` cannot
    be read); the version is read from the package metadata, so numpy
    is not imported here."""
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        avx512f = None
    else:
        avx512f = "avx512f" in flags
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "avx512f": avx512f}


@contextmanager
def parent_checkout(rev: str):
    """A checkout of commit ``rev`` in a temporary clone, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        path = Path(tmp) / "parent"
        git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT),
            str(path))
        git("checkout", "--quiet", "--detach", rev, cwd=path)
        yield path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision the working tree is compared with")
    parser.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change = {"head": git("rev-parse", "HEAD"),
              "modified": git("status", "--porcelain").splitlines()}
    wall = "trace.wall_s" if args.trace else "wall_s"
    runs = {"parent": [], "change": []}
    failed = None
    with parent_checkout(rev) as parent_root:
        roots = {"parent": parent_root, "change": ROOT}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(roots[side], args, spec["run_seconds"])
                if "exit_code" in result:
                    failed = {"side": side, "pair": k, **result}
                    break
                runs[side].append(result)
            if failed:
                print(f"pair {k + 1}/{args.pairs}: {failed['side']} exited "
                      f"{failed['exit_code']}:\n{failed['stderr_tail']}",
                      file=sys.stderr)
                break
            walls = "  ".join(f"{side} {runs[side][-1]['metrics'][wall]['value']:.3f}"
                              for side in order)
            print(f"pair {k + 1}/{args.pairs}: {walls}", file=sys.stderr)
    # The metrics compare finished pairs; the side counts cover every run.
    pairs = min(len(rs) for rs in runs.values())

    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "parent_rev": rev,
        "change": change,
        "host": host(),
        "sides": {side: {"runs": len(rs),
                         "correct_runs": sum(r["correct"] for r in rs),
                         "attempted": sum(r["attempted"] for r in rs),
                         "failed": sum(r["failed"] for r in rs)}
                  for side, rs in runs.items()},
        "metrics": compare({side: rs[:pairs] for side, rs in runs.items()},
                           spec) if pairs else {},
    }
    if failed:
        entry["failed_run"] = failed
    out = ROOT / f"BENCH_{args.pr}.json"
    bench = (json.loads(out.read_text()) if out.exists()
             else {"pr": args.pr, "entries": []})
    bench["entries"].append(entry)
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    key = f"{args.workload} seed {args.seed} trace {args.trace}"
    for name, m in entry["metrics"].items():
        print(f"{key} {name:<28} {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}-{m['parent']['q3']:.6g}] -> "
              f"{m['change']['median']:.6g}  won {m['pairs_won']}/{m['pairs']}",
              file=sys.stderr)
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
