"""Benchmark command: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload station-matrix --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  The first round is a warm-up whose
outputs go through every independent check in ``checks.py``; it is not
timed.  Then rounds run, each in a fresh process, until ``--seconds``
have passed, and every round's product tree must be byte-identical to
the warm-up's.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics (medians over the timed rounds); with ``--trace 1``
traced and untraced rounds alternate and it carries the per-layer
metrics of the traced rounds plus the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0          # the whole run, warm-up and checks included
MIN_COVERAGE = 0.99       # layers' self times over the traced wall time


def run_round(workload: str, seed: int, work: Path, traced: bool,
              check: bool, deadline: float) -> dict:
    round_dir = work / "round"
    shutil.rmtree(round_dir, ignore_errors=True)
    round_dir.mkdir(parents=True)
    result = work / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--check", str(int(check)), "--work", str(round_dir),
           "--result", str(result)]
    # Its own process group, so a round that overruns is stopped together
    # with its pool workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} round overran the {BUDGET_S:g} s budget")
    if code != 0 or not result.exists():
        raise RuntimeError(f"{workload} round exited with code {code}")
    out = json.loads(result.read_text())
    out["traced"] = traced
    if traced:
        shutil.copyfile(round_dir / "spans.jsonl",
                        work.parent / f"{workload}-seed{seed}.spans.jsonl")
    return out


def tally(rounds: list[dict]) -> tuple[int, int, bool, list[str]]:
    """Operations attempted and failed over all rounds, whether every
    output was right, and what went wrong.

    An operation fails when its status is not ``ok``, when a check of
    the warm-up rejects it, or when its product differs from the
    warm-up's.  A later round with the same bytes as a rejected warm-up
    operation repeats the wrong output, so it fails too.  A check or
    difference that concerns the round as a whole fails every operation
    of that round, and so does an exception out of the timed section.

    A round lists every operation of the workload's matrix, the ones
    the program did not produce included (``workloads.station_ops``,
    ``workloads.curve_ops``), so the count comes from the workload's
    size, not from what a round returned.
    """
    first = rounds[0]
    reference = {op["id"]: op["digest"] for op in first["ops"]}
    n_ops = len(first["ops"])
    rejected = {op_id for op_id, _ in first["failures"] if op_id}
    if any(op_id is None for op_id, _ in first["failures"]):
        rejected = set(reference)
    notes = [f"{op_id or 'round'}: {msg}" for op_id, msg in first["failures"]]
    correct = not first["failures"]
    attempted = failed = 0
    for k, r in enumerate(rounds):
        attempted += n_ops
        if r["error"]:
            correct = False
            failed += n_ops
            notes.append(f"round {k}: " + r["error"].strip().splitlines()[-1])
            continue
        bad = {op["id"] for op in r["ops"] if op["status"] != "ok"} | rejected
        differ = {op["id"] for op in r["ops"]
                  if op["digest"] != reference.get(op["id"])}
        if r["tree"] != first["tree"] and not differ:
            differ = set(reference)
        if differ:
            correct = False
            notes.append(f"round {k}: {len(differ)} operations differ "
                         "from the warm-up's bytes")
        failed += len(bad | differ)
    return attempted, failed, correct, notes


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "runclust" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'runclust'}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / "perfbench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + BUDGET_S
    rounds = []
    try:
        rounds.append(run_round(args.workload, args.seed, work, False, True,
                                deadline))
        start = time.monotonic()
        while True:
            # A traced run alternates traced and untraced rounds, so the
            # overhead compares rounds taken under the same conditions.
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(args.workload, args.seed, work, traced,
                                    False, deadline))
            if (time.monotonic() - start >= args.seconds
                    and (not args.trace or len(rounds) >= 3)):
                break
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, correct, notes = tally(rounds)
    for note in notes[:20]:
        print(f"perfbench: {note}", file=sys.stderr)

    timed = rounds[1:]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    values = {}
    if args.trace:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        low = [r["layers"]["trace.coverage"] for r in traced
               if r["layers"]["trace.coverage"] < MIN_COVERAGE]
        if low:
            print(f"perfbench: the layers' self times cover {min(low):.4f} of "
                  f"a traced round's wall time, below {MIN_COVERAGE}",
                  file=sys.stderr)
            return 1
    else:
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
            values[name] = statistics.median(r[name] for r in plain)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    n = len(traced if args.trace else plain)
    print(f"{args.workload} round walls: "
          + " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in timed),
          file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{args.workload} {name:<28} {entry['value']:.6g} {entry['unit']}"
              f"  (median of {n} rounds)", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
