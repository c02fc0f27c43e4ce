"""Spans around the calls into runclust's public functions.

``install`` wraps every public function of the layer modules (the names
in each module's ``__all__``) plus ``pipeline._evaluate_cell``, the one
boundary around a single cell, and rebinds the wrapper wherever
runclust holds a reference to the original.  A span records its name,
layer, start, end, parent and optional counts.  Spans stay in memory and
are written out when the round ends.

Pool workers are forked from the round's process, so they inherit the
wrappers.  A worker keeps its own spans and appends each cell's spans as one line
to ``worker-<pid>.jsonl`` in the trace directory, because
a pool worker exits without running ``atexit`` handlers.  Worker spans
give busy times and per-cell times; only the round's own spans enter the
self-time split of the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

# Module -> layer.  The command-line front end belongs to the pipeline layer.
LAYER_OF_MODULE = {
    "ingest": "ingest", "runs": "runs", "stats": "stats",
    "surrogates": "surrogates", "allan": "allan", "synth": "synth",
    "pipeline": "pipeline", "cli": "pipeline",
}
LAYERS = ("ingest", "runs", "stats", "surrogates", "allan", "synth", "pipeline")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Counts recorded with a span, where a ratio needs a base.
COUNTS = {
    "surrogates.cell_bands":
        lambda a, kw, r: {"surrogates": _arg(a, kw, 2, "config").n_surrogates},
    "allan.af_curve":
        lambda a, kw, r: {"taus": r.taus.size,
                          "event_taus": _arg(a, kw, 0, "pp").n_events * r.taus.size},
    "ingest.parse_series": lambda a, kw, r: {"rows": r.n_samples},
    "synth.generate": lambda a, kw, r: {"events": r.n_events},
}


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.root_pid = self.pid = os.getpid()
        self.spans: list[list] = []   # name, layer, start, end, parent, counts
        self.stack: list[int] = []

    def _enter_process(self) -> None:
        # First span in a forked worker: drop what was copied from the parent.
        self.pid = os.getpid()
        self.spans = []
        self.stack = []

    def _flush_worker(self) -> None:
        # One line per cell: the cell's spans, parents indexed within it.
        path = self.worker_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def wrap(self, name: str, layer: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._enter_process()
            span = [name, layer, perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            if not self.stack and self.pid != self.root_pid:
                self._flush_worker()
            return result

        return traced

    def worker_spans(self) -> list[list]:
        """The workers' cells, each a list of spans."""
        cells = []
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                cells += [json.loads(line) for line in handle]
        return cells


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind them in every runclust module."""
    tracer.worker_dir.mkdir(parents=True, exist_ok=True)
    targets = []
    for module_name, layer in LAYER_OF_MODULE.items():
        module = importlib.import_module(f"runclust.{module_name}")
        names = [n for n in module.__all__
                 if inspect.isfunction(getattr(module, n))
                 and getattr(module, n).__module__ == module.__name__]
        if module_name == "pipeline":
            names.append("_evaluate_cell")
        targets += [(module, n, layer) for n in names]
    holders = [m for name, m in sorted(sys.modules.items())
               if name == "runclust" or name.startswith("runclust.")]
    for module, name, layer in targets:
        original = getattr(module, name)
        short = module.__name__.split(".")[-1]
        wrapper = tracer.wrap(f"{short}.{name}", layer, original)
        for holder in holders:
            if getattr(holder, name, None) is original:
                setattr(holder, name, wrapper)


# ---------------------------------------------------------------------------
# Reduction of one round's spans to per-layer figures.


def _busy(spans, names) -> float:
    """Summed duration of spans named in ``names``, not counting a span
    nested inside another one of them."""
    total = 0.0
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[4]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][4]
        if parent < 0:
            total += span[3] - span[2]
    return total


def _count(spans, name, key) -> int:
    return sum(s[5][key] for s in spans if s[0] == name and s[5])


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def self_times(spans) -> dict:
    """Each layer's self time: span duration minus the time its child
    spans cover.  Children of one span run one after another, so their
    durations do not overlap."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    out = {layer: 0.0 for layer in LAYERS}
    for span, children in zip(spans, child_time):
        out[span[1]] += span[3] - span[2] - children
    return out


def layer_metrics(spans: list, worker_cells: list, t_start: float,
                  t_end: float, timing: dict, base: dict) -> dict:
    """Per-layer figures of one traced round.

    ``spans`` are the round's own spans and ``worker_cells`` the pool
    workers' spans, one list per cell.  ``timing`` holds the round's CPU
    figures and ``base`` the workload's stations, percentiles and
    workers.  Only spans inside ``[t_start, t_end]`` count, except for
    ``ingest.write_series_s``, which measures set-up.
    """
    timed = [s for s in spans if s[2] >= t_start and s[3] <= t_end]
    # Re-index parents within the timed subset.
    index = {id(s): i for i, s in enumerate(timed)}
    timed = [[*s[:4], index.get(id(spans[s[4]]), -1) if s[4] >= 0 else -1, s[5]]
             for s in timed]
    every = timed + _reindexed(worker_cells, len(timed))

    sweep_s = _busy(every, {"surrogates.cell_bands"})
    sweeps = _count(every, "surrogates.cell_bands", "surrogates")
    curve_s = _busy(every, {"allan.af_curve"})
    parse_s = _busy(every, {"ingest.parse_series"})
    parse_rows = _count(every, "ingest.parse_series", "rows")
    cells = [s[3] - s[2] for s in every if s[0] == "pipeline._evaluate_cell"]
    stations = [s[3] - s[2] for s in timed if s[0] == "pipeline.run_station"]
    stats_names = {s[0] for s in every if s[1] == "stats"}
    own = self_times(timed)
    wall = t_end - t_start
    pool_wall = sum(stations) if base["workers"] > 1 else 0.0

    m = {
        "surrogates.sweep_s": sweep_s,
        "surrogates.sweeps": sweeps,
        "surrogates.per_surrogate_ms": 1e3 * sweep_s / sweeps if sweeps else 0.0,
        "allan.curve_s": curve_s,
        "allan.curve_evals": _count(every, "allan.af_curve", "taus"),
        "allan.event_taus_per_s":
            _count(every, "allan.af_curve", "event_taus") / curve_s if curve_s else 0.0,
        "allan.fit_s": _busy(every, {"allan.fit_power_law"}),
        "synth.generate_s": _busy(every, {"synth.generate"}),
        "synth.events": _count(every, "synth.generate", "events"),
        "ingest.parse_s": parse_s,
        "ingest.parse_rows_per_s": parse_rows / parse_s if parse_s else 0.0,
        "ingest.write_series_s": _busy(spans, {"ingest.write_series"}),
        "runs.threshold_s": _busy(every, {"runs.compute_threshold"}),
        "runs.extract_s": _busy(every, {"runs.extract_runs"}),
        "runs.extract_calls": _calls(every, "runs.extract_runs"),
        "runs.extract_calls_base": base["stations"] * base["percentiles"],
        "runs.write_events_s": _busy(every, {"runs.write_events"}),
        "stats.busy_s": _busy(every, stats_names),
        "pipeline.cells": len(cells),
        "pipeline.cell_p50_s": statistics.median(cells) if cells else 0.0,
        "pipeline.cell_max_s": max(cells, default=0.0),
        "pipeline.parent_cpu_s": timing["parent_cpu_s"],
        "pipeline.worker_cpu_s": timing["worker_cpu_s"],
        "pipeline.pool_workers": base["workers"] if pool_wall else 0,
        "pipeline.pool_wall_s": pool_wall,
        "pipeline.pool_busy_ratio":
            timing["worker_cpu_s"] / (base["workers"] * pool_wall) if pool_wall else 0.0,
        "trace.wall_s": wall,
        "trace.coverage": sum(own.values()) / wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    return m


def _reindexed(cells: list, offset: int) -> list:
    """The workers' cells as one span list, parents shifted to index it
    from ``offset`` on."""
    out = []
    for cell in cells:
        base = offset + len(out)
        out += [[*s[:4], s[4] + base if s[4] >= 0 else -1, s[5]] for s in cell]
    return out
