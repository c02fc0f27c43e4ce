"""Synthetic marked point processes with known clustering behaviour.

Five generator kinds cover the regimes the statistics are meant to
separate: homogeneous Poisson (no structure), periodic and
mixed-periodic (quasi-periodic locally, the mixed variant switching
period halfway through the window so it looks clustered globally),
fractal renewal (power-law interevent times giving a rising Allan
factor with a chosen slope), and bursty (Poisson cluster centres with
tight intra-cluster event trains).  Marks are drawn i.i.d. from a
geometric law on {1, 2, ...}.

Every generator is deterministic given the spec's seed; randomness uses
the same keyed Philox substreams as the surrogate module.

The marks are exactly those of ``Generator.geometric(mark_q)``.  For
``mark_q`` >= 1/3 numpy draws one uniform double U per mark and
searches for the smallest X with U <= S_X, the partial sums S_X of the
probabilities, built as numpy builds them.  This module builds that
S table once per ``mark_q`` and reads X from a table of U buckets, or,
where X changes inside a bucket, from a binary search of S.  The same
doubles from the same stream meet the same comparisons, so the marks
and the generator's state after them match bit for bit.  Below 1/3
numpy inverts an exponential draw instead, and that path calls it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources

import numpy as np

from .ingest import SampledSeries
from .runs import MarkedPointProcess
from .surrogates import _MAX_SEED, _sorted_uniform, surrogate_rng

__all__ = [
    "SynthSpec",
    "generate",
    "generate_series",
]

KINDS = ("poisson", "periodic", "mixed_periodic", "fractal_renewal", "bursty")

# Synthetic series need a time anchor for serialization; the value is
# arbitrary and shared so rendered series round-trip byte-identically.
_SYNTH_EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic marked point process.

    Use the per-kind constructors (:meth:`poisson`, :meth:`periodic`,
    :meth:`mixed_periodic`, :meth:`fractal_renewal`, :meth:`bursty`)
    rather than filling fields by hand.  ``window`` is the observation
    span in seconds, ``mark_q`` the parameter of the geometric mark law
    (mean run length 1/q).
    """

    kind: str
    window: float
    seed: int
    mark_q: float = 0.5
    rate: float | None = None
    period: float | None = None
    phase: float = 0.0
    period1: float | None = None
    period2: float | None = None
    phase1: float = 0.0
    phase2: float = 0.0
    af_exponent: float | None = None
    min_gap: float = 1.0
    cluster_rate: float | None = None
    in_cluster_rate: float | None = None
    mean_cluster_size: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not self.window > 0:
            raise ValueError("window must be positive")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0.0 < self.mark_q <= 1.0:
            raise ValueError("mark_q must lie in (0, 1]")

    @classmethod
    def poisson(cls, rate: float, window: float, seed: int,
                mark_q: float = 0.5) -> "SynthSpec":
        """Homogeneous Poisson events at ``rate`` per second."""
        if not rate > 0:
            raise ValueError("rate must be positive")
        return cls(kind="poisson", window=window, seed=seed, mark_q=mark_q,
                   rate=rate)

    @classmethod
    def periodic(cls, period: float, window: float, seed: int,
                 phase: float = 0.0, mark_q: float = 0.5) -> "SynthSpec":
        """Strictly periodic events at ``phase + k*period``."""
        if not period > 0:
            raise ValueError("period must be positive")
        if phase < 0:
            raise ValueError("phase must be >= 0")
        return cls(kind="periodic", window=window, seed=seed, mark_q=mark_q,
                   period=period, phase=phase)

    @classmethod
    def mixed_periodic(cls, period1: float, period2: float, window: float,
                       seed: int, phase1: float = 0.0, phase2: float = 0.0,
                       mark_q: float = 0.5) -> "SynthSpec":
        """Two periodic regimes in sequence: period1 on the first half of
        the window, period2 on the second, each with its own phase.

        Pick incommensurate periods with a large ratio to make the
        global/local dispersion measures disagree (Cv far above 1, Lv
        near 0).
        """
        if not (period1 > 0 and period2 > 0):
            raise ValueError("periods must be positive")
        if phase1 < 0 or phase2 < 0:
            raise ValueError("phases must be >= 0")
        return cls(kind="mixed_periodic", window=window, seed=seed,
                   mark_q=mark_q, period1=period1, period2=period2,
                   phase1=phase1, phase2=phase2)

    @classmethod
    def fractal_renewal(cls, af_exponent: float, window: float, seed: int,
                        min_gap: float = 1.0, mark_q: float = 0.5) -> "SynthSpec":
        """Renewal process with i.i.d. Pareto interevent times.

        ``af_exponent`` is the requested log-log slope of ``AF(tau) - 1``
        in the scaling range.  The Pareto tail exponent realising it
        comes from the calibration table shipped with the package, which
        is measured under a fixed protocol (min_gap 1 s, window 1e7 s,
        tau grid geomspace(1e3, 1e6, 60), middle-two-decades fit); see
        ``tools/calibrate_fractal_renewal.py``.  Other windows or gap
        scales shift the scaling range and the slope realised over a
        fixed grid drifts accordingly.
        """
        if not min_gap > 0:
            raise ValueError("min_gap must be positive")
        _gamma_for_exponent(af_exponent)  # validates the requested slope
        return cls(kind="fractal_renewal", window=window, seed=seed,
                   mark_q=mark_q, af_exponent=af_exponent, min_gap=min_gap)

    @classmethod
    def bursty(cls, cluster_rate: float, in_cluster_rate: float,
               mean_cluster_size: float, window: float, seed: int,
               mark_q: float = 0.5) -> "SynthSpec":
        """Poisson cluster centres with geometric cluster sizes.

        Each cluster holds ``size`` events: one at the centre, the rest
        following with exponential gaps at ``in_cluster_rate``.
        """
        if not (cluster_rate > 0 and in_cluster_rate > 0):
            raise ValueError("rates must be positive")
        if not mean_cluster_size >= 1:
            raise ValueError("mean_cluster_size must be >= 1")
        return cls(kind="bursty", window=window, seed=seed, mark_q=mark_q,
                   cluster_rate=cluster_rate, in_cluster_rate=in_cluster_rate,
                   mean_cluster_size=mean_cluster_size)


@lru_cache(maxsize=1)
def _calibration_table() -> tuple[np.ndarray, np.ndarray]:
    text = resources.files("runclust").joinpath(
        "data/fractal_renewal_calibration.json").read_text()
    table = json.loads(text)
    alpha = np.asarray(table["alpha"], dtype=float)
    gamma = np.asarray(table["gamma"], dtype=float)
    if alpha.size != gamma.size or alpha.size < 2 or np.any(np.diff(alpha) <= 0):
        raise ValueError("malformed fractal-renewal calibration table")
    return alpha, gamma


def _gamma_for_exponent(af_exponent: float) -> float:
    """Pareto tail exponent whose measured AF slope is ``af_exponent``."""
    alpha, gamma = _calibration_table()
    if not alpha[0] <= af_exponent <= alpha[-1]:
        raise ValueError(
            f"af_exponent must lie in the calibrated range "
            f"[{alpha[0]:g}, {alpha[-1]:g}], got {af_exponent:g}")
    return float(np.interp(af_exponent, alpha, gamma))


def _periodic_times(period: float, phase: float, start: float,
                    end: float) -> np.ndarray:
    if start + phase >= end:
        return np.empty(0)
    n = int(np.ceil((end - start - phase) / period))
    times = start + phase + period * np.arange(n + 1)
    return times[times < end]


def _poisson_times(rng, rate: float, window: float) -> np.ndarray:
    return _sorted_uniform(rng, rng.poisson(rate * window), 0.0, window)


def _fractal_renewal_times(rng, gamma: float, min_gap: float,
                           window: float) -> np.ndarray:
    # Inverse-CDF Pareto gaps: T = min_gap * (1-U)^(-1/gamma).  The tail
    # is heavy, so draw in chunks until the cumulative time passes the
    # window; a single huge gap can end the process early and that is
    # correct behaviour, not a failure.  Each chunk becomes gaps and then
    # times in its own buffer, with the operations of the expression
    # ``t + cumsum(min_gap * (1 - U) ** (-1/gamma))`` (``**=`` keeps the
    # shortcuts ``**`` takes for exponents such as -1, which np.power
    # lacks); the chunk size sets where each cumulative sum restarts, so
    # it fixes the bits too.  The times inside the window are a prefix
    # of those drawn, and their buffer is shrunk to them in place, so
    # the process owns exactly its events rather than viewing a buffer
    # about 1.2 times its size.
    mean_gap = gamma / (gamma - 1.0) * min_gap if gamma > 1 else 10.0 * min_gap
    chunk = int(max(1024, min(2 ** 22, 1.2 * window / mean_gap + 16)))
    parts = []
    t = 0.0
    total = 0
    while t < window:
        times = rng.random(chunk)
        np.subtract(1.0, times, out=times)
        times **= -1.0 / gamma
        times *= min_gap
        np.cumsum(times, out=times)
        times += t
        parts.append(times)
        t = float(times[-1])
        total += chunk
        if total > 2 ** 26:
            raise ValueError("fractal renewal process exceeds 6.7e7 events; "
                             "shrink the window or raise min_gap")
    if len(parts) > 1:
        times = np.concatenate(parts)
    # Times never decrease, so the ones inside the window are a prefix.
    # No view of the buffer exists, so it can be reallocated; shrinking
    # keeps the prefix's bits and does not copy them.
    times.resize(np.searchsorted(times, window), refcheck=False)
    return times


# Generator.geometric draws by search from this p upward (the literal is
# numpy's), and by inversion below it.
_GEOMETRIC_SEARCH_MIN_P = 0.333333333333333333333333
# The largest double Generator.random returns.
_MAX_UNIFORM = 1.0 - 2.0 ** -53
_MARK_BUCKETS = 4096
# Doubles per draw: a chunk's buffers and temporaries stay at or below
# 64 KiB, under glibc's 128 KiB mmap threshold, so they come from the
# heap rather than from fresh mappings that page-fault (allan._af_grid's
# docstring measures that cost).
_MARK_CHUNK = 8192


@lru_cache(maxsize=8)
def _geometric_table(p: float) -> tuple[np.ndarray, np.ndarray]:
    """numpy's search sampler as a table.

    ``Generator.geometric(p)`` for p >= 1/3 takes one double U and
    returns the smallest X with U <= S_X, where S_1 = p and each next S
    adds ``prod *= q`` to the last.  Returns the S table, scaled by
    ``_MARK_BUCKETS``, and for each bucket of U the X it always gives,
    or 0 where X varies inside the bucket.
    """
    q = 1.0 - p
    prod = total = p
    sums = [total]
    while total < _MAX_UNIFORM:
        prod *= q
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    scaled = np.array(sums) * _MARK_BUCKETS  # exact: a power of two
    edges = np.arange(_MARK_BUCKETS + 1, dtype=float)
    first = np.searchsorted(scaled, edges[:-1]) + 1
    last = np.searchsorted(scaled, edges[1:] - _MARK_BUCKETS * 2.0 ** -53) + 1
    return scaled, np.where(first == last, first, 0)


def _geometric_marks(rng, p: float, n: int) -> np.ndarray:
    """``rng.geometric(p, size=n)``, bit for bit and leaving ``rng`` in
    the same state, drawn through :func:`_geometric_table` when numpy
    would search."""
    if p < _GEOMETRIC_SEARCH_MIN_P:
        return rng.geometric(p, size=n)
    scaled, lookup = _geometric_table(p)
    marks = np.empty(n, dtype=np.int64)
    u = np.empty(min(n, _MARK_CHUNK))
    bucket = np.empty(u.size, dtype=np.intp)
    for lo in range(0, n, _MARK_CHUNK):
        out = marks[lo:lo + _MARK_CHUNK]
        uu, bb = u[:out.size], bucket[:out.size]
        rng.random(out=uu)
        uu *= _MARK_BUCKETS
        np.copyto(bb, uu, casting="unsafe")
        np.take(lookup, bb, out=out, mode="clip")
        varies = np.flatnonzero(out == 0)
        if varies.size:
            out[varies] = np.searchsorted(scaled, uu[varies]) + 1
    return marks


def _bursty_times(rng, cluster_rate: float, in_cluster_rate: float,
                  mean_cluster_size: float, window: float) -> np.ndarray:
    n_clusters = rng.poisson(cluster_rate * window)
    centres = rng.random(n_clusters) * window
    sizes = rng.geometric(1.0 / mean_cluster_size, size=n_clusters)
    parts = [centres]
    scale = 1.0 / in_cluster_rate
    for centre, size in zip(centres, sizes):
        if size > 1:
            parts.append(centre + np.cumsum(rng.exponential(scale, size - 1)))
    times = np.concatenate(parts) if parts else np.empty(0)
    times = times[(times >= 0) & (times < window)]
    # Coincident events have probability zero; unique keeps the process
    # strictly increasing if they ever occur.
    return np.unique(times)


def generate(spec: SynthSpec) -> MarkedPointProcess:
    """Realise a spec as a marked point process on ``[0, window)``.

    Event times are continuous (``dt = 0``); marks are i.i.d. geometric
    with parameter ``mark_q``, drawn after the times from the same
    substream.  Deterministic given ``spec.seed``.
    """
    rng = surrogate_rng(spec.seed, stream=0)
    w = spec.window
    if spec.kind == "poisson":
        times = _poisson_times(rng, spec.rate, w)
    elif spec.kind == "periodic":
        times = _periodic_times(spec.period, spec.phase, 0.0, w)
    elif spec.kind == "mixed_periodic":
        times = np.concatenate([
            _periodic_times(spec.period1, spec.phase1, 0.0, w / 2.0),
            _periodic_times(spec.period2, spec.phase2, w / 2.0, w),
        ])
    elif spec.kind == "fractal_renewal":
        gamma = _gamma_for_exponent(spec.af_exponent)
        times = _fractal_renewal_times(rng, gamma, spec.min_gap, w)
    else:
        times = _bursty_times(rng, spec.cluster_rate, spec.in_cluster_rate,
                              spec.mean_cluster_size, w)

    lengths = _geometric_marks(rng, spec.mark_q, times.size)
    return MarkedPointProcess(
        times=times, lengths=lengths, window_start=0.0, window_end=w,
        dt=0.0, station_id=f"synth-{spec.kind}", threshold=None,
        gap_fraction=0.0)


def generate_series(spec: SynthSpec, dt: float, base_level: float = 0.0,
                    extreme_level: float = 10.0) -> tuple[SampledSeries, MarkedPointProcess]:
    """Render a spec as a sampled series plus its realised ground truth.

    Event times are snapped down to the sampling grid; each run holds
    ``extreme_level`` for its length in samples and the rest of the
    series sits at ``base_level``.  Marks that would make runs touch or
    overlap are redrawn from the mark law (rejection on a dedicated
    substream) so the event count stays as generated; events landing on
    colliding grid slots are an error, since no mark choice can separate
    them.

    Returns
    -------
    (SampledSeries, MarkedPointProcess)
        The series and the realised process.  Extracting runs from the
        series with any threshold between the two levels reproduces the
        process exactly.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not 0 <= base_level < extreme_level:
        raise ValueError("need 0 <= base_level < extreme_level")
    n_samples_f = spec.window / dt
    n_samples = int(round(n_samples_f))
    if n_samples < 1 or abs(spec.window - n_samples * dt) > 1e-9 * dt:
        raise ValueError("window must be a positive multiple of dt")

    pp = generate(spec)
    slots = (pp.times / dt).astype(np.int64)
    if np.any(np.diff(slots) < 2):
        raise ValueError("events collide on the sampling grid; lower the "
                         "event rate or refine dt")

    lengths = pp.lengths.copy()
    if slots.size:
        caps = np.empty(slots.size, dtype=np.int64)
        caps[:-1] = np.diff(slots) - 1
        caps[-1] = n_samples - slots[-1]
        redraw = surrogate_rng(spec.seed, stream=1)
        for i in np.flatnonzero(lengths > caps):
            while lengths[i] > caps[i]:
                lengths[i] = redraw.geometric(spec.mark_q)

    values = np.full(n_samples, float(base_level))
    for slot, length in zip(slots, lengths):
        values[slot:slot + length] = extreme_level
    series = SampledSeries(
        station_id=pp.station_id, t0=_SYNTH_EPOCH, dt=float(dt),
        values=values, missing=np.zeros(n_samples, dtype=bool))
    realised = MarkedPointProcess(
        times=slots * float(dt), lengths=lengths, window_start=0.0,
        window_end=n_samples * float(dt), dt=float(dt),
        station_id=pp.station_id, threshold=None, gap_fraction=0.0)
    return series, realised
