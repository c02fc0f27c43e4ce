"""Allan factor of a marked point process.

Events are counted in contiguous windows of duration tau tiling the
observation window; the Allan factor at tau is the mean squared
difference of adjacent counts over twice the mean count.  A Poisson
process stays near 1 at every tau; time-clustered processes rise with
tau, and over a scaling regime the rise follows a power law
``AF(tau) = 1 + (tau/tau1)**alpha`` whose exponent is fitted in log-log
coordinates on AF - 1.

Curves and surrogate bands share one per-tau kernel with two exact
counting regimes.  Small processes give every event its window index;
large processes with few windows per event (at least 5,000 events and
more than 20 per window) find the window boundaries by binary search
instead, which costs per window rather than per event.  Both regimes
give the same bits as ``allan_factor(counting_process(pp, tau))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sstats

from .runs import MarkedPointProcess

__all__ = [
    "AfCurve",
    "CountingProcess",
    "DP_CUTOFF",
    "PowerLawFit",
    "af_curve",
    "allan_factor",
    "counting_process",
    "default_fit_range",
    "departure",
    "fit_power_law",
]

# Departure statistics are only reported above this timescale (seconds);
# shorter windows are dominated by the sampling grid.
DP_CUTOFF = 200 * 60.0

# _af_grid counts by window edges when the process has at least this many
# events and more than this many events per counting window; below
# either, the dense per-event count is as fast or faster (the per-tau
# costs are in _af_grid's docstring).
_EDGE_MIN_EVENTS = 5000
_EDGE_EVENTS_PER_WINDOW = 20


@dataclass(frozen=True, eq=False)
class CountingProcess:
    """Counts of events in successive windows of duration ``tau`` seconds.

    Windows tile the observation window from its start; events past the
    last complete window are dropped, so ``counts.sum()`` can be smaller
    than the number of events.
    """

    tau: float
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be 1-D")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "counts", counts)

    @property
    def n_windows(self) -> int:
        return self.counts.size


def counting_process(pp: MarkedPointProcess, tau: float) -> CountingProcess:
    """Count events in contiguous windows of duration ``tau``.

    ``tau`` must be positive, at least the sampling step of the process,
    and short enough that the observation window holds two complete
    counting windows.  An event at time t lands in window
    ``floor((t - window_start)/tau)``.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if tau < pp.dt:
        raise ValueError("tau must be at least the sampling step")
    n_windows = int(pp.duration // tau)
    if n_windows < 2:
        raise ValueError("observation window must span at least two counting windows")
    idx = ((pp.times - pp.window_start) / tau).astype(np.int64)
    idx = idx[idx < n_windows]
    return CountingProcess(tau=float(tau),
                           counts=np.bincount(idx, minlength=n_windows))


def allan_factor(cp: CountingProcess) -> float:
    """Allan factor of a counting process.

    Mean squared difference of adjacent counts divided by twice the mean
    count.  Undefined (raises) when the mean count is zero.
    """
    counts = cp.counts
    if counts.size < 2:
        raise ValueError("need at least two counting windows")
    mean = counts.mean()
    if mean == 0:
        raise ValueError("mean count is zero; Allan factor undefined")
    # Integer dot: exact, and unlike a float ``d @ d`` it does not
    # dispatch to multithreaded BLAS.
    d = np.diff(counts)
    return float((np.dot(d, d) / (counts.size - 1)) / (2.0 * mean))


def _af_from_windows(k: np.ndarray, n_windows: int) -> float:
    # sum (c[i+1]-c[i])^2 == 2*(sum c^2 - sum c[i]*c[i+1]) - c[0]^2 - c[W-1]^2
    # needs only the occupied windows; int64 dots are exact and skip BLAS.
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    occupied = k[starts]
    counts = np.diff(np.append(starts, k.size))
    adjacent = occupied[1:] == occupied[:-1] + 1
    num = 2 * (np.dot(counts, counts)
               - np.dot(counts[:-1][adjacent], counts[1:][adjacent]))
    if occupied[0] == 0:
        num -= counts[0] * counts[0]
    if occupied[-1] == n_windows - 1:
        num -= counts[-1] * counts[-1]
    return (num / (n_windows - 1)) / (2.0 * k.size / n_windows)


def _af_from_edges(edges: np.ndarray, n_windows: int) -> float:
    # The counts are diff(edges): the same exact integer sum of squared
    # count differences and the same float expression as _af_from_windows.
    d = np.diff(edges, 2)
    return (np.dot(d, d) / (n_windows - 1)) / (2.0 * int(edges[-1]) / n_windows)


def _window_edges(rel: np.ndarray, tau: float, n_windows: int) -> np.ndarray:
    # edges[j] = number of events whose window index (rel/tau).astype(int64)
    # is below j, for j = 0..W.  That index never decreases along the
    # sorted rel, so the events below j form a prefix.  searchsorted on
    # the rounded products j*tau lands next to each edge (one event off
    # at most, where rel/tau and j*tau round across each other, in every
    # case tried); the loop then moves every edge by one event while the
    # event before it sits at or above j, or the event at it below j.
    # Each pass moves an edge one event toward its exact prefix length
    # and never past it, so the loop stops there, and a pass that moves
    # nothing proves it.  Usually the first pass moves nothing.
    j = np.arange(n_windows + 1)
    edges = np.searchsorted(rel, j * tau)
    last = rel.size - 1
    while True:
        before = (rel[np.maximum(edges - 1, 0)] / tau).astype(np.int64)
        at = (rel[np.minimum(edges, last)] / tau).astype(np.int64)
        step = (((edges <= last) & (at < j)).astype(np.int64)
                - ((edges > 0) & (before >= j)))
        if not step.any():
            return edges
        edges += step


def _af_grid(times: np.ndarray, window_start: float, duration: float,
             taus: np.ndarray) -> tuple[np.ndarray, dict[float, str]]:
    """Allan factor at every tau of a grid from sorted event times.

    Returns the values and the reason for every undefined (NaN) point,
    keyed by tau: the window must hold two complete counting windows
    and at least two events must fall inside them (a lone event has no
    count structure to difference).

    Two exact counting regimes, chosen per tau from the event count n
    and the number W of complete counting windows:

    - *dense*: every event gets its window index, and the factor comes
      from the occupied windows (``_af_from_windows``);
    - *edges*: the W+1 window boundaries come from ``searchsorted``,
      corrected to the same per-event rule, and the counts are their
      differences (``_af_from_edges``).

    Per tau, on one core of a 2-CPU Xeon with numpy 2.4, the dense
    regime costs about 35 µs + 0.004 µs·n and the edge regime about
    40 µs + 0.08 µs·W.  Edges win when n exceeds about 20·W, and never
    by more than noise below about 5,000 events, so they are used when
    n >= ``_EDGE_MIN_EVENTS`` and n > ``_EDGE_EVENTS_PER_WINDOW``·W.
    Both regimes form the same integer sum of squared count differences
    and the same float expression, so the values are the same bits
    either way.
    """
    af = np.full(taus.size, np.nan)
    reasons: dict[float, str] = {}
    rel = times - window_start
    for i, tau in enumerate(taus):
        n_windows = int(duration // tau)
        if n_windows < 2:
            reasons[float(tau)] = "fewer than two complete counting windows"
            continue
        by_edges = (rel.size >= _EDGE_MIN_EVENTS
                    and rel.size > _EDGE_EVENTS_PER_WINDOW * n_windows)
        if by_edges:
            edges = _window_edges(rel, tau, n_windows)
            m = int(edges[-1])
        else:
            k = (rel / tau).astype(np.int64)
            k = k[: np.searchsorted(k, n_windows, side="left")]
            m = k.size
        if m < 2:
            reasons[float(tau)] = "fewer than two events in complete windows"
            continue
        af[i] = (_af_from_edges(edges, n_windows) if by_edges
                 else _af_from_windows(k, n_windows))
    return af, reasons


def _tau_grid(taus, dt: float, allow_empty: bool = False) -> np.ndarray:
    # The one check of a tau grid, shared by the curve and the sweep.
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or (taus.size == 0 and not allow_empty):
        raise ValueError("tau grid must be a non-empty 1-D array")
    if np.any(taus <= 0) or (taus.size > 1 and np.any(np.diff(taus) <= 0)):
        raise ValueError("tau grid must be positive and strictly ascending")
    if np.any(taus < dt):
        raise ValueError("tau grid must not go below the sampling step")
    return taus


@dataclass(frozen=True, eq=False)
class AfCurve:
    """Allan factor over a tau grid.

    ``af`` is NaN at grid points where the factor is undefined; the
    reason for every undefined point is recorded in ``reasons`` keyed by
    tau.  Defined values are always finite.
    """

    taus: np.ndarray
    af: np.ndarray
    station_id: str = ""
    percentile: float | None = None
    min_run_length: int = 1
    reasons: dict = field(default_factory=dict)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        af = np.asarray(self.af, dtype=float)
        if taus.ndim != 1 or af.shape != taus.shape or taus.size == 0:
            raise ValueError("taus and af must be matching non-empty 1-D arrays")
        if np.any(taus <= 0) or np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be positive and strictly ascending")
        if np.any(np.isinf(af)):
            raise ValueError("defined af values must be finite")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "af", af)

    @property
    def defined(self) -> np.ndarray:
        return np.isfinite(self.af)

    @property
    def n_defined(self) -> int:
        return int(self.defined.sum())


def af_curve(pp: MarkedPointProcess, taus: np.ndarray) -> AfCurve:
    """Allan factor at every tau of a grid.

    Undefined grid points are NaN in the result with the reason recorded;
    they are never zero-filled.
    """
    taus = _tau_grid(taus, pp.dt)
    af, reasons = _af_grid(pp.times, pp.window_start, pp.duration, taus)
    percentile = pp.threshold.percentile if pp.threshold is not None else None
    return AfCurve(taus=taus, af=af, station_id=pp.station_id,
                   percentile=percentile, min_run_length=pp.min_run_length,
                   reasons=reasons)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``AF(tau) = 1 + (tau/tau1)**alpha``.

    Fitted on (log tau, log(AF-1)) over the fit range; points with
    AF <= 1 + min_excess carry no excess-variance signal and are
    excluded (their number is reported).  ``detected`` is False when the
    fitted slope is not positive; ``tau1`` is NaN in that case.
    """

    alpha: float
    tau1: float
    fit_lo: float
    fit_hi: float
    r_squared: float
    n_used: int
    n_excluded: int
    detected: bool


def default_fit_range(curve: AfCurve) -> tuple[float, float]:
    """Middle two log-decades of the curve's defined grid.

    Falls back to the full defined range when the grid spans fewer than
    two decades.
    """
    taus = curve.taus[curve.defined]
    if taus.size == 0:
        raise ValueError("curve has no defined points")
    lo, hi = np.log10(taus[0]), np.log10(taus[-1])
    if hi - lo <= 2.0:
        return float(taus[0]), float(taus[-1])
    mid = (lo + hi) / 2.0
    return float(10.0 ** (mid - 1.0)), float(10.0 ** (mid + 1.0))


def fit_power_law(curve: AfCurve, fit_range: tuple[float, float] | None = None,
                  min_points: int = 5, min_excess: float = 0.01) -> PowerLawFit:
    """Fit the power-law rise of an Allan-factor curve.

    Parameters
    ----------
    curve : AfCurve
    fit_range : (float, float), optional
        Tau bounds of the fit; defaults to the middle two log-decades.
    min_points : int
        Fewer usable points than this raises.
    min_excess : float
        Points with ``AF <= 1 + min_excess`` are excluded from the fit.

    Returns
    -------
    PowerLawFit
        A non-positive fitted slope is reported as ``detected=False``
        ("no fractal scaling"), not as an error.
    """
    if fit_range is None:
        fit_range = default_fit_range(curve)
    lo, hi = fit_range
    if not 0 < lo < hi:
        raise ValueError("fit range must satisfy 0 < lo < hi")

    in_range = curve.defined & (curve.taus >= lo) & (curve.taus <= hi)
    usable = in_range & (curve.af > 1.0 + min_excess)
    n_used = int(usable.sum())
    n_excluded = int(in_range.sum()) - n_used
    if n_used < min_points:
        raise ValueError(
            f"need at least {min_points} grid points with AF > 1 + {min_excess} "
            f"in the fit range, have {n_used}")

    x = np.log(curve.taus[usable])
    y = np.log(curve.af[usable] - 1.0)
    result = sstats.linregress(x, y)
    alpha = float(result.slope)
    detected = alpha > 0
    tau1 = float(np.exp(-result.intercept / alpha)) if detected else np.nan
    return PowerLawFit(alpha=alpha, tau1=tau1, fit_lo=float(lo), fit_hi=float(hi),
                       r_squared=float(result.rvalue ** 2), n_used=n_used,
                       n_excluded=n_excluded, detected=detected)


def departure(curve: AfCurve, band, tau_cutoff: float = DP_CUTOFF) -> list[tuple[float, float]]:
    """Departure of the curve above a surrogate band's upper edge.

    For every tau strictly above ``tau_cutoff`` where both the curve and
    the band are defined, reports ``(tau, AF(tau) - band.hi(tau))``.
    The band must live on the same tau grid as the curve.
    """
    if not np.array_equal(curve.taus, band.taus):
        raise ValueError("curve and band live on different tau grids")
    mask = (curve.taus > tau_cutoff) & curve.defined & np.isfinite(band.hi)
    return [(float(t), float(a - h))
            for t, a, h in zip(curve.taus[mask], curve.af[mask],
                               np.asarray(band.hi)[mask])]
