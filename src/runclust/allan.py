"""Allan factor of a marked point process.

Events are counted in contiguous windows of duration tau tiling the
observation window; the Allan factor at tau is the mean squared
difference of adjacent counts over twice the mean count.  A Poisson
process stays near 1 at every tau; time-clustered processes rise with
tau, and over a scaling regime the rise follows a power law
``AF(tau) = 1 + (tau/tau1)**alpha`` whose exponent is fitted in log-log
coordinates on AF - 1.

Curves and surrogate bands share one kernel, which takes a block of
processes on one window, one row each, and loops over the taus once for
the whole block.  It has two exact counting regimes.  Small processes
give every event its window index, and one run-length pass over the
flattened block counts every row at once; the surrogate sweep hands it
blocks of many surrogates, so its fixed cost per tau is shared by all of
them.  Large processes with few windows per event (at least 5,000
events and more than 20 per window) find the window boundaries by
binary search of the absolute times instead, row by row, which costs
per window rather than per event and reads only the events next to the
boundaries; the times relative to the window start and the per-event
buffers are built only when some tau takes the dense regime.  Both
regimes give every row the same bits as
``allan_factor(counting_process(pp, tau))`` on that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

# The surrogate sweep hands _af_grid blocks of about this many event
# times (the costs by block size are in _af_grid's docstring).
_BLOCK_EVENTS = 65_536


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


def _dense_sums(rel: np.ndarray, tau: float, n_windows: int,
                row_bounds: np.ndarray, k: np.ndarray, new: np.ndarray,
                held: tuple | None) -> tuple[np.ndarray, tuple]:
    # Dense regime for a block of rows at one tau; returns the per-row
    # integers that _af_grid finishes.  ``k`` and ``new`` are the
    # caller's buffers, written in place; ``held`` holds the caller's
    # run-sized buffers (counts, key steps, adjacency, products, terms),
    # or is None to allocate them here.  Every event gets its window
    # index in ``k``, truncated from the quotient as by astype; an index
    # past the last complete window belongs to a sentinel window W.
    # Rounding can carry it to W+1, so indices are clamped to W when
    # some row's last one (rows are sorted) exceeds it.  A run break is
    # forced at every row start and a row's first run is never adjacent
    # to the run before it, so one run-length pass over the flattened
    # block sums c^2 - c[i]*c[i+1] over the occupied windows of every
    # row, the sentinel included; int64 sums are exact.  A row's first
    # run holds its events in window 0, if any; its last run those in
    # the sentinel or in window W-1, and the run before a sentinel those
    # in W-1.  Returns the sums and, per row, the events in window 0, in
    # window W-1 and past it.
    np.divide(rel, tau, out=k, casting="unsafe")
    if k[:, -1].max() > n_windows:
        np.minimum(k, n_windows, out=k)
    flat = k.reshape(-1)
    np.not_equal(flat[1:], flat[:-1], out=new[1:-1])
    new[row_bounds] = True
    bounds = np.flatnonzero(new)
    size = bounds.size - 1

    def out(i, length):
        return None if held is None else held[i][:length]

    counts = np.subtract(bounds[1:], bounds[:-1], out=out(0, size))
    keys = flat[bounds[:-1]]
    ends = np.searchsorted(bounds, row_bounds)
    first, last = ends[:-1], ends[1:] - 1
    adjacent = np.equal(np.subtract(keys[1:], keys[:-1], out=out(1, size - 1)),
                        1, out=out(2, size - 1))
    adjacent[first[1:] - 1] = False
    products = np.multiply(counts[:-1], counts[1:], out=out(3, size - 1))
    products *= adjacent
    terms = np.multiply(counts, counts, out=out(4, size))
    terms[:-1] -= products
    runs = np.add.reduceat(terms, first)

    past = keys[last] == n_windows
    before = last - past
    return runs, (counts[first] * (keys[first] == 0),
                  counts[before] * ((keys[before] == n_windows - 1)
                                    & (before >= first)),
                  counts[last] * past)


def _window_edges(times: np.ndarray, window_start: float, tau: float,
                  n_windows: int) -> np.ndarray:
    # edges[j] = number of events whose window index
    # ((times - window_start)/tau).astype(int64) is below j, for j = 0..W.
    # That index never decreases along the sorted times, so the events
    # below j form a prefix.  searchsorted on the rounded boundaries
    # window_start + j*tau lands next to each edge (off only by events
    # within rounding of a boundary, where it and their quotient round
    # across each other); the loop then moves every edge by one event
    # while the event before it sits at or above j, or the event at it
    # below j.  Each pass moves an edge one event toward its exact prefix
    # length and never past it, so the loop stops there, and a pass that
    # moves nothing proves it.  Usually the first pass moves nothing.
    # Only the events next to the edges are read, each through the same
    # subtraction and division as the dense regime's, so the process is
    # never copied.
    j = np.arange(n_windows + 1)
    edges = np.searchsorted(times, window_start + j * tau)
    last = times.size - 1
    while True:
        before = ((times[np.maximum(edges - 1, 0)] - window_start) / tau
                  ).astype(np.int64)
        at = ((times[np.minimum(edges, last)] - window_start) / tau
              ).astype(np.int64)
        step = (((edges <= last) & (at < j)).astype(np.int64)
                - ((edges > 0) & (before >= j)))
        if not step.any():
            return edges
        edges += step


def _af_grid(times: np.ndarray, window_start: float, duration: float,
             taus: np.ndarray) -> np.ndarray:
    """Allan factor at every tau of a grid for a block of processes.

    ``times`` is a 2-D block: each row holds the sorted event times of
    one process on the same window, and every row has the same number
    of events.  Returns a (rows, taus) array, NaN where the factor is
    undefined: the window must hold two complete counting windows and at
    least two events of the row must fall inside them (a lone event has
    no count structure to difference).

    Two exact counting regimes, chosen per tau from the event count n
    and the number W of complete counting windows:

    - *dense*: every event gets its window index, and one run-length
      pass over the whole block sums the occupied windows of every row
      (``_dense_sums``); its window-index and run-break buffers, 5
      bytes per event with int32 indices (9 with int64), are allocated
      once per call and written in place at every tau, and so are its
      run-sized buffers in a block of at most ``_BLOCK_EVENTS`` events;
    - *edges*: the W+1 window boundaries come from ``searchsorted`` on
      the absolute times, corrected to the same per-event rule
      (``_window_edges``), and the counts are their differences, row by
      row; nothing of the size of the process is allocated.

    The edge thresholds come from timing one row per call, per tau, on
    one core of a 2-CPU Xeon with numpy 2.4: the dense regime cost about
    35 µs + 0.004 µs·n and the edge regime about 40 µs + 0.08 µs·W.
    Edges win when n exceeds about 20·W, and never by more than noise
    below about 5,000 events, so they are used when
    n >= ``_EDGE_MIN_EVENTS`` and n > ``_EDGE_EVENTS_PER_WINDOW``·W.
    Both regimes give the same exact integers per row, and one integer
    and float expression finishes them, so the values are the same bits
    either way, and a row's values do not depend on the block it sits in.

    The dense regime's fixed cost per tau is paid once per block, so the
    surrogate sweep hands over max(1, ``_BLOCK_EVENTS`` // n) rows at a
    time.  Seconds for one ``cell_bands`` sweep (draws, Cv, Lv and the
    factor) of 1000 surrogates × 60 taus on a 10-year window (1200 s to
    a tenth of the span), same machine, by block size B, the best of
    three fresh processes per cell of the table, with the most minor
    page faults (``getrusage(RUSAGE_SELF).ru_minflt``) of the three in
    thousands; the first column is the kernel that held only its
    quotient, index and run-break buffers, with int64 indices and
    16,000-event blocks:

    ======  ===========  ==========  ==========  ==========  ==========
    n       before       16k         32k         64k         128k
    ======  ===========  ==========  ==========  ==========  ==========
    30      0.05 (8)     0.04 (2)    0.04 (2)    0.04 (2)    0.04 (2)
    100     0.13 (33)    0.08 (2)    0.07 (3)    0.07 (3)    0.07 (4)
    300     0.28 (85)    0.16 (4)    0.19 (29)   0.15 (6)    0.15 (7)
    1,000   0.78 (223)   0.44 (11)   0.49 (77)   0.41 (17)   0.41 (18)
    2,000   1.38 (387)   0.83 (24)   0.90 (134)  0.71 (32)   0.71 (34)
    4,500   2.66 (487)   1.90 (50)   2.06 (238)  1.50 (59)   1.64 (61)
    8,000   4.89 (1056)  3.36 (93)   3.10 (109)  3.17 (106)  3.25 (108)
    ======  ===========  ==========  ==========  ==========  ==========

    Through ``run_station`` (the benchmark's ``station-matrix`` round,
    seed 1: one 10-year station, 3 percentiles × 3 minimum lengths, 60
    taus, 80 surrogates, one worker), the median of six rounds took
    0.53 s before, and 0.47, 0.43, 0.39 and 0.39 s at 16k, 32k, 64k and
    128k.
    The run-length pass's arrays grow with the block.  Allocated afresh
    at every tau, those of 128 KiB or more come from fresh mappings that
    glibc keeps handing back, so they page-fault again at every tau;
    held for the call, they fault once per block.  B is 65,536, past
    which larger blocks gained nothing.  A single row above B, which
    only ``af_curve`` on a large process gives, allocates them per tau
    instead, each the size of that tau's runs rather than of the whole
    row, which keeps its peak memory below what holding them would take.
    """
    rows, n = times.shape
    runs = np.zeros((rows, taus.size), dtype=np.int64)
    tails = np.zeros((3, rows, taus.size), dtype=np.int64)
    n_windows = np.array([int(duration // tau) for tau in taus], dtype=np.int64)
    edge = (n >= _EDGE_MIN_EVENTS) & (n > _EDGE_EVENTS_PER_WINDOW * n_windows)
    live = (n_windows >= 2) & (n >= 2)
    dense = live & ~edge
    if dense.any():
        # Only the dense pass reads every event.  It takes the times
        # relative to the window start and holds the window indices and
        # run breaks for the call: 5 bytes per event with int32 indices,
        # which hold every index up to W+1 when W+2 < 2**31, else 9.
        # A block of at most _BLOCK_EVENTS events also holds the
        # run-sized buffers, 29 or 33 bytes per event; a larger row
        # leaves them to _dense_sums, sized to each tau's runs.  A call
        # whose taus all take the edge regime allocates nothing per
        # event.
        rel = times - window_start
        index = np.int32 if n_windows[dense].max() + 2 < 2**31 else np.int64
        size = rows * n
        buffers = (np.empty((rows, n), dtype=index),
                   np.empty(size + 1, dtype=bool),
                   (np.empty(size, dtype=np.int64), np.empty(size, dtype=index),
                    np.empty(size, dtype=bool), np.empty(size, dtype=np.int64),
                    np.empty(size, dtype=np.int64))
                   if size <= _BLOCK_EVENTS else None)
        row_bounds = np.arange(rows + 1) * n
    for i in np.flatnonzero(live):
        tau, w = taus[i], int(n_windows[i])
        if edge[i]:
            for r in range(rows):
                edges = _window_edges(times[r], window_start, tau, w)
                c = np.diff(edges, append=n)
                runs[r, i] = np.dot(c, c) - np.dot(c[:-1], c[1:])
                tails[:, r, i] = edges[1], edges[w] - edges[w - 1], n - edges[w]
        else:
            runs[:, i], tails[:, :, i] = _dense_sums(rel, tau, w, row_bounds,
                                                     *buffers)
    # Both regimes give, per row, the sum of c^2 - c[i]*c[i+1] over the
    # windows and the sentinel (the t events past the last window), and
    # the counts c[0] and c[W-1].  Then
    #   sum (c[i+1]-c[i])^2 == 2*(sum c^2 - sum c[i]*c[i+1]) - c[0]^2 - c[W-1]^2
    # once the sentinel's square and its product with window W-1 are
    # taken out again.  A point with fewer than two events in the
    # windows, or fewer than two windows, is NaN.
    c_first, c_last, t = tails
    m = n - t
    num = 2 * (runs - t * (t - c_last)) - c_first * c_first - c_last * c_last
    with np.errstate(divide="ignore", invalid="ignore"):
        af = (num / (n_windows - 1)) / (2.0 * m / n_windows)
    af[(m < 2) | ~live] = np.nan
    return af


def _tau_grid(taus, dt: float) -> np.ndarray:
    # The one check of a tau grid, shared by the curve and the sweep.
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau grid must be a non-empty 1-D array")
    if np.any(taus <= 0) or np.any(np.diff(taus) <= 0):
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
    return _curve_with_reasons(
        taus, _af_grid(pp.times[None, :], pp.window_start, pp.duration, taus)[0],
        pp.duration)


def _curve_with_reasons(taus: np.ndarray, af: np.ndarray,
                        duration: float) -> AfCurve:
    # The curve of one process on a window of ``duration`` seconds from
    # its values on a checked grid, with the reason for each NaN.
    reasons = {float(tau): "fewer than two complete counting windows"
               if duration // tau < 2
               else "fewer than two events in complete windows"
               for tau in taus[np.isnan(af)]}
    return AfCurve(taus=taus, af=af, reasons=reasons)


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

    The fit is the least-squares line through ``x = log(tau)``,
    ``y = log(AF - 1)`` over the usable points.  With ``m`` the mean
    over those points,

        alpha = m[(x - m[x])(y - m[y])] / m[(x - m[x])**2]
        tau1 = exp(-(m[y] - alpha*m[x]) / alpha)
        r_squared = r**2,  r = m[(x - m[x])(y - m[y])]
                               / sqrt(m[(x - m[x])**2] m[(y - m[y])**2])

    with ``r`` clipped to [-1, 1], and NaN when ``y`` is constant.  The
    steps are the ones SciPy's ``linregress`` takes (the moments from
    ``np.cov(x, y, bias=1)``, then slope, intercept and r), so the three
    values have the same bits as that function gives, and fits written
    with it reproduce exactly.

    Parameters
    ----------
    curve : AfCurve
    fit_range : (float, float), optional
        Tau bounds of the fit; defaults to the middle two log-decades.
    min_points : int
        Fewer usable points than this raises; at least 2, since a line
        needs two points.
    min_excess : float
        Points with ``AF <= 1 + min_excess`` are excluded from the fit.

    Returns
    -------
    PowerLawFit
        A non-positive fitted slope is reported as ``detected=False``
        ("no fractal scaling"), not as an error.
    """
    if min_points < 2:
        raise ValueError("min_points must be at least 2")
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
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    alpha = float(ssxym / ssxm)
    intercept = np.mean(y) - alpha * np.mean(x)
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    detected = alpha > 0
    tau1 = float(np.exp(-intercept / alpha)) if detected else np.nan
    return PowerLawFit(alpha=alpha, tau1=tau1, fit_lo=float(lo), fit_hi=float(hi),
                       r_squared=float(r ** 2), n_used=n_used,
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
