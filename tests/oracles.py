"""Reference definitions the tests hold the package to.

Each is the plain, one-process form of something the package computes
in blocks or in one call for many levels: the window counts and Allan
factor of ``allan._af_grid``, the surrogate times of the sweep in
``surrogates.cell_bands``, the quantile rule of the station thresholds
and the band edges, and the run scanner of ``runs.extract_runs``.
Values the package gives must equal these bit for bit wherever a test
compares them.
"""

import numpy as np

from runclust.runs import MarkedPointProcess
from runclust.surrogates import _sorted_uniform, surrogate_rng


def window_counts(pp: MarkedPointProcess, tau: float) -> np.ndarray:
    """Counts of events in the complete windows of duration ``tau``
    tiling the observation window from its start.

    An event at time t lands in window ``floor((t - window_start)/tau)``;
    events past the last complete window are dropped, so the counts can
    sum to fewer than the events.
    """
    n_windows = int(pp.duration // tau)
    idx = ((pp.times - pp.window_start) / tau).astype(np.int64)
    return np.bincount(idx[idx < n_windows], minlength=n_windows)


def allan_factor(counts) -> float:
    """Mean squared difference of adjacent counts over twice the mean
    count."""
    counts = np.asarray(counts, dtype=np.int64)
    # Integer dot: exact, and unlike a float ``d @ d`` it does not
    # dispatch to multithreaded BLAS.
    d = np.diff(counts)
    return float((np.dot(d, d) / (counts.size - 1)) / (2.0 * counts.mean()))


def reference_af(pp: MarkedPointProcess, tau: float) -> float:
    """``allan_factor(window_counts(pp, tau))``, NaN where ``af_curve``
    leaves the point undefined: fewer than two complete windows, or
    fewer than two events inside them."""
    if pp.duration // tau < 2:
        return np.nan
    counts = window_counts(pp, tau)
    return allan_factor(counts) if counts.sum() >= 2 else np.nan


def surrogate_times(pp: MarkedPointProcess, seed: int, stream: int) -> np.ndarray:
    """The times of surrogate ``stream`` of ``seed``: ``pp.n_events``
    sorted uniform times on the observation window, from
    ``surrogate_rng(seed, stream)``."""
    return _sorted_uniform(surrogate_rng(seed, stream), pp.n_events,
                           pp.window_start, pp.window_end - pp.window_start)


def linear_quantile(values, p: float) -> float:
    """Empirical quantile with linear interpolation between order statistics.

    The quantile sits at one-based rank ``p*(n-1)+1``; fractional ranks
    interpolate linearly between the two adjacent order statistics.
    This is numpy's ``method="linear"``, taken one level of one sample
    at a time: the oracle for the station thresholds
    (``runs._thresholds``) and the surrogate band edges
    (``surrogates._band_edges``), which take many levels or columns in
    one ``np.quantile`` call.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    return float(np.quantile(values, p, method="linear"))


def naive_runs(values, missing, threshold):
    """Reference scanner: one sample at a time, no vectorization."""
    events = []
    start = None
    length = 0
    for k in range(len(values)):
        above = (not missing[k]) and values[k] > threshold
        if above:
            if start is None:
                start = k
                length = 1
            else:
                length += 1
        elif start is not None:
            events.append((start, length))
            start = None
            length = 0
    if start is not None:
        events.append((start, length))
    return events
