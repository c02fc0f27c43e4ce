"""Interevent-time and run-length statistics of a marked point process.

Interevent times are plain float arrays of durations in seconds; the
two dispersion measures characterise temporal clustering from opposite
ends.  The global coefficient of variation compares the standard
deviation of all interevent times to their mean: 1 for a Poisson
process, below 1 for quasi-periodic sequences, above 1 for clustered
ones.  The local variant compares only adjacent pairs, so a sequence
that is locally regular but switches rate scores near 0 even when the
global coefficient is far above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runs import MarkedPointProcess

__all__ = [
    "RunLengthDensity",
    "average_density",
    "coefficient_of_variation",
    "interevent_times",
    "local_coefficient_of_variation",
    "mean_interevent_time",
    "run_length_density",
]


def interevent_times(pp: MarkedPointProcess) -> np.ndarray:
    """Durations between consecutive events, in seconds.

    Requires at least two events; all durations are positive because
    event times are strictly increasing.
    """
    if pp.n_events < 2:
        raise ValueError("need at least 2 events for interevent times")
    return np.diff(pp.times)


def _validated_intervals(intervals) -> np.ndarray:
    # One row of at least 2 interevent times, for _dispersion_rows.
    intervals = np.asarray(intervals, dtype=float)
    if intervals.ndim != 1 or intervals.size < 2:
        raise ValueError("need at least 2 interevent times")
    return intervals[np.newaxis]


def coefficient_of_variation(intervals) -> float:
    """Global coefficient of variation of interevent times.

    Ratio of the population standard deviation (divide by n, not n-1)
    to the mean.
    """
    return float(_dispersion_rows(_validated_intervals(intervals))[0][0])


def local_coefficient_of_variation(intervals) -> float:
    """Local coefficient of variation over adjacent interevent pairs.

    Averages ``3*(T_i - T_{i+1})**2 / (T_i + T_{i+1})**2`` over the
    n-1 adjacent pairs of the n interevent times.
    """
    return float(_dispersion_rows(_validated_intervals(intervals))[1][0])


def _dispersion_rows(intervals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Cv and Lv of every row of a 2-D block of interevent times, the one
    # place either formula is written: the 1-D functions above take the
    # one-row result, and the surrogate sweep a whole block of rows.
    if np.any(intervals <= 0):
        raise ValueError("interevent times must be positive")
    a = intervals[:, :-1]
    b = intervals[:, 1:]
    return (np.std(intervals, axis=1) / np.mean(intervals, axis=1),
            np.mean(3.0 * (a - b) ** 2 / (a + b) ** 2, axis=1))


def mean_interevent_time(intervals) -> float:
    """Arithmetic mean interevent time in seconds.

    Unlike the dispersion measures this is defined for a single
    interevent time (two events) and returns it unchanged.
    """
    intervals = np.asarray(intervals, dtype=float)
    if intervals.ndim != 1 or intervals.size < 1:
        raise ValueError("need at least 1 interevent time")
    if np.any(intervals <= 0):
        raise ValueError("interevent times must be positive")
    return float(np.mean(intervals))


@dataclass(frozen=True, eq=False)
class RunLengthDensity:
    """Discrete probability density of run lengths on a sparse support.

    ``lengths`` holds the observed run lengths in increasing order and
    ``probs`` the matching probabilities; lengths never observed do not
    appear.  Probabilities sum to 1 within 1e-12.
    """

    lengths: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=float)
        if lengths.ndim != 1 or probs.shape != lengths.shape or lengths.size == 0:
            raise ValueError("lengths and probs must be matching non-empty 1-D arrays")
        if np.any(lengths < 1) or np.any(np.diff(lengths) <= 0):
            raise ValueError("lengths must be >= 1 and strictly increasing")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunLengthDensity):
            return NotImplemented
        return (np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.probs, other.probs))


def run_length_density(pp: MarkedPointProcess) -> RunLengthDensity:
    """Empirical run-length density p(m) = count(m) / n_events."""
    if pp.n_events < 1:
        raise ValueError("need at least 1 event for a run-length density")
    lengths, counts = np.unique(pp.lengths, return_counts=True)
    return RunLengthDensity(lengths=lengths, probs=counts / pp.n_events)


def average_density(densities: list[RunLengthDensity]) -> RunLengthDensity:
    """Pointwise arithmetic mean of densities over the union support.

    A density contributes probability 0 at lengths outside its own
    support, so the result still sums to 1.
    """
    if not densities:
        raise ValueError("need at least one density to average")
    support = np.unique(np.concatenate([d.lengths for d in densities]))
    acc = np.zeros(support.size)
    for d in densities:
        idx = np.searchsorted(support, d.lengths)
        acc[idx] += d.probs
    return RunLengthDensity(lengths=support, probs=acc / len(densities))
