"""Poissonian surrogates and Monte-Carlo confidence bands.

A surrogate keeps the event count and observation window of the
original process but redraws the event times, all the statistics read,
as i.i.d. uniforms over the window: a homogeneous Poisson process
conditioned on its count.  Comparing an observed statistic against the
band spanned by many surrogates, always from its 2.5% to its 97.5%
quantile (:data:`BAND`), turns it into a significance test: values
above the band mean clustering, values below mean quasi-periodicity.

Every band comes from one sweep, :func:`cell_bands`, which evaluates
Cv, Lv and the Allan factor on blocks of surrogates, one surrogate per
row, so that the fixed cost of each evaluation is shared by the block.
The observed process rides as the first row of the first block, so the
sweep also gives its Cv, Lv and Allan-factor curve.  The values land in
one sample matrix, a column per statistic, and one quantile pass over
its surrogate rows gives every band edge of the cell: the Cv band, the
Lv band and the Allan-factor band, always all three.  Each scalar band
carries the observed value in ``observed``, and the Allan-factor band
the observed curve, NaN where the factor is undefined, in
``AfBand.observed``.

Randomness comes from the counter-based Philox generator keyed with
``(seed, stream)``, so surrogate i is stream i of the configured seed:
fully deterministic, platform-independent, and independent across
surrogates regardless of evaluation order.  The sweep re-keys one
generator to each stream in turn rather than building one per
surrogate; the streams are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allan import _BLOCK_EVENTS, _af_grid, _tau_grid
from .runs import MarkedPointProcess
from .stats import _dispersion_rows

__all__ = [
    "AfBand",
    "ScalarBand",
    "SurrogateConfig",
    "cell_bands",
    "surrogate_rng",
]

_MAX_SEED = 2 ** 64
_MIN_EVENTS = 3   # the fewest a sweep takes: Cv and Lv need two intervals

# The quantile levels of every band's lower and upper edge.
BAND = (0.025, 0.975)


@dataclass(frozen=True)
class SurrogateConfig:
    """How many surrogates to draw, and from which seed."""

    seed: int
    n_surrogates: int = 1000

    def __post_init__(self):
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.n_surrogates < 2:
            raise ValueError("need at least 2 surrogates for a band")


def surrogate_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for one substream: Philox keyed with ``(seed, stream)``."""
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if not 0 <= stream < _MAX_SEED:
        raise ValueError("stream must be a 64-bit unsigned integer")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _surrogate_streams(seed: int, count: int):
    # surrogate_rng(seed, i) for i = 0..count-1, in order, as one
    # Generator whose Philox is re-keyed in place: the state of a fresh
    # Philox (counter 0, empty buffer) with the key set to (seed, i).
    # Each yielded stream is the same bits as surrogate_rng(seed, i) and
    # is valid until the next one is taken; re-keying is several times
    # cheaper than building a Generator.
    rng = surrogate_rng(seed)
    state = rng.bit_generator.state
    for stream in range(count):
        state["state"]["key"][1] = stream
        rng.bit_generator.state = state
        yield rng


def _sorted_uniform(rng: np.random.Generator, n: int, start: float,
                    span: float, out: np.ndarray | None = None) -> np.ndarray:
    # ``n`` sorted i.i.d. uniform times on [start, start + span), written
    # into ``out`` when one is given.  Ties have probability ~n^2/2^53 but
    # would break strict monotonicity; redraw from the same substream
    # until clean.
    times = np.empty(n) if out is None else out
    while True:
        rng.random(out=times)
        times *= span
        times += start
        times.sort()
        if not np.any(times[1:] == times[:-1]):
            return times


@dataclass(frozen=True)
class ScalarBand:
    """Surrogate band for a scalar statistic, with the observed verdict.

    ``classification`` is "clustered" above the band, "quasi-periodic"
    below it, "poissonian" inside it.
    """

    statistic: str
    observed: float
    lo: float
    hi: float
    classification: str


def _classify(observed: float, lo: float, hi: float) -> str:
    if observed > hi:
        return "clustered"
    if observed < lo:
        return "quasi-periodic"
    return "poissonian"


@dataclass(frozen=True, eq=False)
class AfBand:
    """Per-tau surrogate quantiles of the Allan factor, with the observed
    curve.

    ``lo``/``hi`` are NaN at grid points where no surrogate produced a
    defined factor; ``n_samples`` counts the defined surrogate values
    entering each quantile.  ``observed`` is the observed process's
    Allan factor at each tau, NaN where it is undefined.
    """

    taus: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_samples: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        n_samples = np.asarray(self.n_samples, dtype=np.int64)
        observed = np.asarray(self.observed, dtype=float)
        if not (taus.shape == lo.shape == hi.shape == n_samples.shape
                == observed.shape):
            raise ValueError("band arrays must share one shape")
        both = np.isfinite(lo) & np.isfinite(hi)
        if np.any(lo[both] > hi[both]):
            raise ValueError("band lower edge exceeds upper edge")
        for name, arr in (("taus", taus), ("lo", lo), ("hi", hi),
                          ("n_samples", n_samples), ("observed", observed)):
            object.__setattr__(self, name, arr)


def _band_edges(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    # The BAND quantiles and the count of defined (finite) values of
    # every column of a (surrogates, statistics) matrix.  One quantile
    # call serves every column; a column holding any NaN comes back NaN
    # from it, so a column that is defined on some surrogates but not all
    # is taken again over its defined values alone.
    defined = np.isfinite(samples)
    n_samples = defined.sum(axis=0)
    lo, hi = np.quantile(samples, BAND, axis=0, method="linear")
    for j in np.flatnonzero((n_samples > 0) & (n_samples < samples.shape[0])):
        lo[j], hi[j] = np.quantile(samples[defined[:, j], j], BAND,
                                   method="linear")
    return lo, hi, n_samples


def cell_bands(pp: MarkedPointProcess, taus: np.ndarray,
               config: SurrogateConfig
               ) -> tuple[ScalarBand, ScalarBand, AfBand]:
    """Cv band, Lv band and Allan-factor band from one surrogate sweep.

    Surrogate i is stream i of the configured seed: ``pp.n_events``
    sorted i.i.d. uniform times on the observation window, drawn from
    ``surrogate_rng(config.seed, i)``.  Surrogates are drawn
    into blocks of about ``_BLOCK_EVENTS`` event times and evaluated a
    block at a time, so memory stays bounded however many surrogates
    are asked for; a surrogate's values do not depend on the block it
    falls in.  The observed process rides as row 0 of the first block,
    so its Cv, Lv and Allan factor come from the same evaluations, with
    the same bits as :func:`~runclust.stats.coefficient_of_variation`,
    :func:`~runclust.stats.local_coefficient_of_variation` and
    :func:`~runclust.allan.af_curve` give it alone.

    Each process fills one row of a sample matrix: Cv, Lv, then the
    Allan factor at each tau.  Every band edge is the :data:`BAND`
    quantile of its column over the surrogate rows, with the same
    rank-interpolation estimator used for thresholds, taken for all
    columns in one pass.  At each tau, surrogates whose Allan factor is
    undefined contribute no sample rather than a placeholder.  Needs at
    least 3 events so Cv and Lv are defined on every surrogate; the grid
    is checked as in :func:`~runclust.allan.af_curve` before any
    surrogate is drawn.

    Returns ``(cv_band, lv_band, af_band)``.
    """
    if pp.n_events < _MIN_EVENTS:
        raise ValueError(f"need at least {_MIN_EVENTS} events for scalar bands")
    taus = _tau_grid(taus, pp.dt)

    n, total = pp.n_events, 1 + config.n_surrogates
    span = pp.window_end - pp.window_start
    samples = np.empty((total, 2 + taus.size))
    rows = min(max(1, _BLOCK_EVENTS // n), total)
    block = np.empty((rows, n))
    block[0] = pp.times  # the first block's row 0; later blocks draw over it
    streams = _surrogate_streams(config.seed, config.n_surrogates)
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        part = block[:hi - lo]
        for i in range(max(lo, 1), hi):
            _sorted_uniform(next(streams), n, pp.window_start, span,
                            out=part[i - lo])
        samples[lo:hi, 0], samples[lo:hi, 1] = _dispersion_rows(
            np.diff(part, axis=1))
        samples[lo:hi, 2:] = _af_grid(part, pp.window_start, pp.duration, taus)
    lower, upper, n_samples = _band_edges(samples[1:])

    cv_band, lv_band = (
        ScalarBand(statistic=name, observed=value, lo=lo, hi=hi,
                   classification=_classify(value, lo, hi))
        for name, value, lo, hi in zip(("cv", "lv"), samples[0, :2].tolist(),
                                       lower[:2].tolist(), upper[:2].tolist()))
    return cv_band, lv_band, AfBand(taus=taus, lo=lower[2:], hi=upper[2:],
                                    n_samples=n_samples[2:],
                                    observed=samples[0, 2:].copy())
