"""Threshold-run extraction and temporal-clustering statistics.

The pipeline: parse a regularly sampled series, extract maximal runs of
samples above a percentile threshold, treat the runs as a marked
temporal point process, and quantify its clustering with interevent
dispersion measures and the Allan factor, each judged against
Poissonian surrogate bands.
"""

from .allan import (AfCurve, CountingProcess, DP_CUTOFF, PowerLawFit, af_curve,
                    allan_factor, counting_process, default_fit_range,
                    departure, fit_power_law)
from .ingest import (ParseError, SampledSeries, StationMeta, parse_series,
                     parse_station_meta, write_series)
from .runs import (MarkedPointProcess, ThresholdSpec, compute_threshold,
                   extract_runs, filter_by_min_length, read_events,
                   write_events)
from .stats import (RunLengthDensity, average_density, coefficient_of_variation,
                    interevent_times, local_coefficient_of_variation,
                    mean_interevent_time, run_length_density)
from .surrogates import (AfBand, ScalarBand, SurrogateConfig, cell_bands,
                         poisson_surrogate, surrogate_rng)
from .pipeline import (AnalysisConfig, TauGridSpec, derive_cell_seed,
                       run_batch, run_station)
from .synth import SynthSpec, generate, generate_series

__version__ = "0.1.0"

__all__ = [
    "AfBand", "AfCurve", "AnalysisConfig", "CountingProcess", "DP_CUTOFF",
    "MarkedPointProcess", "ParseError", "PowerLawFit",
    "RunLengthDensity", "SampledSeries", "ScalarBand", "StationMeta",
    "SurrogateConfig", "SynthSpec", "TauGridSpec", "ThresholdSpec",
    "af_curve", "allan_factor",
    "average_density", "cell_bands", "coefficient_of_variation",
    "compute_threshold", "counting_process", "default_fit_range",
    "departure", "derive_cell_seed", "extract_runs",
    "filter_by_min_length",
    "fit_power_law", "generate", "generate_series", "interevent_times",
    "local_coefficient_of_variation",
    "mean_interevent_time", "parse_series", "parse_station_meta",
    "poisson_surrogate", "read_events", "run_batch", "run_length_density",
    "run_station", "surrogate_rng", "write_events",
    "write_series",
]
