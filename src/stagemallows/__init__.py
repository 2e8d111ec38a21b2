"""Mallows models over staged rankings, with censoring-aware MCMC fitting.

The package models survey responses that place items into ordered stages,
where several items may share a stage and later stages may be unreported.
It provides the penalized Kendall tau distance for such rankings, the
exact Mallows distribution over the stage-assignment space, a Bayesian
fitter for recovering the central ordering and its spread, a synthetic
data generator with right censoring, and dataset / report serialization.
"""

from .errors import CapacityError, FormatError, InitializationError, StageMallowsError
from .inference import (
    FitResult,
    McmcConfig,
    McmcTrace,
    PriorConfig,
    log_likelihood,
    log_posterior,
    log_prior,
    log_truncated_normal,
    map_estimate,
    mcmc_fit,
    stage_marginals,
)
from .mallows import (
    MallowsParams,
    PartitionCache,
    default_cache,
    log_partition_function,
    log_pmf,
    partition_function,
    sample,
    structural_class,
)
from .rankings import (
    MISSING,
    CentralRanking,
    DistanceConfig,
    ItemSet,
    PairKind,
    PartialRanking,
    StageDomain,
    classify_pair,
    kendall_tau_partial,
    pair_tally,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"
