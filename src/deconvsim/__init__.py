"""Deconvolution by simulation.

Given a sample x from X and an independent sample z from Z = X + Y (X and Y
independent), estimate the distribution of Y by an iterated rank/permutation
Markov chain, with boundary-condition handling, QQ/distance diagnostics,
synthetic experiment generators, and an exact rational analyzer of the
three-observation chain.

All vectors are numpy float arrays and all indexing is 0-based throughout
the package, including every file format it emits.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CutLineError,
    DeconvError,
    DegenerateReferenceError,
    InfeasibleAdjustmentError,
    InvalidInputError,
)
from .core import (
    TieRule,
    make_rng,
    random_permutation,
    ranks,
)
from .adjusters import UNBOUNDED, AdjustPolicy, SupportConstraint, adjust
from .variations import (
    EqualizeStrategy,
    PoolingKind,
    PoolingMode,
    SmoothingSpec,
    bootstrap_sample,
    equalize_lengths,
    perturb,
    pool_average,
    pool_concat,
)
from .metrics import (
    NormalReferenceLine,
    QQData,
    TheoreticalDist,
    distance_index,
    exponential_quantile,
    l1_distance,
    normal_quantile,
    plotting_positions,
    qq_data,
    reference_normal_line,
    sample_moments,
)
from .config import DEFAULT_SEED, DeconvConfig
from .engine import (
    IterationRecord,
    IterationTrace,
    init_estimate,
    naive_random_difference,
    naive_sorted_difference,
    run,
)
from .datagen import DistSpec, generate, make_experiment
from .smallcase import (
    CANONICAL_X,
    CanonicalInstance,
    RegionCensus,
    cut_values,
    enumerate_regions,
    full_census,
    stationary_distribution,
    transition_matrix,
)

__all__ = [
    "AdjustPolicy",
    "CANONICAL_X",
    "CanonicalInstance",
    "ConfigError",
    "CutLineError",
    "DEFAULT_SEED",
    "DeconvConfig",
    "DeconvError",
    "DegenerateReferenceError",
    "DistSpec",
    "EqualizeStrategy",
    "InfeasibleAdjustmentError",
    "InvalidInputError",
    "IterationRecord",
    "IterationTrace",
    "NormalReferenceLine",
    "PoolingKind",
    "PoolingMode",
    "QQData",
    "RegionCensus",
    "SmoothingSpec",
    "SupportConstraint",
    "TheoreticalDist",
    "TieRule",
    "UNBOUNDED",
    "adjust",
    "bootstrap_sample",
    "cut_values",
    "distance_index",
    "enumerate_regions",
    "equalize_lengths",
    "exponential_quantile",
    "full_census",
    "generate",
    "init_estimate",
    "l1_distance",
    "make_experiment",
    "make_rng",
    "naive_random_difference",
    "naive_sorted_difference",
    "normal_quantile",
    "perturb",
    "plotting_positions",
    "pool_average",
    "pool_concat",
    "qq_data",
    "random_permutation",
    "ranks",
    "reference_normal_line",
    "run",
    "sample_moments",
    "stationary_distribution",
    "transition_matrix",
    "__version__",
]
