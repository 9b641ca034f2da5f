"""Deconvolution by simulation.

Given a sample x from X and an independent sample z from Z = X + Y (X and Y
independent), estimate the distribution of Y by an iterated rank/permutation
Markov chain, with boundary-condition handling, QQ/distance diagnostics,
synthetic experiment generators, and an exact rational analyzer of the
three-observation chain.

All vectors are numpy float arrays and all indexing is 0-based throughout
the package, including every file format it emits.

The package namespace holds the user API; the building blocks (the chain
step, quantile functions, the census pieces ...) are imported from their
modules, e.g. ``deconvsim.engine.step``.
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
from .config import (
    UNBOUNDED,
    AdjustPolicy,
    DeconvConfig,
    EqualizeStrategy,
    PoolingKind,
    PoolingMode,
    SmoothingSpec,
    SupportConstraint,
    TieRule,
)
from .core import make_rng
from .metrics import TheoreticalDist, qq_data
from .engine import IterationTrace, run
from .datagen import DistSpec, generate, make_experiment
from .smallcase import full_census

__all__ = [
    "AdjustPolicy",
    "ConfigError",
    "CutLineError",
    "DeconvConfig",
    "DeconvError",
    "DegenerateReferenceError",
    "DistSpec",
    "EqualizeStrategy",
    "InfeasibleAdjustmentError",
    "InvalidInputError",
    "IterationTrace",
    "PoolingKind",
    "PoolingMode",
    "SmoothingSpec",
    "SupportConstraint",
    "TheoreticalDist",
    "TieRule",
    "UNBOUNDED",
    "full_census",
    "generate",
    "make_experiment",
    "make_rng",
    "qq_data",
    "run",
    "__version__",
]
