"""Run configuration shared by the engine and the CLI."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .adjusters import UNBOUNDED, AdjustPolicy, SupportConstraint
from .core import TieRule
from .errors import ConfigError
from .variations import (
    EqualizeStrategy,
    PoolingKind,
    PoolingMode,
    SmoothingSpec,
    _check_type,
)

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class DeconvConfig:
    """Everything a deconvolution run depends on besides the data.

    The burn-in is ``pool.burn_in``, a reporting concept: the engine records
    every iteration and summaries (pooled estimates, mean distance) skip
    the first ``pool.burn_in`` of them.  A field of the wrong type raises
    ConfigError, so the engine's unchecked layers never see one.
    """

    iters: int = 100
    adjust: AdjustPolicy = AdjustPolicy.NONE
    support: SupportConstraint = UNBOUNDED
    equalize: EqualizeStrategy = field(default_factory=EqualizeStrategy.tile)
    smoothing: SmoothingSpec = field(default_factory=SmoothingSpec)
    pool: PoolingMode = field(default_factory=PoolingMode)
    seed: int = DEFAULT_SEED
    tie_rule: TieRule = TieRule.FIRST_OCCURRENCE

    def __post_init__(self):
        for name, cls in _FIELD_TYPES:
            _check_type(name, getattr(self, name), cls)
        if self.iters < 0:
            raise ConfigError("iteration count must be >= 0")
        if self.pool.kind is not PoolingKind.NONE and self.pool.burn_in >= self.iters:
            raise ConfigError(
                f"pooling burn-in {self.pool.burn_in} leaves no iterations "
                f"out of {self.iters}"
            )
        if self.support.bounded and self.adjust is AdjustPolicy.NONE:
            warnings.warn(
                "support is bounded but no adjustment policy is set; "
                "iterates may leave the support",
                stacklevel=2,
            )


_FIELD_TYPES = (
    ("iters", int), ("adjust", AdjustPolicy), ("support", SupportConstraint),
    ("equalize", EqualizeStrategy), ("smoothing", SmoothingSpec),
    ("pool", PoolingMode), ("tie_rule", TieRule),
)
