"""Every run setting in one home: the tie rule, the repair's policy and
support, equalization, smoothing, pooling and ``DeconvConfig``, which
holds one of each and is shared by the engine and the CLI."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real

import numpy as np

from .errors import ConfigError, InvalidInputError

DEFAULT_SEED = 1729

# The largest smoothing sd whose square is a finite float, about 1.34e154.
_SD_MAX = math.sqrt(sys.float_info.max)


def _check_type(what: str, value, cls: type) -> None:
    """Raise ConfigError unless value is a cls (an ``operator.index`` integer for int)."""
    if cls is int:
        ok = hasattr(type(value), "__index__")
    elif cls is Real:
        # A float first: it skips isinstance(value, Real), an ABC check
        # about ten times slower, which every config built would pay.
        ok = type(value) is float or isinstance(value, Real)
    else:
        ok = isinstance(value, cls)
    if not ok:
        raise ConfigError(f"{what} must be of type {cls.__name__}, got {value!r}")


def _as_float(bound: Real) -> float:
    # A bound beyond float range becomes the infinity no sample can cross.
    try:
        return float(bound)
    except OverflowError:
        return math.inf if bound > 0 else -math.inf


class TieRule(Enum):
    """How equal values are ordered when ranking.

    FIRST_OCCURRENCE gives the earlier element the lower rank, which keeps
    the result a true permutation and makes ranking deterministic.  RANDOM
    breaks each tie uniformly at random (for lattice-valued data); it needs
    an rng handle: it ranks one uniform key per element, then the values
    in key order, so that ties keep key order.
    """

    FIRST_OCCURRENCE = "first-occurrence"
    RANDOM = "random"


class AdjustPolicy(Enum):
    """How out-of-support values are repaired.

    NONE leaves the vector alone (violations are still counted).  CLAMP
    rounds each violator to the nearest bound.  RESAMPLE replaces each
    violator with a uniform draw from the in-support values of the same
    vector.  COPY_SMALLEST replaces the j lower-bound violators with the
    j smallest in-support values (and upper-bound violators with the
    largest ones).  ABSOLUTE reflects violators back across the violated
    bound, folding repeatedly when both bounds are finite.
    """

    NONE = "none"
    CLAMP = "clamp"
    RESAMPLE = "resample"
    COPY_SMALLEST = "copy-min"
    ABSOLUTE = "abs"


@dataclass(frozen=True)
class SupportConstraint:
    """Known support of Y: values must lie in [lower, upper].  The bounds
    are kept as given; every computation uses ``float_bounds``, their
    float64 values, in which a bound beyond float range is infinite."""

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        _check_type("support lower bound", self.lower, Real)
        _check_type("support upper bound", self.upper, Real)
        # Also false when either bound is NaN.
        if not self.lower < self.upper:
            raise InvalidInputError("support requires lower < upper")
        lower, upper = _as_float(self.lower), _as_float(self.upper)
        if not lower < upper:
            raise InvalidInputError("support bounds must differ as float64 values")
        object.__setattr__(self, "float_bounds", (lower, upper))

    @property
    def bounded(self) -> bool:
        return any(map(math.isfinite, self.float_bounds))

    def violations(self, v: np.ndarray) -> np.ndarray:
        """Boolean mask of out-of-support elements."""
        lower, upper = self.float_bounds
        return (v < lower) | (v > upper)


UNBOUNDED = SupportConstraint()


class EqualizeKind(Enum):
    BOOTSTRAP = "bootstrap"
    SUBSAMPLE = "subsample"
    TILE = "tile"


@dataclass(frozen=True)
class EqualizeStrategy:
    """How unequal-length x and z are brought to a common length.

    BOOTSTRAP resamples both with replacement to length ``target``.
    SUBSAMPLE draws without replacement from the longer vector down to the
    shorter one's length.  TILE repeats the shorter vector whole as many
    times as fits and tops it up with a without-replacement draw.
    """

    kind: EqualizeKind = EqualizeKind.TILE
    target: int | None = None

    def __post_init__(self):
        _check_type("equalize kind", self.kind, EqualizeKind)
        if self.target is not None:
            _check_type("bootstrap target", self.target, int)
        if self.kind is EqualizeKind.BOOTSTRAP:
            if self.target is None or self.target < 1:
                raise InvalidInputError("bootstrap equalization needs target >= 1")
        elif self.target is not None:
            raise InvalidInputError(f"{self.kind.value} takes no target length")

    @classmethod
    def bootstrap(cls, target: int) -> "EqualizeStrategy":
        return cls(EqualizeKind.BOOTSTRAP, target)

    @classmethod
    def subsample(cls) -> "EqualizeStrategy":
        return cls(EqualizeKind.SUBSAMPLE)

    @classmethod
    def tile(cls) -> "EqualizeStrategy":
        return cls(EqualizeKind.TILE)


@dataclass(frozen=True)
class SmoothingSpec:
    """Standard deviations of the Gaussian perturbations added to x, y, z.

    ``fresh_each_step`` draws new perturbations at every iteration;
    otherwise one set is drawn up front and reused.  The smoothings are
    bias-free when zeta_sd**2 == xi_sd**2 + eta_sd**2 (perturbed x plus
    perturbed y is then distributed like perturbed z); violating that is
    allowed but warned about.  Each sd must lie in [0, _SD_MAX].
    """

    xi_sd: float = 0.0
    eta_sd: float = 0.0
    zeta_sd: float = 0.0
    fresh_each_step: bool = True

    def __post_init__(self):
        _check_type("smoothing xi_sd", self.xi_sd, Real)
        _check_type("smoothing eta_sd", self.eta_sd, Real)
        _check_type("smoothing zeta_sd", self.zeta_sd, Real)
        _check_type("fresh_each_step", self.fresh_each_step, bool)
        # As Python numbers: NumPy would compare a float32 sd with _SD_MAX,
        # and square it, in float32, where both overflow.
        sds = [
            sd.item() if isinstance(sd, np.generic) else sd
            for sd in (self.xi_sd, self.eta_sd, self.zeta_sd)
        ]
        if not all(0 <= sd <= _SD_MAX for sd in sds):
            raise InvalidInputError(
                f"smoothing standard deviations must lie in [0, {_SD_MAX:.3g}]"
            )
        if self.active:
            xi, eta, zeta = sds
            want = xi**2 + eta**2
            got = zeta**2
            if not np.isclose(want, got, rtol=1e-9, atol=1e-12):
                warnings.warn(
                    "smoothing is biased: zeta_sd^2 != xi_sd^2 + eta_sd^2 "
                    f"({got:g} != {want:g})",
                    stacklevel=2,
                )

    @property
    def active(self) -> bool:
        return max(self.xi_sd, self.eta_sd, self.zeta_sd) > 0


class PoolingKind(Enum):
    NONE = "none"
    AVERAGE = "average"
    CONCAT = "concat"
    CONCAT_AND_DRAW = "concat-draw"


@dataclass(frozen=True)
class PoolingMode:
    """Whether and how post-burn-in iterates are combined.

    AVERAGE takes the elementwise mean of the sorted iterates, CONCAT
    concatenates them, and CONCAT_AND_DRAW additionally feeds each
    iteration's working vector with draws from the pool accumulated so far
    instead of the previous iterate.
    """

    kind: PoolingKind = PoolingKind.NONE
    burn_in: int = 4

    def __post_init__(self):
        _check_type("pooling kind", self.kind, PoolingKind)
        _check_type("pooling burn-in", self.burn_in, int)
        if self.burn_in < 0:
            raise InvalidInputError("pooling burn-in must be >= 0")


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
