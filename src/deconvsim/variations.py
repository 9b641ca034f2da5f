"""Sample-size equalization, Gaussian smoothing, bootstrap, and pooling.

These are the optional knobs around the core iteration: making x and z the
same length when they are not, perturbing the data to smooth a lattice,
resampling, and combining iterates into a single pooled estimate.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import as_sample
from .errors import ConfigError, InvalidInputError

# The largest smoothing sd whose square is a finite float, about 1.34e154.
_SD_MAX = math.sqrt(sys.float_info.max)


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
        sds = (self.xi_sd, self.eta_sd, self.zeta_sd)
        if not all(0 <= sd <= _SD_MAX for sd in sds):
            raise InvalidInputError(
                f"smoothing standard deviations must lie in [0, {_SD_MAX:.3g}]"
            )
        if self.active:
            want = self.xi_sd**2 + self.eta_sd**2
            got = self.zeta_sd**2
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


def _check_type(what: str, value, cls: type) -> None:
    """Raise ConfigError unless value is a cls (an ``operator.index`` integer for int)."""
    if not (hasattr(type(value), "__index__") if cls is int else isinstance(value, cls)):
        raise ConfigError(f"{what} must be of type {cls.__name__}, got {value!r}")


def equalize_lengths(
    x, z, strategy: EqualizeStrategy, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Return equal-length copies of x and z per the chosen strategy."""
    x = as_sample(x)
    z = as_sample(z)
    kind = strategy.kind

    if kind is EqualizeKind.BOOTSTRAP:
        n = strategy.target
        try:
            return x[rng.integers(0, x.size, n)], z[rng.integers(0, z.size, n)]
        except (MemoryError, ValueError):  # ValueError: beyond the largest array size
            raise InvalidInputError(
                f"a bootstrap sample of n = {n} values does not fit in memory"
            ) from None

    if x.size == z.size:
        return x, z

    if kind is EqualizeKind.SUBSAMPLE:
        n = min(x.size, z.size)
        if x.size > n:
            return rng.choice(x, size=n, replace=False), z
        return x, rng.choice(z, size=n, replace=False)

    # TILE
    if x.size < z.size:
        return _tile_to(x, z.size, rng), z
    return x, _tile_to(z, x.size, rng)


def _tile_to(v: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # n = k*m + r: repeat v k times, then adjoin r draws without replacement.
    m = v.size
    k, r = divmod(n, m)
    parts = [v] * k
    if r:
        parts.append(rng.choice(v, size=r, replace=False))
    return np.concatenate(parts)


def smooth(
    x: np.ndarray, z: np.ndarray, spec: SmoothingSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One draw of the smoothing noise: ``(sort(x + xi), eta, sort(z + zeta))``.

    Draws xi, eta, zeta in that order and skips any whose sd is 0; x or z
    is then returned as given and eta is None.
    """
    if spec.xi_sd > 0:
        x = np.sort(x + rng.normal(0.0, spec.xi_sd, x.size))
    eta = rng.normal(0.0, spec.eta_sd, x.size) if spec.eta_sd > 0 else None
    if spec.zeta_sd > 0:
        z = np.sort(z + rng.normal(0.0, spec.zeta_sd, z.size))
    return x, eta, z


def pool_average(ys, burn_in: int) -> np.ndarray:
    """Elementwise mean of the sorted iterates after burn_in.

    Row ``ys[t]`` is the sorted estimate of iteration t+1, so iterations
    strictly beyond burn_in are ``ys[burn_in:]``.  The mean of ascending
    vectors is ascending.
    """
    return _post_burn_in(ys, burn_in).mean(axis=0)


def pool_concat(ys, burn_in: int) -> np.ndarray:
    """The iterates after burn_in, flattened into one vector."""
    return _post_burn_in(ys, burn_in).flatten()


def _post_burn_in(ys, burn_in: int) -> np.ndarray:
    ys = np.asarray(ys, dtype=np.float64)
    if burn_in < 0:
        raise InvalidInputError("burn-in must be >= 0")
    if burn_in >= len(ys):
        raise InvalidInputError(
            f"burn-in {burn_in} leaves no iterations out of {len(ys)}"
        )
    return ys[burn_in:]
