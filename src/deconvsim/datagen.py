"""Synthetic sample generators for the bundled experiments.

Each named experiment draws three independent samples: x0 and y0 combine
into the observed z0 = x0 + y0, and x1 is a second independent sample
from X's distribution.  Only (x1, z0) are inputs to the engine; y0 is
returned as ground truth for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import as_sample, make_rng
from .errors import ConfigError, InvalidInputError


class DistKind(Enum):
    NORMAL = "normal"
    EXPONENTIAL = "exponential"
    UNIFORM = "uniform"
    CONTAMINATED_EXPONENTIAL = "contaminated-exponential"
    DELAY_LINK = "delay-link"


def _float(what: str, value) -> float:
    """value as a float; ConfigError naming what when it is beyond float64."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is beyond float64 range") from None


@dataclass(frozen=True)
class DistSpec:
    """A drawable distribution; build via the classmethod constructors."""

    kind: DistKind
    params: tuple[float, ...]

    @classmethod
    def normal(cls, mu: float = 0.0, sd: float = 1.0) -> "DistSpec":
        mu, sd = _float("normal mu", mu), _float("normal sd", sd)
        if not math.isfinite(mu):
            raise ConfigError(f"normal mu must be finite, got {mu!r}")
        if not 0 < sd < math.inf:
            raise ConfigError(f"normal sd must be finite and > 0, got {sd!r}")
        return cls(DistKind.NORMAL, (mu, sd))

    @classmethod
    def exponential(cls, mean: float = 1.0) -> "DistSpec":
        # Parameterized by mean, not rate.
        mean = _float("exponential mean", mean)
        if not 0 < mean < math.inf:
            raise ConfigError(f"exponential mean must be finite and > 0, got {mean!r}")
        return cls(DistKind.EXPONENTIAL, (mean,))

    @classmethod
    def uniform(cls, lo: float = 0.0, hi: float = 1.0) -> "DistSpec":
        lo, hi = _float("uniform lo", lo), _float("uniform hi", hi)
        if not lo < hi:
            raise ConfigError("uniform requires lo < hi")
        # Generator.uniform draws lo + (hi - lo) * u, so the width must be finite.
        if not math.isfinite(hi - lo):
            raise ConfigError(f"uniform requires a finite width hi - lo, got {lo:g},{hi:g}")
        return cls(DistKind.UNIFORM, (lo, hi))

    @classmethod
    def contaminated_exponential(
        cls, n_main: int, main_mean: float, n_out: int, out_mean: float
    ) -> "DistSpec":
        params = (
            _float("contaminated n_main", n_main),
            _float("contaminated main_mean", main_mean),
            _float("contaminated n_out", n_out),
            _float("contaminated out_mean", out_mean),
        )
        n_main, main_mean, n_out, out_mean = params
        if not (n_main.is_integer() and n_out.is_integer()):
            raise ConfigError("contaminated-exponential counts must be integers")
        if n_main < 0 or n_out < 0 or n_main + n_out < 1:
            raise ConfigError("contaminated component counts must be nonnegative, total >= 1")
        if not (0 < main_mean < math.inf and 0 < out_mean < math.inf):
            raise ConfigError("contaminated component means must be finite and > 0")
        return cls(DistKind.CONTAMINATED_EXPONENTIAL, params)

    @classmethod
    def delay_link(
        cls, base_ms: float, spike_prob: float, spike_mean_ms: float
    ) -> "DistSpec":
        """Demo-only network-delay model: constant base plus occasional
        exponential spikes.  Not part of any acceptance check."""
        params = (
            _float("delay base_ms", base_ms),
            _float("delay spike_prob", spike_prob),
            _float("delay spike_mean_ms", spike_mean_ms),
        )
        base_ms, spike_prob, spike_mean_ms = params
        if not 0 <= base_ms < math.inf:
            raise ConfigError(f"delay base must be finite and >= 0, got {base_ms!r}")
        if not 0.0 <= spike_prob <= 1.0:
            raise ConfigError("spike probability must be in [0, 1]")
        if not 0 < spike_mean_ms < math.inf:
            raise ConfigError(f"spike mean must be finite and > 0, got {spike_mean_ms!r}")
        return cls(DistKind.DELAY_LINK, params)


def parse_dist_spec(text: str) -> DistSpec:
    """Parse "name" or "name:p1,p2,..." into a DistSpec.

    Recognized names: normal(mu, sd), exponential(mean), uniform(lo, hi),
    contaminated-exponential(n_main, main_mean, n_out, out_mean),
    delay-link(base_ms, spike_prob, spike_mean_ms).  Omitted parameters
    take defaults where the constructor has them.
    """
    name, _, rest = text.strip().partition(":")
    name = name.strip().lower()
    try:
        params = [float(p) for p in rest.split(",")] if rest.strip() else []
    except ValueError:
        raise ConfigError(f"malformed distribution parameters in {text!r}") from None
    try:
        if name == "normal":
            return DistSpec.normal(*params)
        if name == "exponential":
            return DistSpec.exponential(*params)
        if name == "uniform":
            return DistSpec.uniform(*params)
        if name == "contaminated-exponential":
            if len(params) != 4:
                raise ConfigError("contaminated-exponential takes exactly 4 parameters")
            return DistSpec.contaminated_exponential(*params)
        if name == "delay-link":
            if len(params) != 3:
                raise ConfigError("delay-link takes exactly 3 parameters")
            return DistSpec.delay_link(*params)
    except TypeError:
        raise ConfigError(f"wrong parameter count in {text!r}") from None
    raise ConfigError(f"unknown distribution {name!r}")


def generate(spec: DistSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from spec; deterministic per rng state.  Raises
    InvalidInputError when a draw overflows float64."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    p = spec.params
    if spec.kind is DistKind.CONTAMINATED_EXPONENTIAL:
        n_main, n_out = int(p[0]), int(p[2])
        if n != n_main + n_out:
            raise InvalidInputError(
                f"contaminated sample needs n == {n_main + n_out}, got {n}"
            )
    try:
        if spec.kind is DistKind.NORMAL:
            sample = rng.normal(p[0], p[1], n)
        elif spec.kind is DistKind.EXPONENTIAL:
            sample = rng.exponential(p[0], n)
        elif spec.kind is DistKind.UNIFORM:
            sample = rng.uniform(p[0], p[1], n)
        elif spec.kind is DistKind.CONTAMINATED_EXPONENTIAL:
            pooled = np.concatenate(
                [rng.exponential(p[1], n_main), rng.exponential(p[3], n_out)]
            )
            sample = pooled[rng.permutation(n)]
        elif spec.kind is DistKind.DELAY_LINK:
            base, prob, spike_mean = p
            spikes = np.where(rng.random(n) < prob, rng.exponential(spike_mean, n), 0.0)
            with np.errstate(over="ignore"):  # an overflow is raised below
                sample = base + spikes
        else:
            raise ConfigError(f"unhandled distribution kind {spec.kind}")
    except (MemoryError, ValueError):  # ValueError: beyond the largest array size
        raise InvalidInputError(f"a sample of n = {n} values does not fit in memory") from None
    if not np.isfinite(sample).all():
        raise InvalidInputError(f"{spec.kind.value} draws overflow float64; use smaller parameters")
    return sample


EXPERIMENT_SIZE = 100

EXPERIMENT_SPECS = {
    "normal": DistSpec.normal(0.0, 1.0),
    "exponential": DistSpec.exponential(1.0),
    "uniform": DistSpec.uniform(0.0, 1.0),
    "outlier": DistSpec.contaminated_exponential(95, 1.0, 5, 100.0),
}


def make_experiment(name: str, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build one named experiment; returns (x1, z0, truth).

    x0, y0, x1 are drawn in that fixed order (n = 100 each) from the
    experiment's distribution, z0 = x0 + y0 elementwise, truth = y0.
    """
    try:
        spec = EXPERIMENT_SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENT_SPECS)}"
        ) from None
    rng = make_rng(seed)
    x0 = generate(spec, EXPERIMENT_SIZE, rng)
    y0 = generate(spec, EXPERIMENT_SIZE, rng)
    x1 = generate(spec, EXPERIMENT_SIZE, rng)
    z0 = x0 + y0
    return as_sample(x1), as_sample(z0), as_sample(y0)
