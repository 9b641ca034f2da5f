"""Distance diagnostics: the fitted normal reference line, the L1 distance
index against it, QQ-plot data, and moment summaries.

The reference line is the normal distribution with mean
``mean(z) - mean(x)`` and variance ``var(z) - var(x)`` evaluated at the
plotting positions ``p_i = (i - 0.5)/n``; the distance index of a sorted
estimate is the sum of absolute vertical deviations from that line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import as_sample
from .errors import DegenerateReferenceError, InvalidInputError

# Rational approximation coefficients for the inverse normal CDF
# (P. J. Acklam's method), refined below to full double precision.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to well below 1e-8.

    Acklam's rational approximation gives ~1e-9 relative error; one Halley
    step against math.erfc pushes that to near machine precision.
    """
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise InvalidInputError("quantile probability must lie in [0, 1]")

    p_low = 0.02425
    if p_low <= p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    else:
        # The tails are mirror images: the upper one is the negated lower
        # tail at 1 - p.
        upper = p > 0.5
        q = math.sqrt(-2.0 * math.log(1.0 - p if upper else p))
        x = (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
        if upper:
            x = -x

    # Halley refinement: e = Phi(x) - p, u = e / phi(x).
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * _SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def exponential_quantile(p: float) -> float:
    """Inverse standard exponential CDF: -ln(1 - p)."""
    if not 0.0 <= p < 1.0:
        raise InvalidInputError("quantile probability must lie in [0, 1)")
    return -math.log1p(-p)


def plotting_positions(n: int) -> np.ndarray:
    """Probability levels (i - 0.5)/n for the n ascending order statistics."""
    if n < 1:
        raise InvalidInputError("need at least one plotting position")
    return (np.arange(1, n + 1) - 0.5) / n


class TheoreticalDist(Enum):
    STANDARD_NORMAL = "standard-normal"
    STANDARD_EXPONENTIAL = "standard-exponential"


_QUANTILE_FN = {
    TheoreticalDist.STANDARD_NORMAL: normal_quantile,
    TheoreticalDist.STANDARD_EXPONENTIAL: exponential_quantile,
}


@dataclass(frozen=True)
class NormalReferenceLine:
    """Normal QQ reference fitted from the two observed samples."""

    mu: float
    sigma: float
    line_values: np.ndarray  # ascending, one per plotting position


@dataclass(frozen=True)
class QQData:
    """Paired (theoretical quantile, sample order statistic) coordinates."""

    theoretical: np.ndarray
    sample: np.ndarray


def sample_moments(v) -> tuple[float, float]:
    """Arithmetic mean and unbiased variance (divisor n - 1)."""
    v = as_sample(v)
    if v.size < 2:
        raise InvalidInputError("variance needs at least two values")
    return float(np.mean(v)), float(np.var(v, ddof=1))


def reference_normal_line(x, z, n: int) -> NormalReferenceLine:
    """Fit the reference line from samples x and z at n plotting positions.

    Raises DegenerateReferenceError when var(z) <= var(x), in which case
    the distance index is undefined.
    """
    mean_x, var_x = sample_moments(x)
    mean_z, var_z = sample_moments(z)
    if var_z <= var_x:
        raise DegenerateReferenceError(
            f"var(z)={var_z:g} does not exceed var(x)={var_x:g}"
        )
    mu = mean_z - mean_x
    sigma = math.sqrt(var_z - var_x)
    quantiles = np.array([normal_quantile(p) for p in plotting_positions(n)])
    return NormalReferenceLine(mu=mu, sigma=sigma, line_values=mu + sigma * quantiles)


def l1_distance(u, v) -> float:
    """Sum of absolute elementwise differences between two equal-length vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise InvalidInputError("vectors must have equal length")
    return float(np.abs(u - v).sum())


def distance_index(sorted_y, ref: NormalReferenceLine) -> float:
    """Distance index d: sum of absolute deviations from the reference line."""
    return l1_distance(sorted_y, ref.line_values)


def qq_data(sorted_y, dist: TheoreticalDist) -> QQData:
    """QQ coordinates of a sorted sample against a theoretical distribution."""
    y = np.asarray(sorted_y, dtype=np.float64)
    if y.size < 1:
        raise InvalidInputError("QQ data needs a nonempty sample")
    qfn = _QUANTILE_FN[dist]
    theo = np.array([qfn(p) for p in plotting_positions(y.size)])
    return QQData(theoretical=theo, sample=y.copy())
