"""Distance diagnostics: the fitted normal reference line, the L1 distance
index against it, QQ-plot data, and moment summaries.

The reference line is the normal distribution with mean
``mean(z) - mean(x)`` and variance ``var(z) - var(x)`` evaluated at the
plotting positions ``p_i = (i - 0.5)/n``; the distance index of a sorted
estimate is the sum of absolute vertical deviations from that line.

The quantile functions take a probability or an array of them, so the
reference line and QQ coordinates are computed in one call over all
plotting positions.  Their log, erfc, exp and log1p come from ``math``
(libm), not NumPy's vector kernels, so every value is bit-identical to
the scalar formula.
"""

from __future__ import annotations

import math
import sys
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
# The largest argument math.exp takes without overflowing.
_EXP_ARG_MAX = math.log(sys.float_info.max)
_LIBM_CHUNK = 4096


def _libm(fn, a: np.ndarray) -> np.ndarray:
    """The ``math`` function fn applied to each element of the 1-D array a.

    NumPy's own log/exp kernels are not bit-equal to libm, so the values go
    through ``math`` as Python floats, a fixed chunk at a time: converting a
    whole large array to a list at once would raise peak memory.
    """
    out = np.empty_like(a)
    for i in range(0, a.size, _LIBM_CHUNK):
        out[i : i + _LIBM_CHUNK] = list(map(fn, a[i : i + _LIBM_CHUNK].tolist()))
    return out


def normal_quantile(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse standard normal CDF, accurate to well below 1e-8.

    p is a probability or an array of them; a scalar gives a float and an
    array gives an array of its shape.  0 maps to -inf and 1 to +inf; a NaN
    or any value outside [0, 1] raises InvalidInputError.

    Acklam's rational approximation gives ~1e-9 relative error; one Halley
    step against math.erfc pushes that to near machine precision.  Where
    the step's factor exp(x*x/2) would overflow (p below about 1e-308) the
    rational estimate is returned unrefined.
    """
    a = np.asarray(p, dtype=np.float64)
    flat = a.reshape(-1)
    if not np.all((flat >= 0.0) & (flat <= 1.0)):
        raise InvalidInputError("quantile probability must lie in [0, 1]")
    out = np.where(flat == 0.0, -np.inf, np.inf)
    inner = (flat > 0.0) & (flat < 1.0)
    p = flat[inner]

    p_low = 0.02425
    central = (p_low <= p) & (p <= 1.0 - p_low)
    x = np.empty_like(p)
    q = p[central] - 0.5
    r = q * q
    x[central] = (
        (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
        * q
        / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    )
    # The tails are mirror images: the upper one is the negated lower tail
    # at 1 - p.
    pt = p[~central]
    upper = pt > 0.5
    q = np.sqrt(-2.0 * _libm(math.log, np.where(upper, 1.0 - pt, pt)))
    xt = (
        ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    x[~central] = np.where(upper, -xt, xt)

    # Halley refinement: e = Phi(x) - p, u = e / phi(x).
    e = 0.5 * _libm(math.erfc, -x / math.sqrt(2.0)) - p
    half_x2 = 0.5 * x * x
    refine = half_x2 <= _EXP_ARG_MAX
    u = e * _SQRT_2PI * _libm(math.exp, np.where(refine, half_x2, 0.0))
    out[inner] = np.where(refine, x - u / (1.0 + 0.5 * x * u), x)
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def exponential_quantile(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse standard exponential CDF: -ln(1 - p).

    p is a probability or an array of them; a scalar gives a float and an
    array gives an array of its shape.  A NaN or any value outside [0, 1)
    raises InvalidInputError.
    """
    a = np.asarray(p, dtype=np.float64)
    flat = a.reshape(-1)
    if not np.all((flat >= 0.0) & (flat < 1.0)):
        raise InvalidInputError("quantile probability must lie in [0, 1)")
    out = -_libm(math.log1p, -flat)
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


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
    """Arithmetic mean and unbiased variance (divisor n - 1).

    A sample whose values are all equal gets exactly that value and 0.0
    (the float mean of [699051.1884435809] * 3 is an ulp off, which would
    give it a positive variance).  Raises InvalidInputError when either
    overflows float64.
    """
    v = as_sample(v)
    if v.size < 2:
        raise InvalidInputError("variance needs at least two values")
    if v.min() == v.max():
        return float(v[0]) + 0.0, 0.0  # + 0.0 turns -0.0 into 0.0, as np.mean does
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = float(np.mean(v)), float(np.var(v, ddof=1))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise InvalidInputError(
            f"sample mean or variance overflows float64 (mean {mean:g}, variance {var:g})"
        )
    return mean, var


def reference_normal_line(x, z, n: int) -> NormalReferenceLine:
    """Fit the reference line from samples x and z at n plotting positions.

    Raises DegenerateReferenceError when var(z) <= var(x), in which case
    the distance index is undefined, and InvalidInputError when a mean or
    variance overflows float64.
    """
    mean_x, var_x = sample_moments(x)
    mean_z, var_z = sample_moments(z)
    if var_z <= var_x:
        raise DegenerateReferenceError(
            f"var(z)={var_z:g} does not exceed var(x)={var_x:g}"
        )
    mu = mean_z - mean_x
    sigma = math.sqrt(var_z - var_x)
    quantiles = normal_quantile(plotting_positions(n))
    return NormalReferenceLine(mu=mu, sigma=sigma, line_values=mu + sigma * quantiles)


def l1_distance(u, v) -> float | np.ndarray:
    """Sum of absolute elementwise differences between two equal-length
    vectors.  u may also be a stack of such vectors (shape ``(k, n)``),
    giving one sum per row, each bit-identical to the sum of that row alone.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or u.shape[-1:] != v.shape:
        raise InvalidInputError("vectors must have equal length")
    diff = u - v
    np.abs(diff, out=diff)
    total = diff.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def distance_index(sorted_y, ref: NormalReferenceLine) -> float | np.ndarray:
    """Distance index d: sum of absolute deviations from the reference line,
    of one sorted estimate or of each row of a stack of them."""
    return l1_distance(sorted_y, ref.line_values)


def qq_data(sorted_y, dist: TheoreticalDist) -> QQData:
    """QQ coordinates of a sorted sample against a theoretical distribution."""
    y = np.asarray(sorted_y, dtype=np.float64)
    if y.size < 1:
        raise InvalidInputError("QQ data needs a nonempty sample")
    theo = _QUANTILE_FN[dist](plotting_positions(y.size))
    return QQData(theoretical=theo, sample=y.copy())
