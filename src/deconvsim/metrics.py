"""Distance diagnostics: the fitted normal reference line, the L1 distance
index against it, QQ-plot data, and moment summaries.

The reference line is the normal distribution with mean
``mean(z) - mean(x)`` and variance ``var(z) - var(x)`` evaluated at the
plotting positions ``p_i = (i - 0.5)/n``; the distance index of a sorted
estimate is the sum of absolute vertical deviations from that line.

The quantile functions take a probability or an array of them, so the
reference line and QQ coordinates are computed in one call over all
plotting positions.  Normal quantiles are ``statistics.NormalDist().inv_cdf``
(Wichura's AS 241, within about 1e-15 relative of the exact value), and
exponential ones ``-math.log1p(-p)`` through libm, as NumPy's log1p kernel
is not bit-equal to it; each element is bit-identical to the scalar call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .core import as_sample
from .errors import DegenerateReferenceError, InvalidInputError

_LIBM_CHUNK = 4096


def _libm(fn, a: np.ndarray) -> np.ndarray:
    """The scalar function fn applied to each element of the 1-D array a.

    fn is ``NormalDist().inv_cdf`` or a ``math`` (libm) function: NumPy's
    own log1p kernel is not bit-equal to libm.  The values go through fn
    as Python floats, a fixed chunk at a time: converting a whole large
    array to a list at once would raise peak memory.
    """
    out = np.empty_like(a)
    for i in range(0, a.size, _LIBM_CHUNK):
        out[i : i + _LIBM_CHUNK] = list(map(fn, a[i : i + _LIBM_CHUNK].tolist()))
    return out


def normal_quantile(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse standard normal CDF.

    p is a probability or an array of them; a scalar gives a float and an
    array gives an array of its shape.  0 maps to -inf and 1 to +inf; a NaN
    or any value outside [0, 1] raises InvalidInputError.  Subnormal p are
    as accurate as the rest (see the module docstring).
    """
    a = np.asarray(p, dtype=np.float64)
    flat = a.reshape(-1)
    if not np.all((flat >= 0.0) & (flat <= 1.0)):
        raise InvalidInputError("quantile probability must lie in [0, 1]")
    out = np.where(flat == 0.0, -np.inf, np.inf)
    inner = (flat > 0.0) & (flat < 1.0)
    out[inner] = _libm(NormalDist().inv_cdf, flat[inner])
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


@functools.lru_cache(maxsize=1)
def _normal_scores(n: int) -> np.ndarray:
    """Standard normal quantiles at the n plotting positions, read-only.

    One entry: a run, and a sweep of runs at one n, fits its reference
    line at a single n, and the quantiles cost more than the rest of the
    fit at n = 100.
    """
    scores = normal_quantile(plotting_positions(n))
    scores.flags.writeable = False
    return scores


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
    return NormalReferenceLine(mu=mu, sigma=sigma, line_values=mu + sigma * _normal_scores(n))


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


def qq_data(sample, dist: TheoreticalDist) -> QQData:
    """QQ coordinates of a sample, checked as by ``as_sample`` and sorted."""
    y = as_sample(sample)
    y.sort()
    theo = _QUANTILE_FN[dist](plotting_positions(y.size))
    return QQData(theoretical=theo, sample=y)
