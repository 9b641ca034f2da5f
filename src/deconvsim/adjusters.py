"""Boundary policies applied to each iterate when Y's support is known.

A support constraint is a closed interval [lower, upper] (either side may
be infinite).  Each policy maps a raw difference vector back into the
support and reports how many elements violated it before adjustment.
The engine stores ``repair(sort(difference))`` under every policy:
``_repair`` sorts the vector and repairs the sorted vector, except that
ABSOLUTE on ``[0, inf)`` folds before its one sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .core import _uniform_indices
from .errors import InfeasibleAdjustmentError, InvalidInputError
from .variations import _check_type


def _as_float(bound: Real) -> float:
    # A bound beyond float range becomes the infinity no sample can cross.
    try:
        return float(bound)
    except OverflowError:
        return math.inf if bound > 0 else -math.inf


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


def _fold(v: np.ndarray, lower: float, upper: float) -> np.ndarray:
    # Reflect out-of-support values about whichever bound they violate, in
    # place, and return v; with two finite bounds this is a triangle-wave
    # fold with period 2*(upper - lower).  The steps give the bits of
    # ``lower + |v - lower|``, ``upper - |v - upper|`` and
    # ``lower + min(t, period - t)`` with ``t = mod(v - lower, period)``.
    # A violator of one finite bound b has v < b (or v > b), and rounding
    # is symmetric, so ``|v - b|`` is exactly ``b - v`` (or ``v - b``).
    if math.isinf(upper):
        np.subtract(lower, v, out=v)
        v += lower
    elif math.isinf(lower):
        v -= upper
        np.subtract(upper, v, out=v)
    else:
        period = 2.0 * (upper - lower)
        v -= lower
        np.mod(v, period, out=v)
        np.minimum(v, period - v, out=v)
        v += lower
    return v


def _repair(
    v: np.ndarray,
    policy: AdjustPolicy,
    support: SupportConstraint,
    rng: np.random.Generator,
) -> int:
    """Sort v in place and apply the boundary policy to it; v is left
    sorted.  Returns v's violation count.

    Unchecked: v is a float64 vector the caller owns and policy an
    AdjustPolicy (``DeconvConfig`` checks it).  Policies other than NONE
    leave v inside the closed support; only RESAMPLE draws from rng.

    The violators of the sorted vector are the prefix ``v[:lo]`` below
    the support and the suffix ``v[hi:]`` above it.  RESAMPLE replaces
    them, prefix first, with ``v[lo:hi][_uniform_indices(rng, hi - lo,
    count)]`` (indices from one scaled ``rng.random(count)`` call, each
    within 2**-52 of uniform) and sorts again.  Repairing v in any other
    order draws the same indices from the same donors, so the law of the
    sorted result does not depend on the order of v.

    ABSOLUTE on ``[0, inf)`` folds first and sorts once: there the fold
    of a violator, ``(0 - v) + 0``, is bit for bit ``|v|``.  ``np.abs``
    would also turn an in-support -0.0 into 0.0, so this path is taken
    only when the sign bits show no such zero; the sorted bytes are then
    those of folding the sorted vector and sorting again.
    """
    n = v.size
    lower, upper = support.float_bounds
    if policy is AdjustPolicy.ABSOLUTE and lower == 0.0 and upper == math.inf:
        count = int(np.count_nonzero(v < 0.0))
        if count == np.count_nonzero(np.signbit(v)):
            if count:
                np.abs(v, out=v)
            v.sort()
            return count

    v.sort()
    lo = int(v.searchsorted(lower)) if lower != -math.inf else 0
    hi = int(v.searchsorted(upper, "right")) if upper != math.inf else n
    count = lo + n - hi
    if policy is AdjustPolicy.NONE or count == 0:
        return count

    if policy is AdjustPolicy.CLAMP:
        # Only violators change, so -0.0 and 0.0 keep their sign.
        if lo:
            v[:lo] = lower
        if hi < n:
            v[hi:] = upper
        return count

    if policy is AdjustPolicy.ABSOLUTE:
        if lo:
            _fold(v[:lo], lower, upper)
        if hi < n:
            _fold(v[hi:], lower, upper)
        v.sort()
        return count

    size = hi - lo
    if size == 0:
        raise InfeasibleAdjustmentError(
            f"policy {policy.value!r} needs at least one in-support value"
        )

    if policy is AdjustPolicy.RESAMPLE:
        picks = v[lo:hi][_uniform_indices(rng, size, count)]
        v[:lo], v[hi:] = picks[:lo], picks[lo:]
        v.sort()
        return count

    # COPY_SMALLEST: the j-th violator below the support takes the j-th
    # smallest in-support value and the j-th above it the j-th largest,
    # cycling when the violators outnumber the in-support values.
    if hi == n and lo <= size:
        v[: 2 * lo] = v[lo : 2 * lo].repeat(2)
        return count
    above = n - hi
    counts = np.full(size, 1 + lo // size + above // size)
    counts[: lo % size] += 1
    counts[size - above % size :] += 1
    v[:] = v[lo:hi].repeat(counts)
    return count

