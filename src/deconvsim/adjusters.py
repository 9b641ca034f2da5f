"""Boundary policies applied to each iterate when Y's support is known.

A support constraint is a closed interval [lower, upper] (either side may
be infinite).  Each policy maps a raw difference vector back into the
support and reports how many elements violated it before adjustment.
``_repair`` sorts the vector and repairs it, so the engine stores
``repair(sort(difference))``; only RESAMPLE, whose donors are indexed in
position order, repairs first and sorts after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .errors import InfeasibleAdjustmentError, InvalidInputError
from .variations import _check_type


@dataclass(frozen=True)
class SupportConstraint:
    """Known support of Y: values must lie in [lower, upper]."""

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        _check_type("support lower bound", self.lower, Real)
        _check_type("support upper bound", self.upper, Real)
        # Also false when either bound is NaN.
        if not self.lower < self.upper:
            raise InvalidInputError("support requires lower < upper")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) or math.isfinite(self.upper)

    def violations(self, v: np.ndarray) -> np.ndarray:
        """Boolean mask of out-of-support elements."""
        return (v < self.lower) | (v > self.upper)


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
    if math.isinf(upper):
        v -= lower
        np.abs(v, out=v)
        v += lower
    elif math.isinf(lower):
        v -= upper
        np.abs(v, out=v)
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

    RESAMPLE repairs v in position order before the sort (``_resample``).
    Every other policy gives a multiset that does not depend on the order
    of v, so it repairs the sorted vector, whose violators are the prefix
    ``v[:lo]`` below the support and the suffix ``v[hi:]`` above it.
    """
    if policy is AdjustPolicy.RESAMPLE:
        count = _resample(v, support, rng)
        v.sort()
        return count
    v.sort()
    n = v.size
    lower, upper = support.lower, support.upper
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

    # COPY_SMALLEST: the j-th violator below the support takes the j-th
    # smallest in-support value and the j-th above it the j-th largest,
    # cycling when the violators outnumber the in-support values.
    size = hi - lo
    if size == 0:
        raise _no_donors(policy)
    if hi == n and lo <= size:
        v[: 2 * lo] = v[lo : 2 * lo].repeat(2)
        return count
    above = n - hi
    counts = np.full(size, 1 + lo // size + above // size)
    counts[: lo % size] += 1
    counts[size - above % size :] += 1
    v[:] = v[lo:hi].repeat(counts)
    return count


def _resample(v: np.ndarray, support: SupportConstraint, rng: np.random.Generator) -> int:
    """Replace each violator of v, in position order, with a uniform draw
    from v's in-support values listed in position order; returns the
    violation count.

    Only a finite bound is compared against, so a half-line support costs
    one mask; ``v > inf`` and ``v < -inf`` are false for every v, so the
    violations are those of ``support.violations``.
    """
    lower, upper = support.lower, support.upper
    if lower == -math.inf:
        if upper == math.inf:
            return 0
        bad = v > upper
    elif upper == math.inf:
        bad = v < lower
    else:
        bad = (v < lower) | (v > upper)
    count = int(np.count_nonzero(bad))
    if count == 0:
        return count
    good = v[~bad]
    if good.size == 0:
        raise _no_donors(AdjustPolicy.RESAMPLE)
    v[bad] = good[rng.integers(0, good.size, count)]
    return count


def _no_donors(policy: AdjustPolicy) -> InfeasibleAdjustmentError:
    return InfeasibleAdjustmentError(
        f"policy {policy.value!r} needs at least one in-support value"
    )
