"""Boundary policies applied to each iterate when Y's support is known.

A support constraint is a closed interval [lower, upper] (either side may
be infinite).  Each policy maps a raw difference vector back into the
support and reports how many elements violated it before adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InfeasibleAdjustmentError, InvalidInputError


@dataclass(frozen=True)
class SupportConstraint:
    """Known support of Y: values must lie in [lower, upper]."""

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
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
    # Reflect out-of-support values about whichever bound they violate; with
    # two finite bounds this is a triangle-wave fold with period
    # 2*(upper - lower).
    if math.isinf(upper):
        return lower + np.abs(v - lower)
    if math.isinf(lower):
        return upper - np.abs(v - upper)
    period = 2.0 * (upper - lower)
    t = np.mod(v - lower, period)
    return lower + np.minimum(t, period - t)


def _repair(
    v: np.ndarray,
    policy: AdjustPolicy,
    support: SupportConstraint,
    rng: np.random.Generator,
) -> int:
    """Apply the boundary policy to v in place; returns v's violation count.

    Unchecked: v is a float64 vector the caller owns and policy an
    AdjustPolicy (``DeconvConfig`` checks it).  Policies other than NONE
    leave v inside the closed support; only RESAMPLE draws from rng.

    Only a finite bound is compared against, so a half-line support costs
    one mask; ``v > inf`` and ``v < -inf`` are false for every v, so the
    violations are those of ``support.violations``.
    """
    lower, upper = support.lower, support.upper
    low = v < lower if lower != -math.inf else None
    high = v > upper if upper != math.inf else None
    if low is None:
        if high is None:
            return 0
        bad = high
    else:
        bad = low if high is None else low | high
    count = int(np.count_nonzero(bad))
    if policy is AdjustPolicy.NONE or count == 0:
        return count

    if policy is AdjustPolicy.CLAMP:
        # As np.clip: only violators change, so -0.0 and 0.0 keep their sign.
        if low is not None:
            v[low] = lower
        if high is not None:
            v[high] = upper
        return count

    if policy is AdjustPolicy.ABSOLUTE:
        v[bad] = _fold(v[bad], lower, upper)
        return count

    good = v[~bad]
    if good.size == 0:
        raise InfeasibleAdjustmentError(
            f"policy {policy.value!r} needs at least one in-support value"
        )

    if policy is AdjustPolicy.RESAMPLE:
        v[bad] = good[rng.integers(0, good.size, count)]
        return count

    # COPY_SMALLEST: the j-th violator, in position order, takes the j-th
    # smallest (below the support) or largest (above it) in-support value.
    good.sort()
    if low is not None:
        v[low] = _take(good, low)
    if high is not None:
        v[high] = _take(good[::-1], high)
    return count


def _take(donors: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The first donors, one per True in mask, cycling through them when
    the violators outnumber the donors."""
    k = int(np.count_nonzero(mask))
    if k <= donors.size:
        return donors[:k]
    return donors[np.arange(k) % donors.size]
