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


def adjust(
    ydiff,
    policy: AdjustPolicy,
    support: SupportConstraint = UNBOUNDED,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, int]:
    """Apply a boundary policy; returns (adjusted vector, violation count).

    The violation count refers to the input vector.  Policies other than
    NONE guarantee the output lies entirely inside the closed support.
    """
    if not isinstance(policy, AdjustPolicy):
        raise InvalidInputError(f"unknown adjust policy {policy!r}")
    v = np.asarray(ydiff, dtype=np.float64).copy()
    return v, _repair(v, policy, support, rng)


def _repair(
    v: np.ndarray,
    policy: AdjustPolicy,
    support: SupportConstraint,
    rng: np.random.Generator | None,
) -> int:
    """``adjust`` in place on the float64 vector v, which the caller owns;
    returns the violation count.  Unchecked: policy must be an AdjustPolicy.
    """
    if not support.bounded:
        return 0
    bad = support.violations(v)
    count = int(np.count_nonzero(bad))
    if policy is AdjustPolicy.NONE or count == 0:
        return count

    if policy is AdjustPolicy.CLAMP:
        np.clip(v, support.lower, support.upper, out=v)
        return count

    if policy is AdjustPolicy.ABSOLUTE:
        v[bad] = _fold(v[bad], support.lower, support.upper)
        return count

    good = v[~bad]
    if good.size == 0:
        raise InfeasibleAdjustmentError(
            f"policy {policy.value!r} needs at least one in-support value"
        )

    if policy is AdjustPolicy.RESAMPLE:
        if rng is None:
            raise InvalidInputError("resample policy requires an rng")
        v[bad] = good[rng.integers(0, good.size, count)]
        return count

    # COPY_SMALLEST
    good_sorted = np.sort(good)
    low_idx = np.flatnonzero(v < support.lower)
    high_idx = np.flatnonzero(v > support.upper)
    # More violators than in-support values: cycle through the copies.
    v[low_idx] = good_sorted[np.arange(low_idx.size) % good_sorted.size]
    v[high_idx] = good_sorted[::-1][np.arange(high_idx.size) % good_sorted.size]
    return count
