"""The step's vector kernels: sample validation, uniform index draws,
sort orders (``_sort_order``) and the boundary repair (``_repair``).

Everything downstream is built on these operations plus a single
seedable RNG family (numpy's PCG64 via ``numpy.random.default_rng``).
Sort orders are 0-based: ``_sort_order(v, ...)`` lists
the indices of v in ascending order of value, so
``v[_sort_order(v, ...)] == np.sort(v)`` exactly.  Under the default
tie rule the order is that of a stable argsort; from n = 1024 on it
comes from one SIMD sort of packed (value, index) int64 keys.

``_repair`` sorts a difference vector, maps it back into the support
under an AdjustPolicy and counts the violators; ABSOLUTE on ``[0, inf)``
folds before its one sort.
"""

from __future__ import annotations

import math

import numpy as np

from .config import AdjustPolicy, SupportConstraint, TieRule
from .errors import ConfigError, InfeasibleAdjustmentError, InvalidInputError

# From this length on, FIRST_OCCURRENCE ranking sorts packed (value, index)
# int64 keys with NumPy's SIMD sort; below it the stable argsort is faster.
_FAST_ARGSORT_MIN = 1024
# The magnitude bits of a float64 seen as an int64.
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def make_rng(seed: int) -> np.random.Generator:
    """One seedable generator family for the whole package (PCG64).

    Raises ConfigError for a seed NumPy rejects, such as a negative one.
    """
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}") from None


def _uniform_indices(rng: np.random.Generator, high, shape) -> np.ndarray:
    """Indices in ``[0, high)`` of the given shape from one
    ``rng.random(shape)`` call: ``floor(u * high)``, filled in row order.

    Unchecked: high is an integer, or an integer array that broadcasts
    to shape, each from 1 to 2**53 - 1.  Every u is a multiple of 2**-53
    of at most ``1 - 2**-53``, so ``u * high`` rounds below high, and each
    index has probability within 2**-52 of ``1 / high``.  One draw per
    index and no rejection, so a ``(rows, n)`` block gives the values, and
    leaves rng in the state, of ``rows`` successive calls.  This costs a
    fraction of ``Generator.integers``'s per-call argument handling.
    """
    u = rng.random(shape)
    u *= high
    return u.astype(np.intp)


def as_sample(values) -> np.ndarray:
    """Validate and copy input into a float64 sample vector.

    Raises InvalidInputError on empty input or any non-finite element.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        v = v.reshape(-1)
    if v.size < 1:
        raise InvalidInputError("sample must be nonempty")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("sample contains non-finite values")
    return v.copy()


def _sort_order(
    v: np.ndarray, tie_rule: TieRule, rng: np.random.Generator | None
) -> np.ndarray:
    """Indices that sort v ascending, ties ordered by tie_rule; unchecked.

    v must be a finite float64 vector, tie_rule a TieRule and rng a
    generator when tie_rule is RANDOM (``run`` checks what they come from).

    RANDOM sorts ``rng.random(n)`` keys, then the values in key order, by
    FIRST_OCCURRENCE: the stable sort by value of a stable sort by key is
    the order of ``np.lexsort((keys, v))``.

    FIRST_OCCURRENCE gives the order of a stable sort.  From n = 1024 on,
    one int64 key per element is sorted in place: the order-preserving
    integer image of ``v + 0.0`` (so -0.0 and 0.0 tie), its low
    ``b = (n - 1).bit_length()`` bits replaced by the element's index.  The
    low bits of the sorted keys are the order, except that a group of keys
    with equal high bits comes out in index order.  That is right for exact
    ties, so lattice data need no second sort.  When a group merged
    different values, the values are gathered in key order and given a
    stable sort, which finds them nearly sorted.
    """
    if tie_rule is TieRule.RANDOM:
        by_key = _sort_order(rng.random(v.size), TieRule.FIRST_OCCURRENCE, None)
        return by_key[_sort_order(v[by_key], TieRule.FIRST_OCCURRENCE, None)]
    # The argsort method, not np.argsort: the same sort without the
    # function dispatch, which costs as much as the sort at n = 100.
    n = v.size
    if n < _FAST_ARGSORT_MIN:
        return v.argsort(kind="stable")
    b = (n - 1).bit_length()
    low = (1 << b) - 1
    key = (v + 0.0).view(np.int64)
    # Flip the magnitude bits of negative values: signed int64 order is
    # then float order.
    flip = key >> 63
    flip &= _MAGNITUDE
    key ^= flip
    del flip
    key &= ~low
    key |= np.arange(n)
    key.sort()
    order = key & low
    key >>= b
    if not (key[1:] == key[:-1]).any():
        return order
    del key
    # Keys with equal high bits form a group.  Groups are ordered by value
    # and each is in index order, which is right for exact ties: lattice
    # data leave the gathered values ascending.  A group that merged
    # different values leaves a descent, and a stable sort of the nearly
    # sorted values gives the stable order.
    s = v[order]
    if (s[1:] >= s[:-1]).all():
        return order
    return order[s.argsort(kind="stable")]


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
