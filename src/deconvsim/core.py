"""Vector primitives: sample validation, sort orders, random permutations.

Everything downstream is built on these operations plus a single
seedable RNG family (numpy's PCG64 via ``numpy.random.default_rng``).
Sort orders and permutations are 0-based: ``_sort_order(v, ...)`` lists
the indices of v in ascending order of value, so
``v[_sort_order(v, ...)] == np.sort(v)`` exactly.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigError, InvalidInputError

FloatArray = np.ndarray
IntArray = np.ndarray

# From this length on, FIRST_OCCURRENCE ranking tries NumPy's default (SIMD)
# argsort first; below it the tie check costs more than the faster sort saves.
_FAST_ARGSORT_MIN = 1024


class TieRule(Enum):
    """How equal values are ordered when ranking.

    FIRST_OCCURRENCE gives the earlier element the lower rank, which keeps
    the result a true permutation and makes ranking deterministic.  RANDOM
    breaks each tie uniformly at random (for lattice-valued data); it needs
    an rng handle.
    """

    FIRST_OCCURRENCE = "first-occurrence"
    RANDOM = "random"


def make_rng(seed: int) -> np.random.Generator:
    """One seedable generator family for the whole package (PCG64).

    Raises ConfigError for a seed NumPy rejects, such as a negative one.
    """
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}") from None


def as_sample(values) -> FloatArray:
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
    v: FloatArray, tie_rule: TieRule, rng: np.random.Generator | None
) -> IntArray:
    """Indices that sort v ascending, ties ordered by tie_rule; unchecked.

    v must be a finite float64 vector, tie_rule a TieRule and rng a
    generator when tie_rule is RANDOM (``run`` checks what they come from).

    FIRST_OCCURRENCE gives the order of a stable sort.  From n = 1024 on,
    the default argsort is tried first: without ties its order is the only
    ascending one; if the sorted values hold an equal adjacent pair, the
    stable sort is run instead.  Tied input thus pays for both sorts.
    """
    if tie_rule is TieRule.RANDOM:
        return np.lexsort((rng.random(v.size), v))
    # The argsort method, not np.argsort: the same sort without the
    # function dispatch, which costs as much as the sort at n = 100.
    if v.size < _FAST_ARGSORT_MIN:
        return v.argsort(kind="stable")
    order = v.argsort()
    s = v[order]
    if np.any(s[1:] == s[:-1]):
        order = v.argsort(kind="stable")
    return order


def random_permutation(n: int, rng: np.random.Generator) -> IntArray:
    """A uniformly random permutation of 0..n-1."""
    if n < 1:
        raise InvalidInputError("permutation length must be at least 1")
    return rng.permutation(n)
