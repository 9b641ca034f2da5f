"""Exact analysis of the three-point chain.

For n = 3 the inputs can be normalized to sortx = (0, x, 1) with
0 < x < 1/2 and sortz = (-a, 0, b) with a, b > 0.  The chain then walks
on the 6 states "y aligned by a permutation pi", where
y[i] = sortz[pi[i]] - sortx[i], and its transition matrix is piecewise
constant in (a, b): it only changes when a, b, or a + b crosses one of
nine cut values determined by x.  This module enumerates the resulting
regions of the positive quadrant, builds each region's 6x6 transition
matrix, and solves for its unique stationary distribution, all exact
(no floats anywhere).  With x = p/q, every cut, region representative
and rank comparison works on integers in units of 1/(4q); ranks of all
regions of one x are counted in one NumPy pass (int64 while the values
fit, Python ints otherwise).  The stationary laws of all distinct
matrices are found by one batched fraction-free elimination on
integers; only output values are Fractions.

The census (``full_census``) sweeps six canonical x values, one from
each interval between consecutive configuration-change points, and
tabulates how often each distinct stationary distribution occurs.  Many
regions share one matrix, so the census solves each distinct matrix once.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CutLineError, InvalidInputError

# All 6 permutations of (0, 1, 2) in lexicographic order; the state
# labels of the chain.
PERMS: tuple[tuple[int, ...], ...] = tuple(itertools.permutations(range(3)))

N_STATES = len(PERMS)

# Every transition probability is a count out of the 6 rperms.
_SIXTHS = tuple(Fraction(c, 6) for c in range(7))

# x values where the cut-value configuration changes; region
# enumeration is only defined strictly between consecutive ones.
X_CONFIG_BOUNDARIES = (
    Fraction(1, 6),
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(2, 5),
)

# One canonical x inside each of the six open intervals.
CANONICAL_X = tuple(Fraction(k, 120) for k in (10, 22, 27, 35, 44, 54))


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidInputError("exact rational required, got float")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ArithmeticError) as exc:
        # ArithmeticError: "1/0", or an infinite Decimal.
        raise InvalidInputError(f"not a rational: {value!r}") from exc


def cut_values(x) -> frozenset[Fraction]:
    """The values where a, b, or a + b crossing them can change the
    transition matrix, deduplicated."""
    x = _as_fraction(x)
    if not Fraction(0) < x < Fraction(1, 2):
        raise InvalidInputError("x must lie strictly in (0, 1/2)")
    one = Fraction(1)
    two = Fraction(2)
    return frozenset(
        (x, 2 * x, one, one + x, one - x, one - 2 * x, two, two - x, two - 2 * x)
    )


def enumerate_regions(x) -> list[tuple[Fraction, Fraction]]:
    """One exact interior representative (a, b) per cell of the
    arrangement of lines a = c, b = c, a + b = c over the cut values,
    within the open positive quadrant.

    Construction: the cuts tile the quadrant into axis-aligned
    rectangles (the unbounded tail is truncated at max cut + 1); each
    rectangle is split into bands by the diagonals crossing its
    interior, and one rational midpoint is built per band.  With x = p/q
    every cut, band sum, midpoint and representative is an integer in
    units of 1/(4q), so the construction runs on those integers.
    """
    x = _as_fraction(x)
    if x in X_CONFIG_BOUNDARIES:
        raise InvalidInputError(
            f"{x} is a configuration-change value; pick x strictly between them"
        )
    one = 4 * x.denominator
    cuts = sorted(int(c * one) for c in cut_values(x))
    top = cuts[-1] + one
    breakpoints = [0, *cuts, top]
    intervals = list(zip(breakpoints, breakpoints[1:]))

    reps: list[tuple[int, int]] = []
    for alo, ahi in intervals:
        for blo, bhi in intervals:
            lo_sum = alo + blo
            hi_sum = ahi + bhi
            crossing = [c for c in cuts if lo_sum < c < hi_sum]
            bounds = [lo_sum, *crossing, hi_sum]
            for s_lo, s_hi in zip(bounds, bounds[1:]):
                s_mid = (s_lo + s_hi) // 2
                a_lo = max(alo, s_mid - bhi)
                a_hi = min(ahi, s_mid - blo)
                a = (a_lo + a_hi) // 2
                b = s_mid - a
                assert alo < a < ahi and blo < b < bhi
                reps.append((a, b))

    cut_set = set(cuts)
    for a, b in reps:
        # Representatives must avoid every line of the arrangement.
        assert a not in cut_set and b not in cut_set and (a + b) not in cut_set
    return [(Fraction(a, one), Fraction(b, one)) for a, b in reps]


Counts = tuple[tuple[int, ...], ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Distribution = tuple[Fraction, ...]

# w[pi, rperm, i] = sortx[i] - sortx[rperm[i]] + sortz[pi[rperm[i]]].
_RPERM = np.array(PERMS)
_Z_INDEX = _RPERM[:, _RPERM]
# State of the rank vector with (w0 > w1, w0 > w2, w1 > w2) as 4/2/1 bits.
_ORDER_STATE = np.zeros(8, dtype=np.intp)
_ORDER_STATE[[4 * (r0 > r1) + 2 * (r0 > r2) + (r1 > r2) for r0, r1, r2 in PERMS]] = range(N_STATES)


def _transition_counts(xs: int, one: int, a, b) -> list[Counts]:
    """6 P as integers at each point k, P the exact transition matrix at
    sortx = (0, xs, one), sortz = (-a[k], 0, b[k]): P[s][t] counts, out of
    the 6 reorderings of state s's y vector, those whose rank vector is t's
    permutation.  Ranks ignore positive scaling, so x = xs / one, a and b
    come as ints on one scale, with 0 < xs < one / 2 and a, b > 0
    unchecked; a tie (a point on a cut line) raises CutLineError.
    """
    dtype = np.int64 if max(one, *a, *b) < 2**61 else object
    sx = np.array([0, xs, one], dtype=dtype)
    sz = np.array([(-ak, 0, bk) for ak, bk in zip(a, b)], dtype=dtype)
    w = sz[:, _Z_INDEX] + (sx - sx[_RPERM])
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    if ((w0 == w1) | (w0 == w2) | (w1 == w2)).any():
        raise CutLineError("tie in rank computation: the point lies on a cut line")
    state = _ORDER_STATE[4 * (w0 > w1) + 2 * (w0 > w2) + (w1 > w2)]
    counts = (state[..., None] == np.arange(N_STATES)).sum(axis=2)
    return [tuple(map(tuple, c)) for c in counts.tolist()]


def _matrix(counts: Counts) -> Matrix:
    return tuple(tuple(_SIXTHS[c] for c in row) for row in counts)


def stationary_distributions(counts) -> list[Distribution]:
    """The unique stationary distribution of each chain of a stack, each
    with one recurrent class.

    counts is a (k, n, n) stack of non-negative integers whose rows sum,
    within each chain, to one positive total r: chain i moves from s to t
    with probability counts[i][s][t] / r_i (a matrix of rationals times
    the common denominator of its entries).  Each chain's pi P = pi with
    sum(pi) = 1 is one linear system: the balance equations of states
    0..n-2 (every row of P - I sums to 0, so the last follows) and a row
    of ones.  With one recurrent class it has exactly one solution, zero
    on the transient states: the limiting occupation law from any start,
    periodic or not.  With two or more it is singular, and
    InvalidInputError is raised for the whole stack.

    All k systems are solved together by fraction-free Gauss-Jordan
    elimination (Bareiss 1968) on the integer rows [r P^T - r I | 0] and
    [1 ... 1 | 1], with row swaps chosen per chain: every division by the
    previous pivot is exact, and every diagonal entry ends as the
    system's determinant.  Every intermediate d * v - f * p is at most
    twice the square of the largest minor, which Hadamard's inequality
    bounds by ((n + 1) r**2)**(n / 2); the stack is eliminated in int64
    when that fits, and on Python ints (object dtype) otherwise.
    """
    q = np.array(counts, dtype=object)  # exact Python ints, of any size
    if q.ndim != 3 or q.shape[1] != q.shape[2] or q.size == 0:
        raise InvalidInputError("counts must be a nonempty (k, n, n) stack")
    if not set(map(type, q.flat)) <= {int}:
        raise InvalidInputError("counts must be integers")
    k, n, _ = q.shape
    total = q.sum(axis=2)
    r = total[:, :1]
    if (q < 0).any() or (total != r).any() or (r <= 0).any():
        raise InvalidInputError(
            "each chain's counts must be non-negative with one positive row total"
        )
    if 2 * ((n + 1) * max(r.flat) ** 2) ** n < 2**63:
        q, r = q.astype(np.int64), r.astype(np.int64)
    m = np.zeros((k, n, n + 1), dtype=q.dtype)
    m[:, :-1, :n] = q[:, :, :-1].transpose(0, 2, 1)
    m[:, range(n - 1), range(n - 1)] -= r
    m[:, -1] = 1
    chains = np.arange(k)
    prev = np.ones((k, 1, 1), dtype=q.dtype)
    for col in range(n):
        nonzero = m[:, col:, col] != 0
        if not nonzero.any(axis=1).all():
            raise InvalidInputError(
                "the chain has more than one recurrent class, "
                "so its stationary distribution is not unique"
            )
        pivot = col + nonzero.argmax(axis=1)
        m[chains, col], m[chains, pivot] = m[chains, pivot], m[chains, col]
        pivot_row = m[:, col].copy()
        d = pivot_row[:, col, None, None]
        m = (d * m - m[:, :, col, None] * pivot_row[:, None]) // prev
        m[:, col] = pivot_row
        prev = d
    return [
        tuple(map(Fraction, rhs, det))
        for rhs, det in zip(m[:, :, n].tolist(), m[:, range(n), range(n)].tolist())
    ]


@dataclass(frozen=True)
class CensusEntry:
    x: Fraction
    a: Fraction
    b: Fraction
    matrix: Matrix
    stationary: Distribution


@dataclass(frozen=True)
class RegionCensus:
    """All regions across the canonical x sweep plus distinctness tables.

    The entries are fixed at construction, so the multiplicity tables
    are counted once, on first use.  They are shared: do not mutate them.
    """

    entries: tuple[CensusEntry, ...] = ()

    @property
    def total_regions(self) -> int:
        return len(self.entries)

    @cached_property
    def _per_x(self) -> Counter:
        """Regions per x.  The regions of one x share one Fraction, so they
        are counted by identity and each distinct object is hashed once."""
        first = {id(e.x): e.x for e in self.entries}
        tally = Counter()
        for obj, count in Counter(id(e.x) for e in self.entries).items():
            tally[first[obj]] += count
        return tally

    def regions_for(self, x) -> int:
        return self._per_x[_as_fraction(x)]

    @cached_property
    def _laws(self) -> list[tuple[tuple[int, ...], Distribution, int]]:
        """(key, law, occurrences) of each distribution object, in
        first-occurrence order.  Regions with equal matrices share one
        object.  The key is the law's numerators over their common
        denominator, then that denominator: equal laws, and only they,
        share a key, and its numerators sort as the law's values do."""
        first = {id(e.stationary): e.stationary for e in self.entries}
        laws = []
        for obj, count in Counter(id(e.stationary) for e in self.entries).items():
            law = first[obj]
            den = math.lcm(*(f.denominator for f in law))
            laws.append(((*(f.numerator * (den // f.denominator) for f in law), den), law, count))
        return laws

    @cached_property
    def multiplicity(self) -> Counter:
        """Occurrences of each distinct distribution, labels fixed."""
        return _merged(self._laws)

    @property
    def distinct_count(self) -> int:
        return len(self.multiplicity)

    @cached_property
    def unlabeled_multiplicity(self) -> Counter:
        """Same, but comparing distributions as sorted value multisets."""
        unlabeled = []
        for (*nums, den), law, count in self._laws:
            order = sorted(range(len(law)), key=nums.__getitem__)
            key = (*(nums[i] for i in order), den)
            unlabeled.append((key, tuple(law[i] for i in order), count))
        return _merged(unlabeled)

    @property
    def distinct_unlabeled_count(self) -> int:
        return len(self.unlabeled_multiplicity)

    def top_distribution(self) -> tuple[Distribution, int]:
        [(dist, count)] = self.multiplicity.most_common(1)
        return dist, count

    def singleton_count(self) -> int:
        return sum(1 for c in self.multiplicity.values() if c == 1)

    def histogram(self) -> Counter:
        """Map multiplicity -> number of distributions with it."""
        return Counter(self.multiplicity.values())


def _merged(laws) -> Counter:
    """Sum the occurrences of (key, law, occurrences) triples whose keys
    are equal, in first-occurrence order, hashing each distinct law once."""
    merged: dict[tuple[int, ...], list] = {}
    for key, law, count in laws:
        merged.setdefault(key, [law, 0])[1] += count
    tally = Counter()
    for law, count in merged.values():
        tally[law] = count
    return tally


def is_point_mass(dist: Distribution) -> bool:
    return sorted(dist) == [Fraction(0)] * (len(dist) - 1) + [Fraction(1)]


def full_census(x_values=CANONICAL_X) -> RegionCensus:
    """Sweep the given x values (default: the six canonical ones),
    solving every region exactly.  Deterministic, no randomness.
    Raises InvalidInputError for no x, or an x given twice in any spelling.

    Every x in one interval between configuration-change values gives
    the canonical x's matrices, each with one recurrent class, so
    ``stationary_distributions`` never rejects a census chain.  Regions
    with equal matrices share one matrix and one distribution object;
    the distinct matrices are solved together, once each.
    """
    index: dict[Counts, int] = {}  # distinct count matrices, numbered
    regions = []
    seen: set[Fraction] = set()
    for x in x_values:
        x = _as_fraction(x)
        if x in seen:
            raise InvalidInputError(f"x = {x} is given more than once")
        seen.add(x)
        reps = enumerate_regions(x)
        # Ranks on integers: every representative is a multiple of 1/one.
        one = 4 * x.denominator
        scaled = ([v.numerator * (one // v.denominator) for v in vs] for vs in zip(*reps))
        for (a, b), counts in zip(reps, _transition_counts(4 * x.numerator, one, *scaled)):
            regions.append((x, a, b, index.setdefault(counts, len(index))))
    if not regions:
        raise InvalidInputError("no x values given")
    matrices = [_matrix(counts) for counts in index]
    laws = stationary_distributions(list(index))
    return RegionCensus(tuple(CensusEntry(x, a, b, matrices[i], laws[i]) for x, a, b, i in regions))
