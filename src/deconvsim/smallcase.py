"""Exact analysis of the three-point chain.

For n = 3 the inputs can be normalized to sortx = (0, x, 1) with
0 < x < 1/2 and sortz = (-a, 0, b) with a, b > 0.  The chain then walks
on the 6 states "y aligned by a permutation pi", where
y[i] = sortz[pi[i]] - sortx[i], and its transition matrix is piecewise
constant in (a, b): it only changes when a, b, or a + b crosses one of
nine cut values determined by x.  This module enumerates the resulting
regions of the positive quadrant, builds each region's 6x6 transition
matrix, and solves for its unique stationary distribution, all exact
(no floats anywhere).  Ranks are compared on Python integers: x, a and
b are scaled by their common denominator, which keeps every order and
every tie.  Linear systems are solved by fraction-free elimination on
integers, and results are Fractions.

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

from .errors import CutLineError, InvalidInputError

# All 6 permutations of (0, 1, 2) in lexicographic order; the state
# labels of the chain.
PERMS: tuple[tuple[int, ...], ...] = tuple(itertools.permutations(range(3)))
_PERM_INDEX = {p: i for i, p in enumerate(PERMS)}

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
    interior, and one rational midpoint is built per band.
    """
    x = _as_fraction(x)
    if x in X_CONFIG_BOUNDARIES:
        raise InvalidInputError(
            f"{x} is a configuration-change value; pick x strictly between them"
        )
    cuts = sorted(cut_values(x))
    top = cuts[-1] + 1
    breakpoints = [Fraction(0), *cuts, top]
    intervals = list(zip(breakpoints, breakpoints[1:]))

    half = Fraction(1, 2)
    reps: list[tuple[Fraction, Fraction]] = []
    for alo, ahi in intervals:
        for blo, bhi in intervals:
            lo_sum = alo + blo
            hi_sum = ahi + bhi
            crossing = [c for c in cuts if lo_sum < c < hi_sum]
            bounds = [lo_sum, *crossing, hi_sum]
            for s_lo, s_hi in zip(bounds, bounds[1:]):
                s_mid = (s_lo + s_hi) * half
                a_lo = max(alo, s_mid - bhi)
                a_hi = min(ahi, s_mid - blo)
                a = (a_lo + a_hi) * half
                b = s_mid - a
                assert alo < a < ahi and blo < b < bhi
                reps.append((a, b))

    cut_set = set(cuts)
    for a, b in reps:
        # Representatives must avoid every line of the arrangement.
        assert a not in cut_set and b not in cut_set and (a + b) not in cut_set
    return reps


def _exact_ranks(w: tuple[int, int, int]) -> tuple[int, int, int]:
    # 0-based ranks of three values; any tie means the instance sits on
    # a cut line and has no well-defined matrix.
    w0, w1, w2 = w
    if w0 == w1 or w0 == w2 or w1 == w2:
        raise CutLineError("tie in rank computation: the point lies on a cut line")
    return ((w0 > w1) + (w0 > w2), (w1 > w0) + (w1 > w2), (w2 > w0) + (w2 > w1))


Counts = tuple[tuple[int, ...], ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Distribution = tuple[Fraction, ...]


def _transition_counts(x: Fraction, a: Fraction, b: Fraction) -> Counts:
    """6 P as integers, P the exact transition matrix at sortx = (0, x, 1),
    sortz = (-a, 0, b): P[s][t] counts, out of the 6 reorderings of state
    s's y vector, those whose rank vector is t's permutation.

    x, a and b are Fractions with 0 < x < 1/2 and a, b > 0, unchecked
    (``enumerate_regions`` gives such a and b); a point on a cut line
    raises CutLineError.  Ranks are invariant under positive scaling, so
    sortx and sortz are scaled by the common denominator of x, a and b
    and compared as ints.
    """
    scale = math.lcm(x.denominator, a.denominator, b.denominator)
    sx = (0, x.numerator * (scale // x.denominator), scale)
    sz = (
        -a.numerator * (scale // a.denominator),
        0,
        b.numerator * (scale // b.denominator),
    )
    rows = []
    for pi in PERMS:
        y = [sz[pi[i]] - sx[i] for i in range(3)]
        counts = [0] * N_STATES
        for rperm in PERMS:
            w = (sx[0] + y[rperm[0]], sx[1] + y[rperm[1]], sx[2] + y[rperm[2]])
            counts[_PERM_INDEX[_exact_ranks(w)]] += 1
        rows.append(tuple(counts))
    return tuple(rows)


def _matrix(counts: Counts) -> Matrix:
    return tuple(tuple(_SIXTHS[c] for c in row) for row in counts)


def _solve_linear(a: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    # Fraction-free Gauss-Jordan elimination (Bareiss 1968): each row is
    # scaled to integers, every division by the previous pivot is exact,
    # and every diagonal entry ends as the same determinant.
    n = len(a)
    m = []
    for row, r in zip(a, rhs):
        row = [*row, r]
        scale = math.lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise InvalidInputError("singular linear system")
        m[col], m[pivot] = m[pivot], m[col]
        pivot_row = m[col]
        d = pivot_row[col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(d * v - f * p) // prev for v, p in zip(m[r], pivot_row)]
        prev = d
    return [Fraction(m[r][n], m[r][r]) for r in range(n)]


def stationary_distribution(p: Matrix) -> Distribution:
    """The unique stationary distribution of a chain with one recurrent class.

    Solves pi P = pi with sum(pi) = 1 as one linear system: the balance
    equations of states 0..n-2 (every row of P - I sums to 0, so the last
    follows) and a row of ones.  With one recurrent class it has exactly
    one solution, zero on the transient states: the limiting occupation
    law from any start, periodic or not.  With two or more recurrent
    classes it is singular and InvalidInputError is raised.
    """
    n = len(p)
    a = [[p[i][j] - 1 if i == j else p[i][j] for i in range(n)] for j in range(n - 1)]
    a.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    try:
        return tuple(_solve_linear(a, rhs))
    except InvalidInputError:
        raise InvalidInputError(
            "the chain has more than one recurrent class, "
            "so its stationary distribution is not unique"
        ) from None


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

    def regions_for(self, x) -> int:
        x = _as_fraction(x)
        return sum(1 for e in self.entries if e.x == x)

    @cached_property
    def multiplicity(self) -> Counter:
        """Occurrences of each distinct distribution, labels fixed."""
        return Counter(e.stationary for e in self.entries)

    @property
    def distinct_count(self) -> int:
        return len(self.multiplicity)

    @cached_property
    def unlabeled_multiplicity(self) -> Counter:
        """Same, but comparing distributions as sorted value multisets."""
        unlabeled = Counter()
        for dist, count in self.multiplicity.items():
            unlabeled[tuple(sorted(dist))] += count
        return unlabeled

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


def is_point_mass(dist: Distribution) -> bool:
    return sorted(dist) == [Fraction(0)] * (len(dist) - 1) + [Fraction(1)]


def full_census(x_values=CANONICAL_X) -> RegionCensus:
    """Sweep the given x values (default: the six canonical ones),
    solving every region exactly.  Deterministic, no randomness.
    Raises InvalidInputError for an x given twice, in any spelling.

    Every x in one interval between configuration-change values gives
    the canonical x's matrices, each with one recurrent class, so
    ``stationary_distribution`` never rejects a census chain.  Regions
    with equal matrices share one matrix and one distribution object;
    each distinct matrix is solved once.
    """
    solved: dict[Counts, tuple[Matrix, Distribution]] = {}
    entries = []
    seen: set[Fraction] = set()
    for x in x_values:
        x = _as_fraction(x)
        if x in seen:
            raise InvalidInputError(f"x = {x} is given more than once")
        seen.add(x)
        for a, b in enumerate_regions(x):
            counts = _transition_counts(x, a, b)
            if counts not in solved:
                p = _matrix(counts)
                solved[counts] = (p, stationary_distribution(p))
            p, pi = solved[counts]
            entries.append(CensusEntry(x=x, a=a, b=b, matrix=p, stationary=pi))
    return RegionCensus(tuple(entries))
