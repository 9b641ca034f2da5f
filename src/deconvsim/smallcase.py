"""Exact analysis of the three-point chain.

For n = 3 the inputs can be normalized to sortx = (0, x, 1) with
0 < x < 1/2 and sortz = (-a, 0, b) with a, b > 0.  The chain then walks
on the 6 states "y aligned by a permutation pi", where
y[i] = sortz[pi[i]] - sortx[i], and its transition matrix is piecewise
constant in (a, b): it only changes when a, b, or a + b crosses one of
nine cut values determined by x.  This module enumerates the resulting
regions of the positive quadrant, builds each region's 6x6 transition
matrix, and solves for the limiting occupation distribution, all in
exact Fraction arithmetic (no floats anywhere).

The census sweeps six canonical x values, one from each interval
between consecutive configuration-change points, and tabulates how
often each distinct limiting distribution occurs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CutLineError, InvalidInputError

Rational = Fraction

# All 6 permutations of (0, 1, 2) in lexicographic order; the state
# labels of the chain.
PERMS: tuple[tuple[int, ...], ...] = tuple(itertools.permutations(range(3)))
_PERM_INDEX = {p: i for i, p in enumerate(PERMS)}

N_STATES = len(PERMS)

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
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"not a rational: {value!r}") from exc


@dataclass(frozen=True)
class CanonicalInstance:
    """Normalized 3-point problem: sortx = (0, x, 1), sortz = (-a, 0, b)."""

    x: Fraction
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction(self.x))
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if not Fraction(0) < self.x < Fraction(1, 2):
            raise InvalidInputError("x must lie strictly in (0, 1/2)")
        if self.a <= 0 or self.b <= 0:
            raise InvalidInputError("a and b must be positive")

    @property
    def sortx(self) -> tuple[Fraction, ...]:
        return (Fraction(0), self.x, Fraction(1))

    @property
    def sortz(self) -> tuple[Fraction, ...]:
        return (-self.a, Fraction(0), self.b)

    def state_vector(self, pi: tuple[int, ...]) -> tuple[Fraction, ...]:
        """The y vector of state pi, aligned by position (not sorted)."""
        sx, sz = self.sortx, self.sortz
        return tuple(sz[pi[i]] - sx[i] for i in range(3))


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
    if not Fraction(0) < x < Fraction(1, 2):
        raise InvalidInputError("x must lie strictly in (0, 1/2)")
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


def _exact_ranks(values: tuple[Fraction, ...]) -> tuple[int, ...]:
    # 0-based ranks with exact comparison; any tie means the instance
    # sits on a cut line and has no well-defined matrix.
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    for k in range(n - 1):
        if values[order[k]] == values[order[k + 1]]:
            raise CutLineError(
                "tie in rank computation: the point lies on a cut line"
            )
    r = [0] * n
    for k, idx in enumerate(order):
        r[idx] = k
    return tuple(r)


Matrix = tuple[tuple[Fraction, ...], ...]
Distribution = tuple[Fraction, ...]


def transition_matrix(inst: CanonicalInstance) -> Matrix:
    """6x6 exact transition matrix of the permutation walk at inst.

    P[s][t] counts, out of the 6 equally likely reorderings of state
    s's y vector, those whose rank vector is t's permutation.
    """
    sx = inst.sortx
    rows = []
    for pi in PERMS:
        y = inst.state_vector(pi)
        counts = [0] * N_STATES
        for rperm in PERMS:
            w = tuple(sx[i] + y[rperm[i]] for i in range(3))
            r = _exact_ranks(w)
            counts[_PERM_INDEX[r]] += 1
        rows.append(tuple(Fraction(c, 6) for c in counts))
    return tuple(rows)


def _solve_linear(a: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    # Exact Gaussian elimination; any nonzero pivot works with Fractions.
    n = len(a)
    m = [row[:] + [rhs[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise InvalidInputError("singular linear system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _communicating_classes(p: Matrix) -> list[list[int]]:
    n = len(p)
    reach = [[p[i][j] > 0 or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    seen: list[int] = []
    classes: list[list[int]] = []
    for i in range(n):
        if i in seen:
            continue
        cls = [j for j in range(n) if reach[i][j] and reach[j][i]]
        classes.append(cls)
        seen.extend(cls)
    return classes


def _class_stationary(p: Matrix, cls: list[int]) -> dict[int, Fraction]:
    # Unique stationary vector of the chain restricted to one recurrent
    # class: solve pi P = pi with the last balance equation replaced by
    # normalization.
    k = len(cls)
    a = [[p[cls[i]][cls[j]] - (1 if i == j else 0) for i in range(k)] for j in range(k)]
    rhs = [Fraction(0)] * k
    a[k - 1] = [Fraction(1)] * k
    rhs[k - 1] = Fraction(1)
    sol = _solve_linear(a, rhs)
    return dict(zip(cls, sol))


def stationary_distribution(p: Matrix) -> Distribution:
    """Limiting occupation distribution from the uniform start.

    Decomposes the chain into recurrent classes and transient states,
    weights each class's unique stationary vector by the exact
    probability of absorption into it from the uniform start, and sums.
    Equals the classical stationary distribution when the chain is
    irreducible; Cesaro averaging makes periodicity harmless.
    """
    n = len(p)
    classes = _communicating_classes(p)
    recurrent = [
        cls
        for cls in classes
        if all(p[i][j] == 0 for i in cls for j in range(n) if j not in cls)
    ]
    transient = [i for i in range(n) if not any(i in cls for cls in recurrent)]

    uniform = Fraction(1, n)
    total = [Fraction(0)] * n
    weight_sum = Fraction(0)
    for cls in recurrent:
        # Absorption probability into cls from each transient state.
        if transient:
            a = [
                [
                    (p[s][t] if s != t else p[s][t] - 1)
                    for t in transient
                ]
                for s in transient
            ]
            rhs = [-sum(p[s][j] for j in cls) for s in transient]
            absorbed = dict(zip(transient, _solve_linear(a, rhs)))
        else:
            absorbed = {}
        weight = uniform * len(cls) + uniform * sum(
            absorbed[s] for s in transient
        )
        weight_sum += weight
        pi_cls = _class_stationary(p, cls)
        for state, mass in pi_cls.items():
            total[state] += weight * mass
    assert weight_sum == 1
    assert sum(total) == 1
    return tuple(total)


@dataclass(frozen=True)
class CensusEntry:
    x: Fraction
    a: Fraction
    b: Fraction
    matrix: Matrix
    stationary: Distribution


@dataclass
class RegionCensus:
    """All regions across the canonical x sweep plus distinctness tables."""

    entries: list[CensusEntry] = field(default_factory=list)

    @property
    def total_regions(self) -> int:
        return len(self.entries)

    def regions_for(self, x) -> int:
        x = _as_fraction(x)
        return sum(1 for e in self.entries if e.x == x)

    @property
    def multiplicity(self) -> Counter:
        """Occurrences of each distinct distribution, labels fixed."""
        return Counter(e.stationary for e in self.entries)

    @property
    def distinct_count(self) -> int:
        return len(self.multiplicity)

    @property
    def unlabeled_multiplicity(self) -> Counter:
        """Same, but comparing distributions as sorted value multisets."""
        return Counter(tuple(sorted(e.stationary)) for e in self.entries)

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
    solving every region exactly.  Deterministic, no randomness."""
    census = RegionCensus()
    for x in x_values:
        x = _as_fraction(x)
        for a, b in enumerate_regions(x):
            inst = CanonicalInstance(x, a, b)
            p = transition_matrix(inst)
            census.entries.append(
                CensusEntry(x=x, a=a, b=b, matrix=p, stationary=stationary_distribution(p))
            )
    return census
