"""Exact three-point analysis: cut values, regions, matrices, limits."""

import itertools
import math
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from deconvsim import make_rng
from deconvsim.engine import step
from deconvsim.errors import CutLineError, InvalidInputError
from deconvsim.smallcase import (
    CANONICAL_X,
    N_STATES,
    PERMS,
    X_CONFIG_BOUNDARIES,
    _as_fraction,
    _matrix,
    _transition_counts,
    cut_values,
    enumerate_regions,
    full_census,
    is_point_mass,
    stationary_distributions,
)

F = Fraction
SIXTH = F(1, 6)


def transition_matrix(x, a, b):
    """The exact matrix of region (x, a, b), as the census builds it:
    x, a and b scaled to integers by their common denominator."""
    scale = math.lcm(x.denominator, a.denominator, b.denominator)
    [counts] = _transition_counts(int(x * scale), scale, [int(a * scale)], [int(b * scale)])
    return _matrix(counts)


def counts_of(p):
    """A matrix of rationals times the common denominator of its entries:
    the integer counts the batched solver takes."""
    scale = math.lcm(*(v.denominator for row in p for v in row))
    return [[int(v * scale) for v in row] for row in p]


def stationary_of(p):
    """The batched solver on the one chain p, a matrix of rationals."""
    [pi] = stationary_distributions([counts_of(p)])
    return pi


def test_cut_values_collapse_for_one_quarter():
    expected = {F(1, 4), F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(7, 4), F(2)}
    assert cut_values(F(1, 4)) == expected


def test_cut_values_generic_x_gives_nine():
    values = cut_values(F(1, 6))
    assert len(values) == 9
    assert all(F(0) < v <= F(2) for v in values)


def test_cut_values_rejects_floats_and_out_of_range():
    with pytest.raises(InvalidInputError):
        cut_values(0.25)
    for bad in (F(0), F(1, 2), F(3, 4)):
        with pytest.raises(InvalidInputError):
            cut_values(bad)


def test_enumerate_regions_counts_and_interiority():
    x = F(10, 120)
    reps = enumerate_regions(x)
    assert len(reps) == 154
    cuts = cut_values(x)
    for a, b in reps:
        assert a > 0 and b > 0
        assert a not in cuts and b not in cuts and (a + b) not in cuts


def test_enumerate_regions_representatives_are_pairwise_separated():
    x = F(27, 120)
    reps = enumerate_regions(x)
    cuts = sorted(cut_values(x))

    def signature(a, b):
        return tuple(
            (a > c, b > c, a + b > c) for c in cuts
        )

    signatures = {signature(a, b) for a, b in reps}
    assert len(signatures) == len(reps)


def test_enumerate_regions_rejects_boundary_x():
    for bad in (F(1, 6), F(1, 5), F(1, 4), F(1, 3), F(2, 5)):
        with pytest.raises(InvalidInputError):
            enumerate_regions(bad)
    for bad in (F(0), F(1, 2), F(3, 5), F(-1, 7)):
        with pytest.raises(InvalidInputError, match=r"^x must lie strictly in \(0, 1/2\)$"):
            enumerate_regions(bad)


def test_transition_matrix_far_region_is_uniform():
    # With a, b, a+b beyond every cut value the new state is uniform.
    p = transition_matrix(F(1, 4), F(5, 2), F(5, 2))
    assert all(entry == SIXTH for row in p for entry in row)


def test_transition_matrix_rows_are_sixths_summing_to_one():
    for a, b in enumerate_regions(F(10, 120))[:25]:
        p = transition_matrix(F(10, 120), a, b)
        for row in p:
            assert sum(row) == 1
            assert all(v.denominator in (1, 2, 3, 6) for v in row)
            assert all((6 * v).denominator == 1 for v in row)


def test_transition_matrix_raises_on_cut_lines():
    x = F(10, 120)
    assert F(1) in cut_values(x)
    with pytest.raises(CutLineError):
        transition_matrix(x, F(1), F(7, 13))
    with pytest.raises(CutLineError):
        transition_matrix(x, F(3, 7), F(4, 7))  # a + b = 1


def test_matrix_is_constant_within_a_region():
    x = F(44, 120)
    cuts = sorted(cut_values(x))
    for a, b in enumerate_regions(x)[::16]:
        gap = min(
            min(abs(a - c) for c in cuts),
            min(abs(b - c) for c in cuts),
            min(abs(a + b - c) for c in cuts),
            a,
            b,
        )
        delta = gap / 3
        nudged = transition_matrix(x, a + delta, b - delta / 2)
        assert nudged == transition_matrix(x, a, b)


def test_stationary_of_uniform_matrix_is_uniform():
    uniform = tuple(tuple(SIXTH for _ in range(6)) for _ in range(6))
    assert stationary_of(uniform) == (SIXTH,) * 6


def test_stationary_with_one_absorbing_state_is_a_point_mass():
    to_zero = tuple(
        tuple(F(1) if j == 0 else F(0) for j in range(6)) for _ in range(6)
    )
    dist = stationary_of(to_zero)
    assert dist == (F(1), F(0), F(0), F(0), F(0), F(0))
    assert is_point_mass(dist)


def test_stationary_satisfies_balance_exactly_across_regions():
    x = F(10, 120)
    ps = [transition_matrix(x, a, b) for a, b in enumerate_regions(x)[::8]]
    for p, pi in zip(ps, stationary_distributions([counts_of(p) for p in ps]), strict=True):
        assert sum(pi) == 1
        for j in range(6):
            assert sum(pi[i] * p[i][j] for i in range(6)) == pi[j]


def test_some_region_has_an_absorbing_state_with_the_rest_transient(census):
    found = False
    for entry in census.entries:
        absorbing = [
            i
            for i in range(6)
            if entry.matrix[i][i] == 1
            and all(entry.matrix[i][j] == 0 for j in range(6) if j != i)
        ]
        if len(absorbing) == 1 and is_point_mass(entry.stationary):
            if entry.stationary[absorbing[0]] == 1:
                found = True
                break
    assert found


def test_census_bookkeeping_is_consistent(census):
    assert census.total_regions == sum(
        census.regions_for(x) for x in CANONICAL_X
    )
    assert sum(census.multiplicity.values()) == census.total_regions
    assert sum(census.unlabeled_multiplicity.values()) == census.total_regions
    assert census.distinct_unlabeled_count <= census.distinct_count
    hist = census.histogram()
    assert sum(m * c for m, c in hist.items()) == census.total_regions
    top_dist, top_count = census.top_distribution()
    assert census.multiplicity[top_dist] == top_count
    assert top_count == max(census.multiplicity.values())


def test_is_point_mass():
    assert is_point_mass((F(0), F(1), F(0), F(0), F(0), F(0)))
    assert not is_point_mass((F(1, 2), F(1, 2), F(0), F(0), F(0), F(0)))


# The probes below show, inside the suite, that the census is the full
# arrangement the module docstring describes: its lines are every rank
# tie, its x sweep misses no configuration, each cell has one matrix,
# the float engine walks the same chain, and each stationary vector is
# the unique one.  The census counts then follow by counting.

# sortx = (0, x, 1), entry i written as (constant, coefficient of x).
_SORTX_AFFINE = ((0, 0), (0, 1), (1, 0))
# sortz = (-a, 0, b), entry i written as (coefficient of a, coefficient of b).
_SORTZ_LINEAR = ((-1, 0), (0, 0), (0, 1))
_FAMILIES = {(1, 0): "a", (0, 1): "b", (1, 1): "a+b"}


def _tie_lines():
    """Every line on which two entries of w = sortx + y[rperm] tie, over
    all 36 (state pi, rperm) pairs, as {family: {constant}}: the line
    is family = constant, the constant affine in x as (c0, c1).

    With y[j] = sortz[pi[j]] - sortx[j], entry i of w is
    sortx[i] - sortx[rperm[i]] + sortz[pi[rperm[i]]], so w[i] = w[k] is
    sortz[p] - sortz[q] = sortx[k] - sortx[rperm[k]] - sortx[i] + sortx[rperm[i]]
    with p = pi[rperm[i]] and q = pi[rperm[k]].
    """
    lines = {family: set() for family in _FAMILIES.values()}
    sx = _SORTX_AFFINE
    for pi in PERMS:
        for rperm in PERMS:
            for i, k in itertools.combinations(range(3), 2):
                p, q = pi[rperm[i]], pi[rperm[k]]
                normal = tuple(u - v for u, v in zip(_SORTZ_LINEAR[p], _SORTZ_LINEAR[q]))
                const = tuple(
                    sx[k][t] - sx[rperm[k]][t] - sx[i][t] + sx[rperm[i]][t]
                    for t in range(2)
                )
                sign = 1 if normal in _FAMILIES else -1
                family = _FAMILIES[tuple(sign * v for v in normal)]
                lines[family].add(tuple(sign * v for v in const))
    return lines


def _at(const, x):
    return const[0] + const[1] * x


def _root(const):
    """The x at which an affine constant is zero, or None if it is flat."""
    c0, c1 = const
    return None if c1 == 0 else F(-c0, c1)


def _sign(v):
    return (v > 0) - (v < 0)


def _signature(a, b, cuts):
    """Side of every line a = c, b = c, a + b = c; 0 means on the line."""
    return tuple((_sign(a - c), _sign(b - c), _sign(a + b - c)) for c in cuts)


def _gap(v, cuts, cap):
    """The open gap between consecutive cuts (0 below the first, cap
    above the last) that holds v."""
    return (
        max((c for c in cuts if c < v), default=F(0)),
        min((c for c in cuts if c > v), default=cap),
    )


def _unit(rand):
    return F(rand.randint(1, 999), 1000)


def _points_in_cell(a0, b0, cuts, rand, count):
    """Random rationals strictly inside the cell of (a0, b0): the open
    polygon a in A, b in B, a + b in S, where A, B and S are the gaps
    holding a0, b0 and a0 + b0.  Unbounded cells are sampled below
    max cut + 1."""
    cap = cuts[-1] + 1
    alo, ahi = _gap(a0, cuts, cap)
    blo, bhi = _gap(b0, cuts, cap)
    slo, shi = _gap(a0 + b0, cuts, 2 * cap)
    slo, shi = max(slo, alo + blo), min(shi, ahi + bhi)
    for _ in range(count):
        s = slo + _unit(rand) * (shi - slo)
        lo, hi = max(alo, s - bhi), min(ahi, s - blo)
        a = lo + _unit(rand) * (hi - lo)
        yield a, s - a


def test_tie_lines_of_every_family_are_exactly_the_cut_values():
    # Lines with a constant <= 0 miss the open quadrant (a, b, a + b > 0).
    lines = _tie_lines()
    for x in CANONICAL_X:
        for family, consts in lines.items():
            live = {_at(c, x) for c in consts if _at(c, x) > 0}
            assert live == cut_values(x), family


def test_configuration_boundaries_are_every_change_of_the_arrangement():
    # The arrangement changes with x only where a line enters the
    # quadrant (constant = 0), two parallel lines meet (ci = cj), or
    # three lines a = ci, b = cj, a + b = ck pass through one point.
    half = F(1, 2)
    lines = {
        family: {c for c in consts if max(_at(c, 0), _at(c, half)) > 0}
        for family, consts in _tie_lines().items()
    }
    diffs = [
        (ci[0] - cj[0], ci[1] - cj[1])
        for consts in lines.values()
        for ci, cj in itertools.permutations(consts, 2)
    ]
    concur = [
        (ci[0] + cj[0] - ck[0], ci[1] + cj[1] - ck[1])
        for ci, cj, ck in itertools.product(lines["a"], lines["b"], lines["a+b"])
    ]
    roots = {_root(c) for c in [*itertools.chain(*lines.values()), *diffs, *concur]}
    assert {r for r in roots if r is not None and 0 < r < half} == set(
        X_CONFIG_BOUNDARIES
    )


def test_matrix_is_constant_on_random_points_of_every_cell(census):
    rand = random.Random(20261018)
    for entry in census.entries:
        cuts = sorted(cut_values(entry.x))
        home = _signature(entry.a, entry.b, cuts)
        for a, b in _points_in_cell(entry.a, entry.b, cuts, rand, 2):
            assert _signature(a, b, cuts) == home
            assert transition_matrix(entry.x, a, b) == entry.matrix


def test_random_quadrant_points_fall_in_enumerated_cells():
    # Every cell meets the box (0, max cut + 1)^2.  A prime denominator
    # keeps most points off the lines; those on a line are skipped.
    rand = random.Random(20261019)
    denominator = 9973
    for x in CANONICAL_X:
        cuts = sorted(cut_values(x))
        known = {_signature(a, b, cuts) for a, b in enumerate_regions(x)}
        top = int((cuts[-1] + 1) * denominator)
        off_line = 0
        for _ in range(800):
            a = F(rand.randint(1, top - 1), denominator)
            b = F(rand.randint(1, top - 1), denominator)
            signature = _signature(a, b, cuts)
            if any(0 in side for side in signature):
                continue
            off_line += 1
            assert signature in known
        assert off_line >= 790


def test_float_engine_reproduces_every_exact_matrix(census):
    # The engine keeps y sorted where the exact chain keeps it aligned
    # by pi; over all six rperm both give the same multiset of w.
    rng = make_rng(0)
    rperms = [np.array(rperm) for rperm in PERMS]
    for entry in census.entries:
        sortx = np.array([0.0, float(entry.x), 1.0])
        sortz = np.array([-float(entry.a), 0.0, float(entry.b)])
        states = [np.sort(sortz[list(pi)] - sortx) for pi in PERMS]
        index = {tuple(y): s for s, y in enumerate(states)}
        assert len(index) == 6
        for s, y in enumerate(states):
            counts = [0] * 6
            for rperm in rperms:
                new_y, _ = step(sortx, sortz, y, rperm, rng)
                counts[index[tuple(new_y)]] += 1
            assert tuple(F(c, 6) for c in counts) == entry.matrix[s]


def _reachable(p, start):
    seen, stack = {start}, [start]
    while stack:
        i = stack.pop()
        for j in range(len(p)):
            if p[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def test_every_census_chain_has_one_recurrent_class_and_exact_balance(census):
    # A state reachable from every state means one recurrent class, so
    # the stationary vector is unique and the start does not matter;
    # pi P = pi with sum 1 then proves each census distribution.
    for entry in census.entries:
        p, pi = entry.matrix, entry.stationary
        assert set.intersection(*(_reachable(p, s) for s in range(6)))
        assert sum(pi) == 1 and min(pi) >= 0
        assert all(sum(pi[i] * p[i][j] for i in range(6)) == pi[j] for j in range(6))


def test_every_x_of_an_interval_gives_the_canonical_matrices(census):
    # Between configuration-change values the arrangement keeps its
    # combinatorics, so any x analyze3 accepts yields the canonical x's
    # matrices, each with one recurrent class (checked above): the census
    # never meets a chain whose stationary law is not unique.
    edges = (F(0), *X_CONFIG_BOUNDARIES, F(1, 2))
    for lo, hi, canonical in zip(edges, edges[1:], CANONICAL_X):
        expected = Counter(e.matrix for e in census.entries if e.x == canonical)
        width = hi - lo
        for x in (lo + width / 1000, lo + width / 3, hi - width / 1000):
            got = Counter(e.matrix for e in full_census([x]).entries)
            assert got == expected, x


@pytest.mark.parametrize("xs", [["10/120", "10/120"], ["10/120", F(1, 12)], [F(1, 12), "20/240"]])
def test_full_census_rejects_an_x_given_twice(xs):
    with pytest.raises(InvalidInputError, match="1/12 is given more than once"):
        full_census(xs)


def test_full_census_rejects_no_x():
    # An empty census has no top distribution for the summary to report.
    for xs in ([], (), iter([])):
        with pytest.raises(InvalidInputError, match="no x values given"):
            full_census(xs)


def test_full_census_rejects_a_non_rational_x():
    # Fraction raises ZeroDivisionError for "1/0" and OverflowError for an
    # infinite Decimal; each must come out as the library's own error.
    for bad in ("1/0", Decimal("Infinity"), Decimal("NaN"), "abc", " "):
        with pytest.raises(InvalidInputError, match=re.escape(f"not a rational: {bad!r}")):
            full_census(["10/120", bad])
    assert full_census([" 10/120 ", Decimal("0.3")]).total_regions > 0


# The Fraction implementation that the integer enumeration, the
# integer-rank matrix and the per-matrix stationary memo replaced, kept
# verbatim (names prefixed with "fraction") as the oracle the census
# must keep matching.

_PERM_INDEX = {p: i for i, p in enumerate(PERMS)}
Matrix = tuple[tuple[Fraction, ...], ...]
Distribution = tuple[Fraction, ...]


def fraction_enumerate_regions(x) -> list[tuple[Fraction, Fraction]]:
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


def fraction_exact_ranks(values: tuple[Fraction, ...]) -> tuple[int, ...]:
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


def fraction_transition_matrix(x: Fraction, a: Fraction, b: Fraction) -> Matrix:
    """6x6 exact transition matrix of the permutation walk at
    sortx = (0, x, 1), sortz = (-a, 0, b).

    P[s][t] counts, out of the 6 equally likely reorderings of state
    s's y vector, those whose rank vector is t's permutation.
    """
    sx = (F(0), x, F(1))
    sz = (-a, F(0), b)
    rows = []
    for pi in PERMS:
        y = tuple(sz[pi[i]] - sx[i] for i in range(3))
        counts = [0] * N_STATES
        for rperm in PERMS:
            w = tuple(sx[i] + y[rperm[i]] for i in range(3))
            r = fraction_exact_ranks(w)
            counts[_PERM_INDEX[r]] += 1
        rows.append(tuple(Fraction(c, 6) for c in counts))
    return tuple(rows)


def fraction_solve_linear(a: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
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


def fraction_communicating_classes(p: Matrix) -> list[list[int]]:
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


def fraction_class_stationary(p: Matrix, cls: list[int]) -> dict[int, Fraction]:
    # Unique stationary vector of the chain restricted to one recurrent
    # class: solve pi P = pi with the last balance equation replaced by
    # normalization.
    k = len(cls)
    a = [[p[cls[i]][cls[j]] - (1 if i == j else 0) for i in range(k)] for j in range(k)]
    rhs = [Fraction(0)] * k
    a[k - 1] = [Fraction(1)] * k
    rhs[k - 1] = Fraction(1)
    sol = fraction_solve_linear(a, rhs)
    return dict(zip(cls, sol))


def fraction_stationary_distribution(p: Matrix) -> Distribution:
    """Limiting occupation distribution from the uniform start.

    Decomposes the chain into recurrent classes and transient states,
    weights each class's unique stationary vector by the exact
    probability of absorption into it from the uniform start, and sums.
    Equals the classical stationary distribution when the chain is
    irreducible; Cesaro averaging makes periodicity harmless.
    """
    n = len(p)
    classes = fraction_communicating_classes(p)
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
            absorbed = dict(zip(transient, fraction_solve_linear(a, rhs)))
        else:
            absorbed = {}
        weight = uniform * len(cls) + uniform * sum(
            absorbed[s] for s in transient
        )
        weight_sum += weight
        pi_cls = fraction_class_stationary(p, cls)
        for state, mass in pi_cls.items():
            total[state] += weight * mass
    assert weight_sum == 1
    assert sum(total) == 1
    return tuple(total)


def _matrix_of(rows):
    return tuple(tuple(r) for r in rows)


UNIFORM = _matrix_of([[SIXTH] * 6 for _ in range(6)])
IDENTITY = _matrix_of([[F(int(i == j)) for j in range(6)] for i in range(6)])
TO_ZERO = _matrix_of([[F(int(j == 0)) for j in range(6)] for _ in range(6)])
# States 0 and 1 absorb; the other four split evenly between them.
TWO_ABSORBING = _matrix_of(
    [[F(int(j == i)) for j in range(6)] for i in range(2)]
    + [[F(1, 2), F(1, 2), F(0), F(0), F(0), F(0)] for _ in range(4)]
)
# Three disjoint 2-cycles: (0 1), (2 3), (4 5).
PERIODIC = _matrix_of(
    [[F(int(j == i ^ 1)) for j in range(6)] for i in range(6)]
)
# One 6-cycle 0 -> 1 -> ... -> 5 -> 0: irreducible with period 6.
SIX_CYCLE = _matrix_of(
    [[F(int(j == (i + 1) % 6)) for j in range(6)] for i in range(6)]
)
# Walk on the path 0 - 1 - ... - 5 reflected at both ends: irreducible
# with period 2; each state's long-run share is its degree over 10.
REFLECTING_WALK = _matrix_of(
    [
        [
            F(1, 1 + (0 < i < 5)) if abs(i - j) == 1 else F(0)
            for j in range(6)
        ]
        for i in range(6)
    ]
)
HAND_BUILT_CHAINS = {
    "uniform": UNIFORM,
    "identity": IDENTITY,
    "to-zero": TO_ZERO,
    "two-absorbing": TWO_ABSORBING,
    "periodic": PERIODIC,
    "six-cycle": SIX_CYCLE,
}
# Chains with two or more recurrent classes, whose stationary
# distribution is not unique.
SEVERAL_RECURRENT_CLASSES = {
    "identity": IDENTITY,
    "two-absorbing": TWO_ABSORBING,
    "periodic": PERIODIC,
}


def test_every_census_cell_matches_the_fraction_implementation(census):
    # Per cell, so a memo keyed on too little would hand some cell
    # another cell's matrix and fail here.
    solved = {}
    for entry in census.entries:
        assert entry.matrix == fraction_transition_matrix(entry.x, entry.a, entry.b)
        assert transition_matrix(entry.x, entry.a, entry.b) == entry.matrix
        if entry.matrix not in solved:
            solved[entry.matrix] = fraction_stationary_distribution(entry.matrix)
        assert entry.stationary == solved[entry.matrix]
    assert len(solved) == 290


@pytest.mark.parametrize("name", sorted(HAND_BUILT_CHAINS))
def test_stationary_matches_the_fraction_implementation_on_hand_built_chains(name):
    # Where the oracle's class decomposition finds one recurrent class the
    # laws agree; where it finds several, the oracle weights them from the
    # uniform start and the batched solver refuses the chain.
    p = HAND_BUILT_CHAINS[name]
    n = len(p)
    recurrent = [
        cls
        for cls in fraction_communicating_classes(p)
        if all(p[i][j] == 0 for i in cls for j in range(n) if j not in cls)
    ]
    if len(recurrent) == 1:
        assert stationary_of(p) == fraction_stationary_distribution(p)
    else:
        with pytest.raises(InvalidInputError, match="recurrent class"):
            stationary_of(p)


def test_stationary_handles_periodic_chains_by_occupation_share():
    assert stationary_of(SIX_CYCLE) == (SIXTH,) * 6
    assert stationary_of(REFLECTING_WALK) == tuple(
        F(d, 10) for d in (1, 2, 2, 2, 2, 1)
    )


@pytest.mark.parametrize("name", sorted(SEVERAL_RECURRENT_CLASSES))
def test_stationary_rejects_several_recurrent_classes(name):
    # Alone, and as one chain of a stack whose other chains are fine.
    message = (
        "^the chain has more than one recurrent class, "
        "so its stationary distribution is not unique$"
    )
    bad = counts_of(SEVERAL_RECURRENT_CLASSES[name])
    with pytest.raises(InvalidInputError, match=message):
        stationary_distributions([bad])
    stack = [counts_of(UNIFORM), counts_of(SIX_CYCLE), bad, counts_of(TO_ZERO)]
    with pytest.raises(InvalidInputError, match=message):
        stationary_distributions(stack)


def test_every_cut_line_raises_in_both_implementations():
    # Every cut value is a tie line of each family (see
    # test_tie_lines_of_every_family_are_exactly_the_cut_values), so a
    # point on any of them has a tie for some (state, rperm).
    off = F(7, 13)
    for x in CANONICAL_X:
        for c in sorted(cut_values(x)):
            for a, b in ((c, off), (off, c), (c / 3, c - c / 3)):
                with pytest.raises(CutLineError):
                    fraction_transition_matrix(x, a, b)
                with pytest.raises(CutLineError):
                    transition_matrix(x, a, b)


HUGE_DENOMINATOR_X = F(10**30 + 1, 12 * 10**30)


def test_integer_enumeration_matches_the_fraction_implementation():
    # Canonical x, 8 random rationals in each interval between
    # configuration-change values, and an x whose scaled values
    # overflow int64: same representatives, values and order.
    rand = random.Random(20261021)
    edges = (F(0), *X_CONFIG_BOUNDARIES, F(1, 2))
    xs = [*CANONICAL_X, HUGE_DENOMINATOR_X]
    for lo, hi in zip(edges, edges[1:]):
        for _ in range(8):
            d = rand.randint(2, 10**12)
            xs.append(lo + (hi - lo) * F(rand.randint(1, d - 1), d))
    for x in xs:
        assert enumerate_regions(x) == fraction_enumerate_regions(x), x


def test_huge_denominator_census_matches_the_fraction_implementation():
    census = full_census([HUGE_DENOMINATOR_X])
    assert census.total_regions == 154 and census.distinct_count == 117
    for entry in census.entries:
        assert entry.matrix == fraction_transition_matrix(entry.x, entry.a, entry.b)


@pytest.mark.parametrize(
    "xs", [CANONICAL_X, [HUGE_DENOMINATOR_X, F(22, 120)]], ids=["canonical", "huge-denominator"]
)
def test_batched_solve_of_every_census_matrix_matches_the_fraction_implementation(xs):
    # The analyze3 goldens' censuses: every distinct matrix in one stack.
    census = full_census(xs)
    matrices = list(dict.fromkeys(e.matrix for e in census.entries))
    laws = stationary_distributions([counts_of(p) for p in matrices])
    assert laws == [fraction_stationary_distribution(p) for p in matrices]
    law_of = dict(zip(matrices, laws))
    assert all(e.stationary == law_of[e.matrix] for e in census.entries)


def test_integer_ranks_give_sixths_out_of_six_rperms():
    x, a, b = F(27, 120), F(5, 7), F(11, 9)
    p = transition_matrix(x, a, b)
    assert p == fraction_transition_matrix(x, a, b)
    assert len(p) == N_STATES
    assert all(sum(row) == 1 for row in p)


def test_cached_multiplicities_equal_fresh_counters(census):
    fresh = Counter(e.stationary for e in census.entries)
    fresh_unlabeled = Counter(tuple(sorted(e.stationary)) for e in census.entries)
    # Insertion order too: most_common breaks ties by it.
    assert list(census.multiplicity.items()) == list(fresh.items())
    assert list(census.unlabeled_multiplicity.items()) == list(fresh_unlabeled.items())
    assert census.multiplicity is census.multiplicity


def test_equal_matrices_share_one_matrix_and_one_distribution(census):
    assert isinstance(census.entries, tuple)
    first = {}
    for entry in census.entries:
        owner = first.setdefault(entry.matrix, entry)
        assert entry.matrix is owner.matrix
        assert entry.stationary is owner.stationary
    assert len({id(e.stationary) for e in census.entries}) == len(first) == 290


def _needs_row_swap(p) -> bool:
    """Whether elimination on p's stationary system, the balance equations
    of states 0..n-2 and a row of ones, meets a zero pivot in row order."""
    n = len(p)
    a = [[p[i][j] - (i == j) for i in range(n)] for j in range(n - 1)] + [[F(1)] * n]
    for col in range(n):
        if a[col][col] == 0:
            return True
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return False


def _random_chain(rand, n, total):
    """An n-state chain each of whose rows splits total into one to four
    random parts: sparse, with entries that are multiples of 1/total."""
    rows = []
    for _ in range(n):
        cuts = sorted(rand.randint(0, total) for _ in range(rand.randint(0, 3)))
        w = [0] * n
        for lo, hi in zip([0, *cuts], [*cuts, total]):
            w[rand.randrange(n)] += hi - lo
        rows.append(tuple(F(v, total) for v in w))
    return tuple(rows)


def _recurrent_class_count(p):
    n = len(p)
    return sum(
        all(p[i][j] == 0 for i in cls for j in range(n) if j not in cls)
        for cls in fraction_communicating_classes(p)
    )


@pytest.mark.parametrize("total", [6, 10**12 + 39], ids=["int64", "object"])
def test_batched_solve_matches_the_fraction_implementation_on_random_chains(total):
    # Entries in sixths keep every stack up to 7 states within the int64
    # bound, as in the census; with a common denominator near 10**12 the
    # first products of the elimination overflow int64, so those stacks
    # are solved on Python ints.
    rand = random.Random(20261022)
    swaps = 0
    for n in range(1, 8):
        chains = [_random_chain(rand, n, total) for _ in range(60)]
        single = [p for p in chains if _recurrent_class_count(p) == 1]
        assert len(single) >= 10
        laws = stationary_distributions([counts_of(p) for p in single])
        assert laws == [fraction_stationary_distribution(p) for p in single]
        swaps += sum(map(_needs_row_swap, single))
        for p in chains:
            if _recurrent_class_count(p) > 1:
                with pytest.raises(InvalidInputError, match="recurrent class"):
                    stationary_distributions([counts_of(p)])
    assert swaps >= 20


def test_batched_solve_mixes_int64_and_object_sized_chains():
    # One chain too large for int64 sends the whole stack to Python ints.
    big = _random_chain(random.Random(20261023), 6, 10**15 + 37)
    assert _recurrent_class_count(big) == 1
    chains = [UNIFORM, REFLECTING_WALK, big, TO_ZERO]
    laws = stationary_distributions([counts_of(p) for p in chains])
    assert laws == [fraction_stationary_distribution(p) for p in chains]


@pytest.mark.parametrize(
    "counts",
    [
        [],
        [[1, 2], [3, 0]],
        [[[1, 2]]],
        [[[0.5, 0.5], [0.5, 0.5]]],
        [[[1, 1], [3, 0]]],
        [[[2, -1], [0, 1]]],
        [[[0, 0], [0, 0]]],
    ],
    ids=["empty", "2-d", "not-square", "floats", "unequal-rows", "negative", "zero-rows"],
)
def test_batched_solve_rejects_what_is_no_stack_of_chains(counts):
    with pytest.raises(InvalidInputError, match="counts must"):
        stationary_distributions(counts)
