"""The boundary repair ``core._repair``: each adjust policy's violation
count and in-support guarantee."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deconvsim import AdjustPolicy, SupportConstraint, make_rng
from conftest import every_draw, parent_repair
from deconvsim.config import UNBOUNDED
from deconvsim.core import _repair
from deconvsim.errors import ConfigError, InfeasibleAdjustmentError, InvalidInputError

HALF_LINE = SupportConstraint(0.0, math.inf)
UNIT = SupportConstraint(0.0, 1.0)


def repaired(values, policy, support, rng=None):
    """``_repair`` on a float64 copy of values: (sorted repaired copy, count)."""
    v = np.array(values, dtype=np.float64)
    return v, _repair(v, policy, support, rng)


def test_support_requires_lower_below_upper():
    with pytest.raises(InvalidInputError):
        SupportConstraint(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        SupportConstraint(2.0, -2.0)


def test_support_rejects_nan_bounds():
    with pytest.raises(InvalidInputError):
        SupportConstraint(math.nan, 1.0)
    with pytest.raises(InvalidInputError):
        SupportConstraint(0.0, math.nan)


@pytest.mark.parametrize("field", ["lower", "upper"])
def test_support_rejects_a_bound_of_the_wrong_type(field):
    bounds = {"lower": 0.0, "upper": 1.0}
    for bad in ("1", None, [1.0], 1j):
        with pytest.raises(ConfigError, match=f"support {field} bound"):
            SupportConstraint(**{**bounds, field: bad})


def test_support_takes_any_real_bound():
    bounds = [(0, 10**400), (-(10**400), 0), (np.float32(-1.5), np.int64(3)), (0.0, 1.0)]
    for lower, upper in bounds:
        s = SupportConstraint(lower, upper)
        assert (s.lower, s.upper) == (lower, upper)
    with pytest.raises(InvalidInputError):
        SupportConstraint(10**400, 0)


def test_support_computes_with_a_bound_beyond_float_range_as_infinite():
    below, above = SupportConstraint(-(10**400), 0), SupportConstraint(0, 10**400)
    assert below.float_bounds == (-math.inf, 0.0) and below.bounded
    assert above.float_bounds == (0.0, math.inf) and above.bounded
    v = np.array([-1e308, -0.5, 0.0, 0.5, 1e308])
    assert below.violations(v).tolist() == [False, False, False, True, True]
    assert above.violations(v).tolist() == [True, True, False, False, False]
    # No float64 value lies between bounds that are equal as float64 values.
    for lower, upper in [(10**400, 10**401), (-(10**401), -(10**400)), (10**400, math.inf)]:
        with pytest.raises(InvalidInputError):
            SupportConstraint(lower, upper)


def test_support_bounded_flag():
    assert not SupportConstraint().bounded
    assert HALF_LINE.bounded
    assert SupportConstraint(-math.inf, 3.0).bounded


def test_support_violation_mask():
    mask = UNIT.violations(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]))
    assert mask.tolist() == [True, False, False, False, True]


def test_none_counts_but_does_not_touch():
    out, count = repaired([-0.3, 0.5, 1.2], AdjustPolicy.NONE, UNIT)
    assert np.array_equal(out, [-0.3, 0.5, 1.2])
    assert count == 2


def test_absolute_on_half_line_is_absolute_value():
    out, count = repaired([-0.3, 0.5, 1.2], AdjustPolicy.ABSOLUTE, HALF_LINE)
    assert np.allclose(out, [0.3, 0.5, 1.2])
    assert count == 1


def test_clamp_rounds_up_to_zero():
    out, count = repaired([-0.3, 0.5], AdjustPolicy.CLAMP, HALF_LINE)
    assert np.array_equal(out, [0.0, 0.5])
    assert count == 1


def test_absolute_reflects_above_upper_bound():
    out, count = repaired([1.4, 0.5], AdjustPolicy.ABSOLUTE, UNIT)
    assert np.allclose(out, [0.5, 0.6])
    assert count == 1


def test_absolute_folds_repeatedly_when_doubly_bounded():
    # 3.7 reflects about 1 to -1.7, about 0 to 1.7, about 1 to 0.3.
    out, _ = repaired([2.3, 3.7], AdjustPolicy.ABSOLUTE, UNIT)
    assert np.allclose(out, [0.3, 0.3])


def test_absolute_handles_upper_bound_only():
    out, count = repaired([1.4, -5.0], AdjustPolicy.ABSOLUTE, SupportConstraint(-math.inf, 1.0))
    assert np.allclose(out, [-5.0, 0.6])
    assert count == 1


def test_copy_smallest_uses_the_j_smallest_in_support_values():
    out, count = repaired([-1, -2, 3, 5], AdjustPolicy.COPY_SMALLEST, HALF_LINE)
    assert count == 2
    assert sorted(out) == [3, 3, 5, 5]


def test_copy_smallest_cycles_when_violators_outnumber_candidates():
    out, count = repaired([-1, -2, -3, 4], AdjustPolicy.COPY_SMALLEST, HALF_LINE)
    assert count == 3
    assert sorted(out) == [4, 4, 4, 4]


def test_copy_smallest_cycles_on_both_sides():
    # Below: 0.5, 0.7, 0.5; above: 0.7, 0.5, 0.7, 0.5.
    v = [2.0, -3.0, 0.7, 3.0, -2.0, 0.5, 4.0, -1.0, 5.0]
    out, count = repaired(v, AdjustPolicy.COPY_SMALLEST, UNIT)
    assert count == 7
    assert out.tolist() == [0.5] * 5 + [0.7] * 4


def test_copy_smallest_upper_violations_take_largest_values():
    out, count = repaired([-1.0, 0.3, 0.7, 2.0], AdjustPolicy.COPY_SMALLEST, UNIT)
    assert count == 2
    assert sorted(out) == [0.3, 0.3, 0.7, 0.7]


def test_resample_draws_only_from_in_support_values():
    rng = make_rng(11)
    drawn = set()
    for _ in range(25):
        out, count = repaired([-4.0, -9.0, 1.0, 2.0], AdjustPolicy.RESAMPLE, HALF_LINE, rng)
        assert count == 2
        # The two in-support values stay; the two violators became copies.
        assert set(out.tolist()) == {1.0, 2.0}
        assert np.all(out[:-1] <= out[1:])
        drawn.add(tuple(out.tolist()))
    assert len(drawn) == 3  # both donors are drawn, alone or together


def test_resample_is_deterministic_per_seed():
    a, _ = repaired([-4.0, 1.0, 2.0], AdjustPolicy.RESAMPLE, HALF_LINE, make_rng(3))
    b, _ = repaired([-4.0, 1.0, 2.0], AdjustPolicy.RESAMPLE, HALF_LINE, make_rng(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("policy", [AdjustPolicy.RESAMPLE, AdjustPolicy.COPY_SMALLEST])
def test_policies_needing_donors_fail_with_no_in_support_values(policy):
    with pytest.raises(InfeasibleAdjustmentError):
        repaired([-1.0, -2.0], policy, HALF_LINE, make_rng(0))


@pytest.mark.parametrize("policy", list(AdjustPolicy))
def test_no_violations_means_no_change(policy):
    v = [0.1, 0.5, 0.9]
    out, count = repaired(v, policy, UNIT, make_rng(0))
    assert count == 0
    assert np.array_equal(out, v)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
def test_absolute_on_half_line_matches_absolute_values(v):
    out, _ = repaired(v, AdjustPolicy.ABSOLUTE, HALF_LINE)
    assert np.allclose(sorted(out), sorted(np.abs(v)))


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20),
    st.sampled_from([HALF_LINE, UNIT, SupportConstraint(-2.5, 3.0)]),
    st.sampled_from(
        [AdjustPolicy.CLAMP, AdjustPolicy.RESAMPLE, AdjustPolicy.COPY_SMALLEST, AdjustPolicy.ABSOLUTE]
    ),
)
def test_every_repair_policy_lands_inside_the_support(v, support, policy):
    arr = np.asarray(v, dtype=np.float64)
    good = ~support.violations(arr)
    if policy in (AdjustPolicy.RESAMPLE, AdjustPolicy.COPY_SMALLEST) and not good.any():
        return
    out, count = repaired(arr, policy, support, make_rng(1))
    assert count == int(support.violations(arr).sum())
    assert not support.violations(out).any()
    assert out.size == arr.size


# `conftest.parent_repair` is `_repair` as it was before the one-sided
# masks.  It repaired in position order and the engine sorted the result:
# the current `_repair`, which sorts and then repairs, must give its sorted
# bytes with the same violation count, rng state and error.  RESAMPLE must
# give the old repair of the sorted vector, sorted.
REPAIR_SUPPORTS = [
    UNBOUNDED,
    SupportConstraint(0.0, math.inf),
    SupportConstraint(-0.0, math.inf),
    SupportConstraint(-math.inf, 1.0),
    SupportConstraint(-math.inf, -0.0),
    SupportConstraint(0.0, 1.5),
]
# Signed zeros, the bound values themselves and a few tied magnitudes.
_SPECIAL = np.array([-0.0, 0.0, 1.0, 1.5, -1.0, 2.0, -2.0, 0.5, 1e-300, -1e-300])


def _repair_cases(n, support, g):
    """Named vectors of length n for one support: mixed values, tied
    lattice values, every value violating, and more violators than
    in-support values (each only where the support makes it possible)."""
    mixed = np.where(g.random(n) < 0.3, g.choice(_SPECIAL, n), g.normal(0.5, 1.5, n))
    tied = g.integers(-2, 3, n).astype(np.float64)
    tied[(tied == 0) & (g.random(n) < 0.5)] = -0.0
    cases = {"mixed": mixed, "tied": tied}
    pool = np.concatenate([_SPECIAL, g.normal(0.5, 3.0, 64)])
    bad = support.violations(pool)
    if bad.any():
        cases["all-violating"] = g.choice(pool[bad], n)
        if n >= 3 and (~bad).any():
            v = g.choice(pool[bad], n)
            keep = g.choice(n, max(1, n // 10), replace=False)
            v[keep] = g.choice(pool[~bad], keep.size)
            cases["violators-outnumber"] = v
    return cases


def _outcome(repair, v, policy, support, rng, signed_zeros=True):
    """(bytes as int64, count, count type, next draw) or the error raised,
    when repair runs on a float64 copy of v.  Without signed_zeros each
    zero of the repaired copy reads as 0.0."""
    out = np.array(v, dtype=np.float64)
    try:
        count = repair(out, policy, support, rng)
    except (InfeasibleAdjustmentError, InvalidInputError) as exc:
        return type(exc), str(exc), None if rng is None else rng.random()
    if not signed_zeros:
        out[out == 0] = 0.0
    return out.view(np.int64).tolist(), count, type(count), None if rng is None else rng.random()


def _sortedparent_repair(v, policy, support, rng):
    if policy is AdjustPolicy.RESAMPLE:
        # Its donors and violators are taken in the order of the sorted v.
        v.sort()
    count = parent_repair(v, policy, support, rng)
    v.sort()
    return count


def _mixed_zeros(v):
    zeros = v[v == 0]
    return bool(np.signbit(zeros).any() and not np.signbit(zeros).all())


@pytest.mark.parametrize("support", REPAIR_SUPPORTS, ids=lambda s: f"{s.lower}:{s.upper}")
@pytest.mark.parametrize("policy", list(AdjustPolicy), ids=lambda p: p.value)
def test_repair_matches_the_two_sided_masks_byte_for_byte(policy, support):
    # _repair leaves v sorted; the reference is the parent's repair
    # followed by a sort (for RESAMPLE, of the sorted v).  Where the
    # parent's repaired vector holds both -0.0 and 0.0, each zero is
    # compared as 0.0: NumPy's sort may list them in either order and, on
    # short vectors, even change how many of each it returns (its min/max
    # network picks either of two equal operands).  Every policy but
    # RESAMPLE draws nothing, so it is run without a generator as well.
    rng_cases = (True,) if policy is AdjustPolicy.RESAMPLE else (True, False)
    for n in (1, 3, 100, 5000):
        g = np.random.default_rng(n)
        for name, v in _repair_cases(n, support, g).items():
            for seed in (0, 1):
                for with_rng in rng_cases:
                    label = (n, name, seed, with_rng)
                    position = np.array(v, dtype=np.float64)
                    try:
                        parent_repair(position, policy, support, make_rng(seed))
                    except InfeasibleAdjustmentError:
                        pass
                    signed = not _mixed_zeros(position)
                    expected, got = (
                        _outcome(
                            repair, v, policy, support, make_rng(seed) if with_rng else None, signed
                        )
                        for repair in (_sortedparent_repair, _repair)
                    )
                    assert got == expected, label
                    if not isinstance(got[0], type):
                        out = np.array(got[0]).view(np.float64)
                        assert np.all(out[:-1] <= out[1:]), label
                        assert got[1] == np.count_nonzero(support.violations(v)), label
                        if policy is not AdjustPolicy.NONE:
                            assert not support.violations(out).any(), label


# ABSOLUTE on [0, inf) folds with np.abs before its one sort, unless the
# vector holds an in-support -0.0 that np.abs would flip.
HALF_LINES_AT_ZERO = [
    SupportConstraint(0.0, math.inf),
    SupportConstraint(-0.0, math.inf),
]


def _assert_absolute_matches_the_parent(v, support, label):
    # Zeros are compared as 0.0 where both signs meet, as in the test above.
    position = np.array(v, dtype=np.float64)
    parent_repair(position, AdjustPolicy.ABSOLUTE, support, None)
    signed = not _mixed_zeros(position)
    expected, got = (
        _outcome(repair, v, AdjustPolicy.ABSOLUTE, support, None, signed)
        for repair in (_sortedparent_repair, _repair)
    )
    assert got == expected, label


@pytest.mark.parametrize("support", HALF_LINES_AT_ZERO, ids=lambda s: f"{s.lower}:{s.upper}")
@pytest.mark.parametrize("zero", [-0.0, 0.0])
@pytest.mark.parametrize("n", [3, 1023, 1024, 1025, 5000])
def test_absolute_on_a_half_line_keeps_the_sign_of_its_zeros(n, zero, support):
    # Every zero has one sign: where np.abs would flip it (-0.0), the
    # repair must take the fold-after-sort path; elsewhere it folds before
    # the sort.  Either way the bytes are the parent's.
    g = np.random.default_rng(n)
    v = g.normal(0.0, 2.0, n)
    v[g.random(n) < 0.2] = zero
    special = g.random(n) < 0.1
    v[special] = g.choice([5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0], special.sum())
    _assert_absolute_matches_the_parent(v, support, (n, zero))
    # Without violators, and with nothing but violators and zeros.
    _assert_absolute_matches_the_parent(np.abs(v), support, (n, zero, "inside"))
    outside = -np.abs(v)
    outside[v == 0] = zero
    _assert_absolute_matches_the_parent(outside, support, (n, zero, "outside"))


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308]),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from(HALF_LINES_AT_ZERO),
)
def test_absolute_on_a_half_line_matches_the_parent_byte_for_byte(v, support):
    _assert_absolute_matches_the_parent(v, support, v)


def _law(repair, v, support):
    """Counter of the sorted outputs of ``repair(copy of v, RESAMPLE,
    support, rng)`` over every donor draw (see ``conftest.every_draw``)."""
    outputs = Counter()
    with every_draw() as draw:
        while sum(outputs.values()) < draw.total:
            out = np.array(v, dtype=np.float64)
            repair(out, AdjustPolicy.RESAMPLE, support, draw)
            outputs[tuple(np.sort(out).tolist())] += 1
    return outputs


@pytest.mark.parametrize("support", REPAIR_SUPPORTS, ids=lambda s: f"{s.lower}:{s.upper}")
def test_resample_matches_the_two_sided_masks_in_position_order(support):
    # The sorted repair draws its donors by their rank, the position-order
    # two-sided-mask repair by their position, so one draw may pick another
    # donor; over every draw the two give each sorted result equally often.
    drawn = 0
    for n in range(1, 6):
        g = np.random.default_rng(n)
        for name, v in _repair_cases(n, support, g).items():
            try:
                expected = _law(parent_repair, v, support)
            except InfeasibleAdjustmentError:
                with pytest.raises(InfeasibleAdjustmentError):
                    _law(_repair, v, support)
                continue
            assert _law(_repair, v, support) == expected, (n, name)
            drawn += sum(expected.values()) > 1
    assert drawn > 0 or not support.bounded  # some case had violators to repair
