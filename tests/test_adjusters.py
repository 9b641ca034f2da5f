"""Boundary policies: violation counting and in-support guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deconvsim import AdjustPolicy, SupportConstraint, make_rng
from deconvsim.adjusters import UNBOUNDED, _fold, _repair
from deconvsim.errors import InfeasibleAdjustmentError, InvalidInputError

HALF_LINE = SupportConstraint(0.0, math.inf)
UNIT = SupportConstraint(0.0, 1.0)


def repaired(values, policy, support, rng=None):
    """``_repair`` on a float64 copy of values: (repaired copy, count)."""
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
    assert np.allclose(out, [0.6, 0.5])
    assert count == 1


def test_absolute_folds_repeatedly_when_doubly_bounded():
    # 3.7 reflects about 1 to -1.7, about 0 to 1.7, about 1 to 0.3.
    out, _ = repaired([2.3, 3.7], AdjustPolicy.ABSOLUTE, UNIT)
    assert np.allclose(out, [0.3, 0.3])


def test_absolute_handles_upper_bound_only():
    out, count = repaired([1.4, -5.0], AdjustPolicy.ABSOLUTE, SupportConstraint(-math.inf, 1.0))
    assert np.allclose(out, [0.6, -5.0])
    assert count == 1


def test_copy_smallest_uses_the_j_smallest_in_support_values():
    out, count = repaired([-1, -2, 3, 5], AdjustPolicy.COPY_SMALLEST, HALF_LINE)
    assert count == 2
    assert sorted(out) == [3, 3, 5, 5]


def test_copy_smallest_cycles_when_violators_outnumber_candidates():
    out, count = repaired([-1, -2, -3, 4], AdjustPolicy.COPY_SMALLEST, HALF_LINE)
    assert count == 3
    assert sorted(out) == [4, 4, 4, 4]


def test_copy_smallest_upper_violations_take_largest_values():
    out, count = repaired([-1.0, 0.3, 0.7, 2.0], AdjustPolicy.COPY_SMALLEST, UNIT)
    assert count == 2
    assert sorted(out) == [0.3, 0.3, 0.7, 0.7]


def test_resample_draws_only_from_in_support_values():
    rng = make_rng(11)
    for _ in range(25):
        out, count = repaired([-4.0, -9.0, 1.0, 2.0], AdjustPolicy.RESAMPLE, HALF_LINE, rng)
        assert count == 2
        assert set(out[:2]) <= {1.0, 2.0}
        assert np.array_equal(out[2:], [1.0, 2.0])


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


# `_repair` as it was before the one-sided masks, copied verbatim
# (renamed): the current code must reproduce it byte for byte, in position
# order, with the same violation count, rng state and error.
def _parent_repair(
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


def _outcome(repair, v, policy, support, rng):
    """(bytes as int64, count, count type, next draw) or the error raised,
    when repair runs on a float64 copy of v."""
    out = np.array(v, dtype=np.float64)
    try:
        count = repair(out, policy, support, rng)
    except (InfeasibleAdjustmentError, InvalidInputError) as exc:
        return type(exc), str(exc), None if rng is None else rng.random()
    return out.view(np.int64).tolist(), count, type(count), None if rng is None else rng.random()


@pytest.mark.parametrize("support", REPAIR_SUPPORTS, ids=lambda s: f"{s.lower}:{s.upper}")
@pytest.mark.parametrize("policy", list(AdjustPolicy), ids=lambda p: p.value)
def test_repair_matches_the_two_sided_masks_byte_for_byte(policy, support):
    # Compared in position order, not only as a multiset.  Every policy but
    # RESAMPLE draws nothing, so it is run without a generator as well.
    rng_cases = (True,) if policy is AdjustPolicy.RESAMPLE else (True, False)
    for n in (1, 3, 100, 5000):
        g = np.random.default_rng(n)
        for name, v in _repair_cases(n, support, g).items():
            for seed in (0, 1):
                for with_rng in rng_cases:
                    label = (n, name, seed, with_rng)
                    expected = _outcome(
                        _parent_repair, v, policy, support, make_rng(seed) if with_rng else None
                    )
                    got = _outcome(_repair, v, policy, support, make_rng(seed) if with_rng else None)
                    assert got == expected, label
