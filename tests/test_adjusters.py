"""Boundary policies: violation counting and in-support guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deconvsim import AdjustPolicy, SupportConstraint, make_rng
from deconvsim.adjusters import adjust
from deconvsim.errors import InfeasibleAdjustmentError, InvalidInputError

HALF_LINE = SupportConstraint(0.0, math.inf)
UNIT = SupportConstraint(0.0, 1.0)


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
    out, count = adjust([-0.3, 0.5, 1.2], AdjustPolicy.NONE, UNIT)
    assert np.array_equal(out, [-0.3, 0.5, 1.2])
    assert count == 2


def test_absolute_on_half_line_is_absolute_value():
    out, count = adjust([-0.3, 0.5, 1.2], AdjustPolicy.ABSOLUTE, HALF_LINE)
    assert np.allclose(out, [0.3, 0.5, 1.2])
    assert count == 1


def test_clamp_rounds_up_to_zero():
    out, count = adjust([-0.3, 0.5], AdjustPolicy.CLAMP, HALF_LINE)
    assert np.array_equal(out, [0.0, 0.5])
    assert count == 1


def test_absolute_reflects_above_upper_bound():
    out, count = adjust([1.4, 0.5], AdjustPolicy.ABSOLUTE, UNIT)
    assert np.allclose(out, [0.6, 0.5])
    assert count == 1


def test_absolute_folds_repeatedly_when_doubly_bounded():
    # 3.7 reflects about 1 to -1.7, about 0 to 1.7, about 1 to 0.3.
    out, _ = adjust([2.3, 3.7], AdjustPolicy.ABSOLUTE, UNIT)
    assert np.allclose(out, [0.3, 0.3])


def test_absolute_handles_upper_bound_only():
    out, count = adjust([1.4, -5.0], AdjustPolicy.ABSOLUTE, SupportConstraint(-math.inf, 1.0))
    assert np.allclose(out, [0.6, -5.0])
    assert count == 1


def test_copy_smallest_uses_the_j_smallest_in_support_values():
    out, count = adjust([-1, -2, 3, 5], AdjustPolicy.COPY_SMALLEST, HALF_LINE)
    assert count == 2
    assert sorted(out) == [3, 3, 5, 5]


def test_copy_smallest_cycles_when_violators_outnumber_candidates():
    out, count = adjust([-1, -2, -3, 4], AdjustPolicy.COPY_SMALLEST, HALF_LINE)
    assert count == 3
    assert sorted(out) == [4, 4, 4, 4]


def test_copy_smallest_upper_violations_take_largest_values():
    out, count = adjust([-1.0, 0.3, 0.7, 2.0], AdjustPolicy.COPY_SMALLEST, UNIT)
    assert count == 2
    assert sorted(out) == [0.3, 0.3, 0.7, 0.7]


def test_resample_draws_only_from_in_support_values():
    rng = make_rng(11)
    for _ in range(25):
        out, count = adjust([-4.0, -9.0, 1.0, 2.0], AdjustPolicy.RESAMPLE, HALF_LINE, rng)
        assert count == 2
        assert set(out[:2]) <= {1.0, 2.0}
        assert np.array_equal(out[2:], [1.0, 2.0])


def test_resample_requires_rng():
    with pytest.raises(InvalidInputError):
        adjust([-1.0, 1.0], AdjustPolicy.RESAMPLE, HALF_LINE)


def test_resample_is_deterministic_per_seed():
    a, _ = adjust([-4.0, 1.0, 2.0], AdjustPolicy.RESAMPLE, HALF_LINE, make_rng(3))
    b, _ = adjust([-4.0, 1.0, 2.0], AdjustPolicy.RESAMPLE, HALF_LINE, make_rng(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("policy", [AdjustPolicy.RESAMPLE, AdjustPolicy.COPY_SMALLEST])
def test_policies_needing_donors_fail_with_no_in_support_values(policy):
    with pytest.raises(InfeasibleAdjustmentError):
        adjust([-1.0, -2.0], policy, HALF_LINE, make_rng(0))


@pytest.mark.parametrize("policy", list(AdjustPolicy))
def test_no_violations_means_no_change(policy):
    v = [0.1, 0.5, 0.9]
    out, count = adjust(v, policy, UNIT, make_rng(0))
    assert count == 0
    assert np.array_equal(out, v)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
def test_absolute_on_half_line_matches_absolute_values(v):
    out, _ = adjust(v, AdjustPolicy.ABSOLUTE, HALF_LINE)
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
    out, count = adjust(arr, policy, support, make_rng(1))
    assert count == int(support.violations(arr).sum())
    assert not support.violations(out).any()
    assert out.size == arr.size
