"""The core iteration, the naive baselines, and the run driver."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deconvsim import (
    AdjustPolicy,
    DeconvConfig,
    PoolingKind,
    PoolingMode,
    SmoothingSpec,
    SupportConstraint,
    make_experiment,
    make_rng,
    run,
)
from deconvsim.core import random_permutation
from deconvsim.engine import naive_random_difference, naive_sorted_difference, step
from deconvsim.errors import ConfigError, InvalidInputError

sample_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=25
)


SORTX = np.array([0.0, 1.0])
SORTZ = np.array([0.0, 3.0])
Y0 = np.array([0.0, 2.0])


def test_iterate_once_two_point_swap():
    y, violations = step(SORTX, SORTZ, Y0, np.array([1, 0]), make_rng(0))
    assert np.array_equal(y, [-1.0, 3.0])
    assert violations == 0


def test_iterate_once_identity_rperm_fixes_initial_estimate():
    y, _ = step(SORTX, SORTZ, Y0, np.array([0, 1]), make_rng(0))
    assert np.array_equal(y, [0.0, 2.0])


@given(sample_lists, sample_lists)
def test_identity_rperm_fixed_point_in_general(x, z):
    n = min(len(x), len(z))
    sortx = np.sort(np.asarray(x[:n]))
    sortz = np.sort(np.asarray(z[:n]))
    y = naive_sorted_difference(sortx, sortz)
    out, _ = step(sortx, sortz, y, np.arange(n), make_rng(0))
    assert np.array_equal(out, y)


def test_single_element_chain_absorbs_immediately():
    sortx, sortz, y = np.array([2.0]), np.array([7.0]), np.array([5.0])
    rng = make_rng(9)
    for _ in range(5):
        y, _ = step(sortx, sortz, y, random_permutation(1, rng), rng)
        assert np.array_equal(y, [5.0])


def test_iterate_once_counts_violations_before_adjustment():
    support = SupportConstraint(0.0, np.inf)
    y, violations = step(
        SORTX,
        SORTZ,
        Y0,
        np.array([1, 0]),
        make_rng(0),
        policy=AdjustPolicy.ABSOLUTE,
        support=support,
    )
    assert violations == 1  # the raw step gives (-1, 3)
    assert np.array_equal(y, [1.0, 3.0])


def test_naive_sorted_difference_examples():
    assert np.array_equal(naive_sorted_difference([1.0, 2.0], [10.0, 20.0]), [9.0, 18.0])
    v = np.array([4.0, -1.0, 2.0])
    assert np.array_equal(naive_sorted_difference(v, v), [0.0, 0.0, 0.0])
    assert np.array_equal(naive_sorted_difference([0.0, 1.0], [0.0, 3.0]), [0.0, 2.0])
    assert np.array_equal(naive_sorted_difference([-5.0, 4.0], [0.0, 1.0]), [-3.0, 5.0])
    assert np.array_equal(naive_sorted_difference([2.0, 7.0], [2.0, 7.0]), [0.0, 0.0])


def test_init_estimate_examples():
    # run's row 0 is the starting estimate sort(sort(z) - sort(x)).
    cases = [
        ([0.0, 1.0], [0.0, 3.0], [0.0, 2.0]),
        ([-5.0, 4.0], [0.0, 1.0], [-3.0, 5.0]),
        ([2.0, 7.0], [2.0, 7.0], [0.0, 0.0]),
        ([1.0, 0.0], [3.0, 0.0], [0.0, 2.0]),
    ]
    for x, z, expected in cases:
        trace = run(np.array(x), np.array(z), DeconvConfig(iters=0, seed=0))
        assert np.array_equal(trace.ys, [expected])


def test_naive_random_difference_conserves_the_sum():
    rng = make_rng(5)
    x = rng.normal(size=40)
    z = rng.normal(size=40)
    out = naive_random_difference(x, z, make_rng(6))
    assert out.sum() == pytest.approx(z.sum() - x.sum())
    assert np.all(np.diff(out) >= 0)


def test_naive_baselines_reject_length_mismatch():
    with pytest.raises(InvalidInputError):
        naive_sorted_difference([1.0], [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        naive_random_difference([1.0], [1.0, 2.0], make_rng(0))


def test_run_records_every_iteration_plus_the_initial_row():
    x1, z0, _ = make_experiment("normal", 0)
    trace = run(x1, z0, DeconvConfig(iters=17, seed=0))
    assert trace.ys.shape == (18, 100)
    assert [r.iteration for r in trace.all_records] == list(range(18))
    assert np.shares_memory(trace.steps[-1].y, trace.ys)  # records are row views
    assert not trace.violations.any()  # unbounded support
    assert trace.pooled is None


def test_run_zero_iterations_keeps_only_the_initial_estimate():
    x1, z0, _ = make_experiment("normal", 1)
    trace = run(x1, z0, DeconvConfig(iters=0, seed=1))
    assert trace.steps == []
    assert np.array_equal(trace.ys, [naive_sorted_difference(x1, z0)])


def test_run_is_deterministic_given_the_seed():
    x1, z0, _ = make_experiment("normal", 2)
    config = DeconvConfig(iters=30, seed=2)
    a = run(x1, z0, config)
    b = run(x1, z0, config)
    for ra, rb in zip(a.all_records, b.all_records):
        assert np.array_equal(ra.y, rb.y)
        assert ra.d == rb.d and ra.violations == rb.violations


def test_run_conserves_the_mean_without_adjustment_or_smoothing():
    x1, z0, _ = make_experiment("normal", 3)
    trace = run(x1, z0, DeconvConfig(iters=50, seed=3))
    target = trace.sortz.sum() - trace.sortx.sum()
    for record in trace.all_records:
        assert record.y.sum() == pytest.approx(target, rel=1e-9)


def test_every_iterate_is_a_permuted_difference_on_integer_inputs():
    # On small integer inputs each iterate must match sort(sortz[perm] - sortx)
    # for some permutation, exactly.
    x = np.array([0.0, 2.0, 5.0, 9.0, 17.0])
    z = np.array([1.0, 4.0, 10.0, 20.0, 33.0])
    candidates = {
        tuple(np.sort(z[list(perm)] - x))
        for perm in itertools.permutations(range(5))
    }
    trace = run(x, z, DeconvConfig(iters=200, seed=11))
    for record in trace.all_records:
        assert tuple(record.y) in candidates


def test_run_reports_d_only_when_the_reference_exists():
    x1, z0, _ = make_experiment("normal", 4)
    trace = run(x1, z0, DeconvConfig(iters=5, seed=4))
    assert trace.reference is not None
    assert all(r.d is not None and r.d >= 0 for r in trace.all_records)

    v = np.sort(make_rng(4).normal(size=50))
    degenerate = run(v, v, DeconvConfig(iters=5, seed=4))
    assert degenerate.reference is None
    assert degenerate.d is None
    assert all(r.d is None for r in degenerate.all_records)
    assert degenerate.mean_distance() is None


def test_run_pool_average_matches_manual_mean():
    x1, z0, _ = make_experiment("normal", 5)
    config = DeconvConfig(
        iters=20, seed=5, pool=PoolingMode(PoolingKind.AVERAGE, burn_in=4)
    )
    trace = run(x1, z0, config)
    post = [r.y for r in trace.steps if r.iteration > 4]
    assert np.array_equal(trace.pooled, np.mean(post, axis=0))
    assert np.all(np.diff(trace.pooled) >= 0)


def test_run_pool_concat_length():
    x1, z0, _ = make_experiment("normal", 6)
    config = DeconvConfig(
        iters=20, seed=6, pool=PoolingMode(PoolingKind.CONCAT, burn_in=4)
    )
    trace = run(x1, z0, config)
    assert trace.pooled.size == (20 - 4) * 100


def test_run_concat_and_draw_feeds_from_the_pool():
    x1, z0, _ = make_experiment("normal", 7)
    config = DeconvConfig(
        iters=20, seed=7, pool=PoolingMode(PoolingKind.CONCAT_AND_DRAW, burn_in=4)
    )
    trace = run(x1, z0, config)
    assert trace.pooled.size == (20 - 4) * 100
    # Pool draws change the chain: the trajectory must differ from the
    # plain run with the same seed.
    plain = run(x1, z0, DeconvConfig(iters=20, seed=7))
    assert not np.array_equal(trace.steps[-1].y, plain.steps[-1].y)


def test_run_equalizes_unequal_lengths():
    rng = make_rng(13)
    x = rng.normal(size=60)
    z = rng.normal(loc=1.0, scale=2.0, size=100)
    trace = run(x, z, DeconvConfig(iters=3, seed=13))
    assert trace.sortx.size == trace.sortz.size == 100


def test_run_with_fresh_smoothing_stays_near_mean_conservation():
    # With zeta^2 = xi^2 + eta^2 the conservation holds in expectation.
    sm = SmoothingSpec(xi_sd=0.1, eta_sd=0.1, zeta_sd=np.sqrt(0.02))
    gaps = []
    for seed in range(40):
        x1, z0, _ = make_experiment("normal", seed)
        target = np.sort(z0).sum() - np.sort(x1).sum()
        trace = run(x1, z0, DeconvConfig(iters=10, seed=seed, smoothing=sm))
        gaps.append(trace.steps[-1].y.sum() - target)
    # sum gap per run ~ N(0, n*(xi^2+zeta^2)) = N(0, 3); 40-run average
    # has sd ~ 0.27.
    assert abs(np.mean(gaps)) < 1.0


def test_run_one_shot_smoothing_perturbs_once():
    sm = SmoothingSpec(
        xi_sd=0.1, eta_sd=0.1, zeta_sd=np.sqrt(0.02), fresh_each_step=False
    )
    x1, z0, _ = make_experiment("normal", 8)
    trace = run(x1, z0, DeconvConfig(iters=5, seed=8, smoothing=sm))
    # The sorted inputs carry the one-shot noise: they differ from the
    # raw sorted samples.
    assert not np.array_equal(trace.sortx, np.sort(x1))
    assert not np.array_equal(trace.sortz, np.sort(z0))


def test_run_applies_boundary_policy_every_step():
    x1, z0, _ = make_experiment("exponential", 9)
    config = DeconvConfig(
        iters=30,
        seed=9,
        adjust=AdjustPolicy.ABSOLUTE,
        support=SupportConstraint(0.0, np.inf),
    )
    trace = run(x1, z0, config)
    assert all((r.y >= 0).all() for r in trace.steps)
    assert any(r.violations > 0 for r in trace.steps)


def test_trace_mean_distance_uses_burn_in():
    x1, z0, _ = make_experiment("normal", 10)
    trace = run(x1, z0, DeconvConfig(iters=10, seed=10, pool=PoolingMode(burn_in=7)))
    manual = np.mean([r.d for r in trace.steps if r.iteration > 7])
    assert trace.mean_distance() == pytest.approx(manual)


def test_config_validation():
    with pytest.raises(ConfigError):
        DeconvConfig(iters=-1)
    with pytest.raises(ConfigError):
        DeconvConfig(iters=5, pool=PoolingMode(PoolingKind.AVERAGE, burn_in=5))
    with pytest.warns(UserWarning, match="bounded"):
        DeconvConfig(support=SupportConstraint(0.0, np.inf))


def test_bounded_support_with_none_policy_counts_but_keeps_values():
    x1, z0, _ = make_experiment("exponential", 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = DeconvConfig(
            iters=30, seed=12, support=SupportConstraint(0.0, np.inf)
        )
    trace = run(x1, z0, config)
    assert any(r.violations > 0 for r in trace.steps)
    assert any((r.y < 0).any() for r in trace.steps)
