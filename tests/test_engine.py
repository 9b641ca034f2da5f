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
    UNBOUNDED,
    SupportConstraint,
    TieRule,
    make_experiment,
    make_rng,
    run,
)
from deconvsim.adjusters import adjust
from deconvsim.core import random_permutation, ranks
from deconvsim.engine import naive_random_difference, naive_sorted_difference, step
from deconvsim.errors import ConfigError, InfeasibleAdjustmentError, InvalidInputError
from deconvsim.metrics import l1_distance

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


# The step in its rank form, copied verbatim from before the one-argsort
# form (renamed): `step` must reproduce it byte for byte, violation count
# and rng state included.
def _rank_form_step(
    sortx: np.ndarray,
    sortz: np.ndarray,
    y: np.ndarray,
    rperm: np.ndarray,
    rng: np.random.Generator,
    policy: AdjustPolicy = AdjustPolicy.NONE,
    support: SupportConstraint = UNBOUNDED,
    tie_rule: TieRule = TieRule.FIRST_OCCURRENCE,
    w_noise: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    w = sortx + y[rperm]
    if w_noise is not None:
        w = w + w_noise
    r = ranks(w, tie_rule, rng)
    adjusted, violations = adjust(sortz[r] - sortx, policy, support, rng)
    return np.sort(adjusted), violations


ORACLE_SUPPORTS = [
    UNBOUNDED,
    SupportConstraint(0.0, np.inf),
    SupportConstraint(0.0, 1.5),
    SupportConstraint(-np.inf, 1.0),
]


def _oracle_case(n, tied, seed):
    """Sorted x and z, a sorted current estimate, an rperm and a w noise
    vector; tied cases are integer-valued, so w, y and ydiff hold ties."""
    g = np.random.default_rng(seed)
    if tied:
        x = g.integers(0, 4, n).astype(np.float64)
        z = g.integers(0, 6, n).astype(np.float64)
    else:
        x = g.normal(0.0, 0.5, n)
        z = g.normal(0.0, 0.5, n) + g.exponential(0.7, n)
    sortx, sortz = np.sort(x), np.sort(z)
    y = np.sort(sortz - sortx[g.permutation(n)])
    return sortx, sortz, y, g.permutation(n), g.normal(0.0, 0.1, n)


@pytest.mark.parametrize("support", ORACLE_SUPPORTS, ids=lambda s: f"{s.lower}:{s.upper}")
@pytest.mark.parametrize("policy", list(AdjustPolicy), ids=lambda p: p.value)
def test_step_matches_the_rank_form_byte_for_byte(policy, support):
    cases = itertools.product(
        TieRule, (False, True), (1, 3, 100, 1023, 1024, 5000), (False, True)
    )
    for seed, (tie_rule, tied, n, noisy) in enumerate(cases):
        sortx, sortz, y, rperm, noise = _oracle_case(n, tied, seed)
        w_noise = noise if noisy else None
        inputs = [a.copy() for a in (sortx, sortz, y, rperm, noise)]
        args = (sortx, sortz, y, rperm)
        kwargs = dict(policy=policy, support=support, tie_rule=tie_rule, w_noise=w_noise)
        ref_rng, rng = make_rng(seed), make_rng(seed)
        try:
            expected = _rank_form_step(*args, ref_rng, **kwargs)
        except InfeasibleAdjustmentError:
            with pytest.raises(InfeasibleAdjustmentError):
                step(*args, rng, **kwargs)
            continue
        got = step(*args, rng, **kwargs)
        label = (tie_rule, tied, n, noisy)
        assert got[0].dtype == np.float64, label
        assert got[0].tobytes() == expected[0].tobytes(), label
        assert got[1] == expected[1] and type(got[1]) is type(expected[1]), label
        assert rng.random() == ref_rng.random(), label
        # step writes to none of its inputs (y is a row of the caller's trace)
        for before, after in zip(inputs, (sortx, sortz, y, rperm, noise)):
            assert np.array_equal(before, after), label


def test_step_signed_zeros_compare_equal_to_the_rank_form():
    # The one place the two forms may differ in bytes: with -0.0 in sortz
    # and 0.0 in sortx an iterate holds both zeros, and the unstable sort
    # may place them differently.  Every value still compares equal.
    g = np.random.default_rng(0)
    n = 500
    sortx = np.sort(g.integers(-2, 3, n).astype(np.float64))
    z = g.integers(-2, 3, n).astype(np.float64)
    z[z == 0] = -0.0
    sortz = np.sort(z)
    y = np.sort(sortz - sortx[g.permutation(n)])
    rperm = g.permutation(n)
    got, count = step(sortx, sortz, y, rperm, make_rng(1))
    expected, ref_count = _rank_form_step(sortx, sortz, y, rperm, make_rng(1))
    assert np.array_equal(got, expected) and count == ref_count
    assert np.signbit(got).sum() == np.signbit(expected).sum() > 0


@pytest.mark.parametrize(
    "iters, n",
    # (2000, 100) spans four chunks of d, the last one short.
    [(96, 100), (26, 200_000), (1000, 37), (5, 3), (2000, 100)],
)
def test_run_d_is_the_per_row_distance_bit_for_bit(iters, n):
    g = np.random.default_rng(n)
    x = g.normal(0.0, 1.0, n)
    z = 1.0 + 2.0 * g.permutation(x)  # var(z) = 4 var(x): d is defined
    trace = run(x, z, DeconvConfig(iters=iters, seed=n))
    line = trace.reference.line_values
    per_row = np.array([l1_distance(y, line) for y in trace.ys])
    assert np.array_equal(trace.d.view(np.int64), per_row.view(np.int64))


@pytest.mark.parametrize("iters", [10**15, 10**17])
def test_run_rejects_a_trace_beyond_the_address_space(iters):
    # Both byte counts exceed any address space, so the allocation is
    # refused without touching memory: MemoryError at 8e17 bytes, NumPy's
    # "array is too big" at 8e19.
    x1, z0, _ = make_experiment("normal", 0)
    with pytest.raises(InvalidInputError, match=rf"T \+ 1 = {iters + 1} .* n = 100 "):
        run(x1, z0, DeconvConfig(iters=iters, seed=0))


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
