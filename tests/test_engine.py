"""The core iteration, the naive baselines, and the run driver."""

import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from deconvsim import (
    AdjustPolicy,
    DeconvConfig,
    EqualizeStrategy,
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
from conftest import ranks
from deconvsim import engine, variations
from deconvsim.adjusters import _repair
from deconvsim.core import random_permutation
from deconvsim.engine import (
    _D_CHUNK,
    IterationTrace,
    _check_reach,
    _permutations,
    naive_random_difference,
    naive_sorted_difference,
    step,
)
from deconvsim.errors import (
    ConfigError,
    DegenerateReferenceError,
    InfeasibleAdjustmentError,
    InvalidInputError,
)
from deconvsim.metrics import distance_index, l1_distance, reference_normal_line
from deconvsim.variations import equalize_lengths

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


# The step in its rank form, as it was before the one-argsort form
# (renamed; it ranks through `conftest.ranks` and repairs with `_repair`,
# the functions its checked wrappers called): `step` must reproduce it
# byte for byte, violation count and rng state included.
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
    adjusted = sortz[ranks(w, tie_rule, rng)] - sortx
    violations = _repair(adjusted, policy, support, rng)
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


def _oracle_cases(tie_rules=TieRule, sizes=(1, 3, 100, 1023, 1024, 5000)):
    """(seed, label, args, w_noise) for every oracle case."""
    cases = itertools.product(tie_rules, (False, True), sizes, (False, True))
    for seed, (tie_rule, tied, n, noisy) in enumerate(cases):
        sortx, sortz, y, rperm, noise = _oracle_case(n, tied, seed)
        label = (tie_rule, tied, n, noisy)
        yield seed, label, (sortx, sortz, y, rperm, noise), noise if noisy else None


SUPPORT_IDS = dict(ids=lambda s: f"{s.lower}:{s.upper}")
# The policies whose step depends only on the multiset of pairs and the
# violation count, so the one-argsort form gives the rank form's bytes.
MULTISET_POLICIES = [p for p in AdjustPolicy if p is not AdjustPolicy.RESAMPLE]


@pytest.mark.parametrize("support", ORACLE_SUPPORTS, **SUPPORT_IDS)
@pytest.mark.parametrize("policy", MULTISET_POLICIES, ids=lambda p: p.value)
def test_step_matches_the_rank_form_byte_for_byte(policy, support):
    for seed, label, (sortx, sortz, y, rperm, noise), w_noise in _oracle_cases():
        tie_rule = label[0]
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
        assert got[0].dtype == np.float64, label
        assert got[0].tobytes() == expected[0].tobytes(), label
        assert got[1] == expected[1] and type(got[1]) is type(expected[1]), label
        assert rng.random() == ref_rng.random(), label
        # step writes to none of its inputs (y is a row of the caller's trace)
        for before, after in zip(inputs, (sortx, sortz, y, rperm, noise)):
            assert np.array_equal(before, after), label


# RESAMPLE lists its in-support donors in z order, the rank form in x
# order, so one draw may pick another donor.  The two forms still draw the
# same integers from the same multiset: the violation count and the
# generator state after the step agree, and so does the law of the result.


@pytest.mark.parametrize("support", ORACLE_SUPPORTS, **SUPPORT_IDS)
def test_resample_step_keeps_the_rank_form_count_and_rng_state(support):
    for seed, label, (sortx, sortz, y, rperm, _), w_noise in _oracle_cases():
        args = (sortx, sortz, y, rperm)
        kwargs = dict(
            policy=AdjustPolicy.RESAMPLE, support=support, tie_rule=label[0], w_noise=w_noise
        )
        ref_rng, rng = make_rng(seed), make_rng(seed)
        try:
            _, expected = _rank_form_step(*args, ref_rng, **kwargs)
        except InfeasibleAdjustmentError:
            with pytest.raises(InfeasibleAdjustmentError):
                step(*args, rng, **kwargs)
            continue
        got, count = step(*args, rng, **kwargs)
        assert count == expected and type(count) is type(expected), label
        assert rng.bit_generator.state == ref_rng.bit_generator.state, label
        assert np.all((got >= support.lower) & (got <= support.upper)), label


class _EveryDraw:
    """A generator stand-in for RESAMPLE's one draw: the i-th call of
    ``integers(0, g, k)`` returns the i-th of the g**k index vectors."""

    def __init__(self):
        self.draws = None
        self.total = 1  # a step without violators makes no draw

    def integers(self, low, high, size):
        if self.draws is None:
            self.draws = itertools.product(range(low, high), repeat=size)
            self.total = (high - low) ** size
        return np.array(next(self.draws), dtype=np.int64)


def _law_over_every_draw(form, args, kwargs):
    """Counter of the sorted outputs of ``form`` over every donor draw."""
    rng = _EveryDraw()
    outputs = Counter()
    while sum(outputs.values()) < rng.total:
        y, _ = form(*args, rng, **kwargs)
        outputs[tuple(y.tolist())] += 1
    return outputs


@pytest.mark.parametrize("support", ORACLE_SUPPORTS[1:], **SUPPORT_IDS)
def test_resample_step_has_the_rank_form_law(support):
    drawn = 0
    for _, label, (sortx, sortz, y, rperm, _), w_noise in _oracle_cases(
        [TieRule.FIRST_OCCURRENCE], (3, 4, 5)
    ):
        args = (sortx, sortz, y, rperm)
        kwargs = dict(policy=AdjustPolicy.RESAMPLE, support=support, w_noise=w_noise)
        try:
            expected = _law_over_every_draw(_rank_form_step, args, kwargs)
        except InfeasibleAdjustmentError:
            with pytest.raises(InfeasibleAdjustmentError):
                _law_over_every_draw(step, args, kwargs)
            continue
        got = _law_over_every_draw(step, args, kwargs)
        assert got == expected, label
        drawn += sum(got.values()) > 1
    assert drawn > 0  # some case had violators to repair


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


def _parent_run(x, z, config):
    """``run`` as it was before permutations were drawn in blocks and
    steps wrote into the trace: one ``random_permutation`` per iteration
    and a fresh array per step.  Kept verbatim as the byte oracle."""
    rng = make_rng(config.seed)
    # equalize_lengths validates and copies x, then z.
    x_eq, z_eq = equalize_lengths(x, z, config.equalize, rng)
    n = x_eq.size

    # The reference line is fitted to the equalized data before smoothing,
    # so d keeps one meaning across smoothing configurations.
    reference = None
    if n >= 2:
        try:
            reference = reference_normal_line(x_eq, z_eq, n)
        except (DegenerateReferenceError, InvalidInputError):
            # var(z) <= var(x), or a mean or variance overflows float64
            # (the only InvalidInputError on validated samples of n >= 2).
            reference = None

    sm = config.smoothing
    fresh = sm.active and sm.fresh_each_step
    eta_once = None
    if sm.active and not fresh:
        # One-shot noise is added at the unsorted equalized positions.
        x_eq, eta_once, z_eq = variations.smooth(x_eq, z_eq, sm, rng)

    sortx = np.sort(x_eq)
    sortz = np.sort(z_eq)
    _check_reach(sortx, sortz, eta_once, config.support)

    try:
        ys = np.empty((config.iters + 1, n))
    except (MemoryError, ValueError):  # ValueError: beyond the largest array size
        raise InvalidInputError(
            f"a trace of T + 1 = {config.iters + 1} iterates of n = {n} values "
            "does not fit in memory"
        ) from None
    violations = np.empty(config.iters + 1, dtype=np.int64)
    ys[0] = np.sort(sortz - sortx)
    violations[0] = config.support.violations(ys[0]).sum()

    pool_mode = config.pool.kind
    for t in range(1, config.iters + 1):
        if pool_mode is PoolingKind.CONCAT_AND_DRAW:
            pool = ys[:t].reshape(-1)
            oldy = np.sort(pool[rng.integers(0, pool.size, n)])
        else:
            oldy = ys[t - 1]

        rperm = random_permutation(n, rng)

        if fresh:
            x_eff, w_noise, z_eff = variations.smooth(sortx, sortz, sm, rng)
        else:
            x_eff, w_noise, z_eff = sortx, eta_once, sortz

        ys[t], violations[t] = step(
            x_eff,
            z_eff,
            oldy,
            rperm,
            rng,
            config.adjust,
            config.support,
            config.tie_rule,
            w_noise,
        )

    d = None
    if reference is not None:
        d = np.empty(config.iters + 1)
        rows = max(1, _D_CHUNK // n)
        for i in range(0, d.size, rows):
            d[i : i + rows] = distance_index(ys[i : i + rows], reference)
    trace = IterationTrace(
        config=config,
        sortx=sortx,
        sortz=sortz,
        ys=ys,
        d=d,
        violations=violations,
        reference=reference,
    )
    if pool_mode is PoolingKind.AVERAGE:
        trace.pooled = variations.pool_average(ys[1:], config.pool.burn_in)
    elif pool_mode in (PoolingKind.CONCAT, PoolingKind.CONCAT_AND_DRAW):
        trace.pooled = variations.pool_concat(ys[1:], config.pool.burn_in)
    return trace


def _run_or_error(run_fn, x, z, config):
    try:
        return run_fn(x, z, config)
    except InfeasibleAdjustmentError as exc:
        return str(exc)


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


_SMOOTHINGS = {
    "off": SmoothingSpec(),
    "one-shot": SmoothingSpec(0.1, 0.1, math.sqrt(0.02), fresh_each_step=False),
    "fresh": SmoothingSpec(0.1, 0.1, math.sqrt(0.02), fresh_each_step=True),
}


@pytest.mark.parametrize("policy", list(AdjustPolicy))
@pytest.mark.parametrize("n", [1, 3, 100, 1000])
def test_run_matches_the_per_step_draw_loop_byte_for_byte(n, policy):
    # At n = 1000 a block holds 65 permutations, so 150 iterations cross
    # two block boundaries.  z = x' + Exp(1) puts some z - x below 0, so
    # the bounded runs repair, and var(z) > var(x), so d is defined.
    g = np.random.default_rng(n)
    x = g.normal(0.0, 1.0, n)
    z = g.normal(0.0, 1.0, n) + g.exponential(1.0, n)
    supports = (UNBOUNDED, SupportConstraint(0.0, np.inf))
    for kind, tie_rule, smoothing, support in itertools.product(
        PoolingKind, TieRule, _SMOOTHINGS.values(), supports
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # bounded support under NONE
            config = DeconvConfig(
                iters=150,
                adjust=policy,
                support=support,
                smoothing=smoothing,
                pool=PoolingMode(kind, burn_in=10),
                seed=n + 7,
                tie_rule=tie_rule,
            )
        got = _run_or_error(run, x, z, config)
        want = _run_or_error(_parent_run, x, z, config)
        where = f"{kind.value}/{tie_rule.value}/{smoothing}/{support}"
        if isinstance(want, str):
            assert got == want, where
            continue
        assert _same_bits(got.ys, want.ys), where
        assert _same_bits(got.d, want.d), where
        assert _same_bits(got.violations, want.violations), where
        assert _same_bits(got.pooled, want.pooled), where


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1000, 65536, 200_000])
def test_blocked_permutations_equal_successive_draws(n):
    # NumPy's Generator.permuted shuffles each row with the draws
    # Generator.permutation makes, so a block of k rows equals k
    # successive calls and leaves the generator in the same state.  One
    # more permutation than a block holds makes the last block short.
    count = max(1, _D_CHUNK // n) + 1
    blocked_rng, single_rng = make_rng(n), make_rng(n)
    rows = list(_permutations(n, count, blocked_rng, blocked=True))
    singles = [random_permutation(n, single_rng) for _ in range(count)]
    assert len(rows) == count
    for row, single in zip(rows, singles):
        assert row.dtype == single.dtype
        assert np.array_equal(row, single)
        assert row.base.size <= max(n, _D_CHUNK)
    assert blocked_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("iters", [10**15, 10**17])
def test_run_rejects_a_trace_beyond_the_address_space(iters):
    # Both byte counts exceed any address space, so the allocation is
    # refused without touching memory: MemoryError at 8e17 bytes, NumPy's
    # "array is too big" at 8e19.
    x1, z0, _ = make_experiment("normal", 0)
    with pytest.raises(InvalidInputError, match=rf"T \+ 1 = {iters + 1} .* n = 100 "):
        run(x1, z0, DeconvConfig(iters=iters, seed=0))


def test_run_rejects_a_negative_seed():
    x1, z0, _ = make_experiment("normal", 0)
    with pytest.raises(ConfigError, match="seed"):
        run(x1, z0, DeconvConfig(seed=-1))


@pytest.mark.parametrize("target", [2**62, 10**19])
def test_run_rejects_a_bootstrap_beyond_the_address_space(target):
    x1, z0, _ = make_experiment("normal", 0)
    config = DeconvConfig(equalize=EqualizeStrategy.bootstrap(target))
    with pytest.raises(InvalidInputError, match="bootstrap sample"):
        run(x1, z0, config)


@pytest.mark.parametrize("policy", list(AdjustPolicy))
def test_fresh_smoothing_at_the_sd_bound_keeps_every_iterate_finite(policy):
    # Each sd is near sqrt(float max), so every per-step draw is far below
    # half an ulp of float max, and inputs that pass the reach check stay
    # finite with fresh noise added at every step.
    g = np.random.default_rng(12)
    x, z = g.uniform(-4e307, 4e307, (2, 50))
    sd = 9e153
    smoothing = SmoothingSpec(xi_sd=sd, eta_sd=sd, zeta_sd=math.hypot(sd, sd))
    support = UNBOUNDED if policy is AdjustPolicy.NONE else SupportConstraint(-1e307, 1e307)
    config = DeconvConfig(iters=200, adjust=policy, support=support, smoothing=smoothing)
    trace = run(x, z, config)
    assert np.all(np.isfinite(trace.ys))


# Inputs near 1e308 whose working vector w = sortx + y[rperm] overflows.
HUGE_X = [1e308, 1.2e308, 1.5e308]
HUGE_Z = [1.7e308, 1.75e308, 1.79e308]


@pytest.mark.parametrize("policy", list(AdjustPolicy))
def test_run_rejects_inputs_whose_working_vector_overflows(policy):
    # One check before the chain: every policy fails the same way, with
    # no NumPy warning on the way.
    support = UNBOUNDED if policy is AdjustPolicy.NONE else SupportConstraint(0.0, np.inf)
    config = DeconvConfig(iters=5, adjust=policy, support=support)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflow"):
            run(HUGE_X, HUGE_Z, config)


def test_run_rejects_a_support_bound_that_overflows_the_working_vector():
    # Every difference is below the bound, so clamp moves each iterate
    # value onto 1.7e308, and 1e307 + 1.7e308 overflows.
    support = SupportConstraint(1.7e308, np.inf)
    config = DeconvConfig(iters=5, adjust=AdjustPolicy.CLAMP, support=support)
    with pytest.raises(InvalidInputError, match="overflow"):
        run([0.0, 1e307], [0.0, 1.0], config)
    lower = DeconvConfig(
        iters=5, adjust=AdjustPolicy.CLAMP, support=SupportConstraint(1e300, np.inf)
    )
    assert np.all(run([0.0, 1e307], [0.0, 1.0], lower).ys[1:] == 1e300)


def test_run_treats_overflowing_moments_as_a_degenerate_reference():
    # Squared deviations near 1e310 overflow the variance, while w stays
    # finite; d is then undefined, without a NumPy warning.
    x = [0.0, 1e155, 2e155]
    z = [0.0, 2e155, 4e155]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(x, z, DeconvConfig(iters=5))
    assert trace.reference is None and trace.d is None
    assert np.all(np.isfinite(trace.ys))


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
    assert trace.ys.shape == (1, 100) and trace.violations.shape == (1,)
    assert np.array_equal(trace.ys, [naive_sorted_difference(x1, z0)])


def test_run_is_deterministic_given_the_seed():
    x1, z0, _ = make_experiment("normal", 2)
    config = DeconvConfig(iters=30, seed=2)
    a = run(x1, z0, config)
    b = run(x1, z0, config)
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.d, b.d) and np.array_equal(a.violations, b.violations)


def test_run_conserves_the_mean_without_adjustment_or_smoothing():
    x1, z0, _ = make_experiment("normal", 3)
    trace = run(x1, z0, DeconvConfig(iters=50, seed=3))
    target = trace.sortz.sum() - trace.sortx.sum()
    for y in trace.ys:
        assert y.sum() == pytest.approx(target, rel=1e-9)


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
    for y in trace.ys:
        assert tuple(y) in candidates


def test_run_reports_d_only_when_the_reference_exists():
    x1, z0, _ = make_experiment("normal", 4)
    trace = run(x1, z0, DeconvConfig(iters=5, seed=4))
    assert trace.reference is not None
    assert trace.d.shape == (6,) and np.all(trace.d >= 0)

    v = np.sort(make_rng(4).normal(size=50))
    degenerate = run(v, v, DeconvConfig(iters=5, seed=4))
    assert degenerate.reference is None
    assert degenerate.d is None
    assert degenerate.mean_distance() is None


def test_run_pool_average_matches_manual_mean():
    x1, z0, _ = make_experiment("normal", 5)
    config = DeconvConfig(
        iters=20, seed=5, pool=PoolingMode(PoolingKind.AVERAGE, burn_in=4)
    )
    trace = run(x1, z0, config)
    post = trace.ys[5:]  # iterations 5..20, beyond the burn-in of 4
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
    assert not np.array_equal(trace.ys[-1], plain.ys[-1])


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
        gaps.append(trace.ys[-1].sum() - target)
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
    assert np.all(trace.ys[1:] >= 0)
    assert np.any(trace.violations[1:] > 0)


def test_trace_mean_distance_uses_burn_in():
    x1, z0, _ = make_experiment("normal", 10)
    trace = run(x1, z0, DeconvConfig(iters=10, seed=10, pool=PoolingMode(burn_in=7)))
    manual = np.mean(trace.d[8:])  # iterations 8..10, beyond the burn-in of 7
    assert trace.mean_distance() == pytest.approx(manual)


def test_config_validation():
    with pytest.raises(ConfigError):
        DeconvConfig(iters=-1)
    with pytest.raises(ConfigError):
        DeconvConfig(iters=5, pool=PoolingMode(PoolingKind.AVERAGE, burn_in=5))
    with pytest.warns(UserWarning, match="bounded"):
        DeconvConfig(support=SupportConstraint(0.0, np.inf))


WRONG_TYPES = {
    "adjust": lambda: DeconvConfig(adjust="clamp", support=SupportConstraint(0.0, np.inf)),
    "tie_rule": lambda: DeconvConfig(tie_rule="random"),
    "pooling kind": lambda: DeconvConfig(pool=PoolingMode("average")),
    "pool": lambda: DeconvConfig(pool="average"),
    "equalize kind": lambda: DeconvConfig(equalize=EqualizeStrategy("tile")),
    "equalize": lambda: DeconvConfig(equalize="tile"),
    "bootstrap target": lambda: DeconvConfig(equalize=EqualizeStrategy.bootstrap(50.0)),
    "iters": lambda: DeconvConfig(iters=100.0),
    "pooling burn-in": lambda: DeconvConfig(pool=PoolingMode(PoolingKind.AVERAGE, 4.0)),
    "support": lambda: DeconvConfig(support=(0.0, np.inf), adjust=AdjustPolicy.ABSOLUTE),
    "smoothing": lambda: DeconvConfig(smoothing=0.1),
}


@pytest.mark.parametrize("field", list(WRONG_TYPES))
def test_config_rejects_a_field_of_the_wrong_type(field, monkeypatch):
    # The engine's unchecked layers would misread these: adjust="clamp"
    # falls through to copy-min, PoolingMode("average") pools nothing,
    # tie_rule="random" ranks by first occurrence, and a float count is a
    # bare TypeError.  The config must raise before run starts.
    started = []
    monkeypatch.setattr(engine, "make_rng", started.append)
    x1, z0, _ = make_experiment("normal", 0)
    with pytest.raises(ConfigError, match=f"^{field} must be of type "):
        run(x1, z0, WRONG_TYPES[field]())
    assert started == []


def test_config_takes_numpy_integers():
    pool = PoolingMode(PoolingKind.AVERAGE, burn_in=np.int64(3))
    config = DeconvConfig(iters=np.int64(6), pool=pool, seed=0)
    reference = DeconvConfig(iters=6, pool=PoolingMode(PoolingKind.AVERAGE, burn_in=3), seed=0)
    x1, z0, _ = make_experiment("normal", 0)
    assert np.array_equal(run(x1, z0, config).pooled, run(x1, z0, reference).pooled)


def test_bounded_support_with_none_policy_counts_but_keeps_values():
    x1, z0, _ = make_experiment("exponential", 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = DeconvConfig(
            iters=30, seed=12, support=SupportConstraint(0.0, np.inf)
        )
    trace = run(x1, z0, config)
    assert np.any(trace.violations[1:] > 0)
    assert np.any(trace.ys[1:] < 0)


# Edge inputs: one point, all-equal samples, the random tie rule on
# lattice data, and mean conservation at large magnitude.

tie_rules = st.sampled_from(list(TieRule))
moderate = st.floats(min_value=-1e6, max_value=1e6)


@given(moderate, moderate, tie_rules)
def test_run_on_one_point_repairs_z_minus_x_every_step(x, z, tie_rule):
    support = SupportConstraint(0.0, np.inf)
    diff = z - x
    for policy, value in (
        (AdjustPolicy.CLAMP, max(diff, 0.0)),
        (AdjustPolicy.ABSOLUTE, abs(diff)),
    ):
        config = DeconvConfig(iters=4, adjust=policy, support=support, tie_rule=tie_rule)
        trace = run([x], [z], config)
        assert trace.ys[0, 0] == diff and trace.d is None
        assert np.all(trace.ys[1:] == value)
        assert np.all(trace.violations == int(diff < 0))
    trace = run([x], [z], DeconvConfig(iters=4, tie_rule=tie_rule))
    assert np.all(trace.ys == diff) and np.all(trace.violations == 0)


@given(moderate, moderate, st.integers(1, 40), tie_rules)
@example(0.0, 699051.1884435809, 3, TieRule.FIRST_OCCURRENCE)  # np.var gives 2e-20
def test_run_on_all_equal_inputs_never_moves(c, k, n, tie_rule):
    trace = run([c] * n, [k] * n, DeconvConfig(iters=6, tie_rule=tie_rule))
    assert np.all(trace.ys == k - c)
    assert trace.d is None


lattice_pairs = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
)


@given(lattice_pairs, st.integers(0, 2**32 - 1))
def test_random_tie_rule_on_lattice_data_walks_on_permuted_differences(pair, seed):
    # Small integers tie in w at almost every step.
    x, z = (np.array(v, dtype=float) for v in pair)
    candidates = {
        tuple(np.sort(np.sort(z)[list(perm)] - np.sort(x)))
        for perm in itertools.permutations(range(x.size))
    }
    config = DeconvConfig(iters=25, seed=seed, tie_rule=TieRule.RANDOM)
    trace = run(x, z, config)
    assert all(tuple(y) in candidates for y in trace.ys)
    assert np.array_equal(run(x, z, config).ys, trace.ys)


near_1e12 = st.sampled_from([1e12, -1e12, 3e12]).flatmap(
    lambda base: st.lists(
        st.floats(min_value=-1e6, max_value=1e6).map(lambda v: base + v),
        min_size=1,
        max_size=30,
    )
)


@given(near_1e12, near_1e12, st.integers(0, 2**32 - 1))
def test_run_conserves_the_mean_near_1e12_within_half_an_ulp(x, z, seed):
    # Each iterate value is a rounded sortz[j] - sortx[k], off by at most
    # half an ulp of itself, so the exact mean of an iterate is within
    # half an ulp of its largest |value| of mean(z) - mean(x).  An
    # absolute bound would not scale: one ulp at 1e12 is 1.2e-4.
    n = min(len(x), len(z))
    x, z = x[:n], z[:n]
    target = (sum(map(Fraction, z)) - sum(map(Fraction, x))) / n
    trace = run(x, z, DeconvConfig(iters=20, seed=seed))
    for y in trace.ys:
        drift = abs(sum(map(Fraction, y.tolist())) / n - target)
        assert drift <= Fraction(np.spacing(np.abs(y).max())) / 2
