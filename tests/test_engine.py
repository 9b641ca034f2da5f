"""The core iteration, the naive baselines, and the run driver."""

import dataclasses
import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from conftest import every_draw, parent_repair, ranks
from deconvsim import engine
from deconvsim.cli import main
from deconvsim.core import _repair, _uniform_indices
from deconvsim.engine import (
    _D_CHUNK,
    IterationTrace,
    _check_reach,
    _permutations,
    _pool_picks,
    equalize_lengths,
    naive_random_difference,
    naive_sorted_difference,
    step,
)
from deconvsim.errors import (
    ConfigError,
    DeconvError,
    DegenerateReferenceError,
    InfeasibleAdjustmentError,
    InvalidInputError,
)
from deconvsim.metrics import distance_index, reference_normal_line

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
        y, _ = step(sortx, sortz, y, rng.permutation(1), rng)
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
# the functions its checked wrappers called, or under RESAMPLE with the
# position-order oracle `conftest.parent_repair`): `step` must reproduce
# it byte for byte, violation count and rng state included.
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
    if policy is AdjustPolicy.RESAMPLE:
        violations = parent_repair(adjusted, policy, support, rng)
    else:
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


# RESAMPLE lists its in-support donors in ascending order, the rank form
# in x order, so one draw may pick another donor.  The two forms still draw
# the same integers from the same multiset: the violation count and the
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


def _law_over_every_draw(form, args, kwargs):
    """Counter of the sorted outputs of ``form`` over every donor draw."""
    outputs = Counter()
    with every_draw() as draw:
        while sum(outputs.values()) < draw.total:
            y, _ = form(*args, draw, **kwargs)
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
    per_row = np.array([np.abs(y - trace.reference).sum() for y in trace.ys])
    assert np.array_equal(trace.d.view(np.int64), per_row.view(np.int64))


def _parent_run(x, z, config):
    """``run`` as a loop of one draw per iteration from each stream: one
    ``rng.permutation(n)`` from the run's generator, the pool draw
    ``_uniform_indices(picks, t * n, n)`` from its second child, and fresh
    smoothing and the step's draws from its first child, with a fresh
    array per step.  The byte oracle of the blocked draws."""
    rng = make_rng(config.seed)
    draws = rng.spawn(1)[0]
    # equalize_lengths validates and copies x, then z.
    x_eq, z_eq = equalize_lengths(x, z, config.equalize, rng)
    n = x_eq.size

    # The reference line is fitted to the equalized data before smoothing,
    # so d keeps one meaning across smoothing configurations.
    reference = None
    if n >= 2:
        try:
            reference = reference_normal_line(x_eq, z_eq)
        except (DegenerateReferenceError, InvalidInputError):
            # var(z) <= var(x), or a mean or variance overflows float64
            # (the only InvalidInputError on validated samples of n >= 2).
            reference = None

    sm = config.smoothing
    fresh = sm.active and sm.fresh_each_step
    eta_once = None
    if sm.active and not fresh:
        # One-shot noise is added at the unsorted equalized positions.
        x_eq, eta_once, z_eq = engine.smooth(x_eq, z_eq, sm, rng)

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
    if pool_mode is PoolingKind.CONCAT_AND_DRAW:
        picks = rng.spawn(1)[0]
    for t in range(1, config.iters + 1):
        if pool_mode is PoolingKind.CONCAT_AND_DRAW:
            pool = ys[:t].reshape(-1)
            oldy = np.sort(pool[_uniform_indices(picks, pool.size, n)])
        else:
            oldy = ys[t - 1]

        rperm = rng.permutation(n)

        if fresh:
            x_eff, w_noise, z_eff = engine.smooth(sortx, sortz, sm, draws)
        else:
            x_eff, w_noise, z_eff = sortx, eta_once, sortz

        ys[t], violations[t] = step(
            x_eff,
            z_eff,
            oldy,
            rperm,
            draws,
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
    pooled = None
    if pool_mode is PoolingKind.AVERAGE:
        pooled = np.mean(ys[1:][config.pool.burn_in :], axis=0)
    elif pool_mode in (PoolingKind.CONCAT, PoolingKind.CONCAT_AND_DRAW):
        pooled = ys[1:][config.pool.burn_in :].flatten()
    return IterationTrace(
        config=config,
        sortx=sortx,
        sortz=sortz,
        ys=ys,
        d=d,
        violations=violations,
        reference=reference,
        pooled=pooled,
    )


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


# Every policy under every pooling kind with first-occurrence ties and
# no smoothing, then one random-tie and one fresh-smoothing case.
_LONG_ROW_CASES = [
    (policy, kind, TieRule.FIRST_OCCURRENCE, "off")
    for policy, kind in itertools.product(AdjustPolicy, PoolingKind)
] + [
    (AdjustPolicy.RESAMPLE, PoolingKind.AVERAGE, TieRule.RANDOM, "off"),
    (AdjustPolicy.ABSOLUTE, PoolingKind.CONCAT_AND_DRAW, TieRule.FIRST_OCCURRENCE, "fresh"),
]


def _matches_the_per_step_draw_loop(case, n, iters):
    # z = x' + Exp(1) as above.
    policy, kind, tie_rule, smoothing = _LONG_ROW_CASES[case]
    g = np.random.default_rng(n)
    x = g.normal(0.0, 1.0, n)
    z = g.normal(0.0, 1.0, n) + g.exponential(1.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bounded support under NONE
        config = DeconvConfig(
            iters=iters,
            adjust=policy,
            support=SupportConstraint(0.0, np.inf),
            smoothing=_SMOOTHINGS[smoothing],
            pool=PoolingMode(kind, burn_in=2),
            seed=case,
            tie_rule=tie_rule,
        )
    got = _run_or_error(run, x, z, config)
    want = _run_or_error(_parent_run, x, z, config)
    if isinstance(want, str):
        assert got == want
        return
    assert _same_bits(got.ys, want.ys)
    assert _same_bits(got.d, want.d)
    assert _same_bits(got.violations, want.violations)
    assert _same_bits(got.pooled, want.pooled)


_CASE_IDS = [f"{p.value}-{k.value}-{t.value}-{s}" for p, k, t, s in _LONG_ROW_CASES]


@pytest.mark.parametrize("case", range(len(_LONG_ROW_CASES)), ids=_CASE_IDS)
def test_run_with_permutations_drawn_ahead_matches_the_per_step_draw_loop(case):
    # At n = 40 000 > 2**15 a block is one permutation, drawn when its step
    # needs it; T runs over 4, 5 and 6.
    _matches_the_per_step_draw_loop(case, 40_000, 4 + case % 3)


@pytest.mark.parametrize("n", [2_000, 10_000])
@pytest.mark.parametrize("case", range(len(_LONG_ROW_CASES)), ids=_CASE_IDS)
def test_run_with_blocks_drawn_ahead_matches_the_per_step_draw_loop(case, n):
    # A block holds 32 rows at n = 2 000 and 6 at n = 10 000, drawn ahead
    # of the steps that use them; T spans two full blocks and a short one.
    rows = _D_CHUNK // n
    _matches_the_per_step_draw_loop(case, n, 2 * rows + 1 + case % 3)


def test_a_long_row_run_raises_when_copy_min_has_no_donor():
    # Every z - x is negative, so copy-min on [0, inf) has no donor and
    # the first step raises.  The exception, held by pytest, keeps the
    # run's frames alive.
    n = 2**15 + 1
    x = np.random.default_rng(3).normal(0.0, 1.0, n)
    config = DeconvConfig(
        iters=10,
        adjust=AdjustPolicy.COPY_SMALLEST,
        support=SupportConstraint(0.0, np.inf),
    )
    with pytest.raises(InfeasibleAdjustmentError) as info:
        run(x, x - 100.0, config)
    assert info.traceback  # still held here


def test_no_run_starts_a_thread(tmp_path, capsys, started_threads):
    # The permutations are drawn on the calling thread at every n: in
    # blocks of many rows, of a few rows and of one row (above 2**15).
    for n in (100, 1024, 10_000, 2**15 + 1):
        x = np.random.default_rng(n).normal(0.0, 1.0, n)
        trace = run(x, 2.0 * x, DeconvConfig(iters=3, pool=PoolingMode(PoolingKind.AVERAGE, 1)))
        assert trace.ys.shape == (4, n)
    # A CLI chain that fails at its first step, with the trace file open:
    # every z - x is negative, so copy-min on [0, inf) has no donor.
    paths = []
    for name, values in (("x", range(10_000, 12_000)), ("z", range(2_000))):
        paths.append(str(tmp_path / f"{name}.txt"))
        with open(paths[-1], "w") as fh:
            fh.write("".join(f"{v}\n" for v in values))
    argv = ["run", "--x", paths[0], "--z", paths[1], "--out", str(tmp_path / "t.csv")]
    assert main(argv + ["--adjust", "copy-min", "--support", "0:inf"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert started_threads == []


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1000, 1024, 10_000, 2**15, 65536, 200_000])
def test_blocked_permutations_equal_successive_draws(n):
    # NumPy's Generator.permuted shuffles each row with the draws
    # Generator.permutation makes, so a block of k rows equals k
    # successive calls and leaves the generator in the same state.  One
    # more permutation than a block holds makes the last block short.
    # Above 2**15 a block is one row.
    count = max(1, _D_CHUNK // n) + 1
    blocked_rng, single_rng = make_rng(n), make_rng(n)
    rows = list(_permutations(n, count, blocked_rng))
    singles = [single_rng.permutation(n) for _ in range(count)]
    assert len(rows) == count
    for row, single in zip(rows, singles):
        assert row.dtype == single.dtype
        assert np.array_equal(row, single)
        assert (row if row.base is None else row.base).size <= max(n, _D_CHUNK)
    assert blocked_rng.bit_generator.state == single_rng.bit_generator.state


def _closed_early(started, n, count, taken, drawn):
    """Take ``taken`` of ``count`` rows of n and close the source: rng is
    then in the state of ``drawn`` permutation calls, and no thread
    started (``started``: the threads' names)."""
    rng, twin = make_rng(n), make_rng(n)
    rows = _permutations(n, count, rng)
    for _ in range(taken):
        assert np.array_equal(next(rows), twin.permutation(n))
    if count == 0:
        assert next(rows, None) is None
    rows.close()
    for _ in range(drawn - taken):
        twin.permutation(n)  # the rest of the last block handed over
    assert rng.bit_generator.state == twin.bit_generator.state
    assert started == []


@pytest.mark.parametrize("count, taken", [(0, 0), (10, 1), (10, 2), (10, 5)])
def test_long_rows_closed_early_leave_only_the_rows_handed_over_drawn(
    started_threads, count, taken
):
    # Above 2**15 values a block is one row, drawn when it is asked for:
    # a source closed after k rows leaves rng as k permutation calls do.
    _closed_early(started_threads, 2**15 + 1, count, taken, taken)


@pytest.mark.parametrize("count, taken", [(0, 0), (20, 1), (20, 6), (20, 7), (20, 13)])
def test_blocks_closed_early_leave_every_block_handed_over_drawn(started_threads, count, taken):
    # At n = 10 000 a block holds 6 rows (the last of 20 holds 2), drawn
    # when its first row is asked for: a source closed after k rows leaves
    # rng as the rows of every block handed over do, capped at count.
    rows = _D_CHUNK // 10_000
    assert rows == 6
    _closed_early(started_threads, 10_000, count, taken, min(count, -(-taken // rows) * rows))


def test_spawn_leaves_the_parent_stream_unchanged():
    # run spawns its children before it draws from its generator.
    rng, twin = make_rng(5), make_rng(5)
    state = rng.bit_generator.state
    rng.spawn(1)
    assert rng.bit_generator.state == state
    assert np.array_equal(rng.permutation(100), twin.permutation(100))


@pytest.mark.parametrize("n", [1, 3, 100, 1000])
def test_blocked_pool_picks_equal_successive_draws(n):
    # Generator.random fills a block in row order, one draw per element,
    # and a column of bounds scales each row by its own, so a block of k
    # rows equals k successive _uniform_indices calls and leaves the
    # generator in the same state.  The last block is short.
    count = max(1, _D_CHUNK // n) + 1
    blocked_rng, single_rng = make_rng(n), make_rng(n)
    rows = list(_pool_picks(n, count, blocked_rng))
    singles = [_uniform_indices(single_rng, t * n, n) for t in range(1, count + 1)]
    assert len(rows) == count
    for row, single in zip(rows, singles):
        assert row.dtype == single.dtype
        assert np.array_equal(row, single)
        assert row.base.size <= max(n, _D_CHUNK)
    assert blocked_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("policy", list(AdjustPolicy))
def test_run_takes_a_bound_beyond_float_range_as_infinite(policy):
    g = np.random.default_rng(3)
    x = g.normal(0.0, 1.0, 100)
    z = g.normal(0.0, 1.0, 100) + g.exponential(1.0, 100) - 0.5
    pairs = [((0, 10**400), (0.0, math.inf)), ((-(10**400), 0.5), (-math.inf, 0.5))]
    for huge, infinite in pairs:
        traces = []
        for bounds in (huge, infinite):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # bounded support under NONE
                config = DeconvConfig(
                    iters=50, adjust=policy, support=SupportConstraint(*bounds), seed=9
                )
            traces.append(_run_or_error(run, x, z, config))
        got, want = traces
        if isinstance(want, str):
            assert got == want, huge
            continue
        assert _same_bits(got.ys, want.ys) and _same_bits(got.d, want.d), huge
        assert _same_bits(got.violations, want.violations), huge


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


def test_run_rejects_a_pooled_average_that_overflows():
    # The working vector stays finite, but the sum of the 96 kept iterates,
    # each value near 4e307, does not.  The error names the cause, and no
    # NumPy warning escapes.
    x, z = [0.0, 1.0, 2.0], [3e307, 4e307, 5e307]
    average = PoolingMode(PoolingKind.AVERAGE, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="pooled average .* overflows float64"):
            run(x, z, DeconvConfig(iters=100, pool=average))
        # Three kept iterates still sum to a finite value.
        pooled = run(x, z, DeconvConfig(iters=7, pool=average)).pooled
    assert np.all(np.isfinite(pooled))


def test_run_treats_overflowing_moments_as_a_degenerate_reference():
    # Squared deviations near 1e310 overflow the variance, while w stays
    # finite; d is then undefined, without a NumPy warning.
    x = [0.0, 1e155, 2e155]
    z = [0.0, 2e155, 4e155]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(x, z, DeconvConfig(iters=5))
    assert trace.reference is None and trace.d is None
    assert type(trace.reference_error) is InvalidInputError
    assert trace.reference_error.__traceback__ is None
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


def test_trace_is_frozen_and_compares_by_identity():
    a = run([0, 1, 2], [0, 2, 5], DeconvConfig(iters=2))
    b = run([0, 1, 2], [0, 2, 5], DeconvConfig(iters=2))
    assert a == a and a != b  # no elementwise array comparison
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.pooled = a.ys[-1]
    a.ys[-1, 0] = -1.0  # the arrays stay writable
    assert a.ys[-1, 0] == -1.0


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
    assert trace.reference is not None and trace.reference_error is None
    assert trace.d.shape == (6,) and np.all(trace.d >= 0)

    v = np.sort(make_rng(4).normal(size=50))
    degenerate = run(v, v, DeconvConfig(iters=5, seed=4))
    assert degenerate.reference is None
    assert isinstance(degenerate.reference_error, DegenerateReferenceError)
    assert degenerate.d is None
    assert degenerate.mean_distance() is None

    single = run([1.0], [2.0], DeconvConfig(iters=5, seed=4))
    assert single.reference is None and single.reference_error is None


def test_run_pool_average_matches_manual_mean():
    x1, z0, _ = make_experiment("normal", 5)
    for burn_in in (4, 19):
        config = DeconvConfig(
            iters=20, seed=5, pool=PoolingMode(PoolingKind.AVERAGE, burn_in=burn_in)
        )
        trace = run(x1, z0, config)
        post = trace.ys[burn_in + 1 :]  # the iterations beyond the burn-in
        assert np.array_equal(trace.pooled, np.mean(post, axis=0))
        assert np.all(np.diff(trace.pooled) >= 0)
    # burn_in = 19 of 20 leaves one iterate, which pools to itself bit for bit.
    assert _same_bits(trace.pooled, trace.ys[20])


def test_run_pool_concat_length():
    x1, z0, _ = make_experiment("normal", 6)
    config = DeconvConfig(
        iters=20, seed=6, pool=PoolingMode(PoolingKind.CONCAT, burn_in=4)
    )
    trace = run(x1, z0, config)
    assert trace.pooled.size == (20 - 4) * 100
    assert _same_bits(trace.pooled, trace.ys[5:].reshape(-1))
    assert not np.shares_memory(trace.pooled, trace.ys)  # a copy, not a view


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


# Values that have broken edge handling before: signed zeros,
# subnormals, the smallest normal and the largest magnitudes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -2.5, 1e308, -1e308]


def _edge_sample(size):
    """Samples of size values: all equal, or each an edge float or a
    moderate one."""
    one = st.sampled_from(_EDGE_FLOATS) | moderate
    return one.map(lambda v: [v] * size) | st.lists(one, min_size=size, max_size=size)


_SUPPORTS = [SupportConstraint(0.0, np.inf), SupportConstraint(-1.0, 1.0), SupportConstraint(-np.inf, 0.0)]


@settings(max_examples=300)
@given(
    st.sampled_from([1, 2, 3, 7]).flatmap(_edge_sample),
    st.sampled_from([1, 2, 3, 7]).flatmap(_edge_sample),
    st.sampled_from(list(AdjustPolicy)),
    st.sampled_from(_SUPPORTS),
    st.sampled_from(list(PoolingKind)),
    tie_rules,
    st.booleans(),
)
def test_run_on_edge_inputs_returns_rows_of_n_values_or_raises_a_deconv_error(
    x, z, policy, support, kind, tie_rule, subsample
):
    # x has m values and z has n, equal or not; the equalized length is
    # the larger under tile and the smaller under subsample.
    equalize = EqualizeStrategy.subsample() if subsample else EqualizeStrategy.tile()
    config = DeconvConfig(
        iters=3,
        adjust=policy,
        support=UNBOUNDED if policy is AdjustPolicy.NONE else support,
        equalize=equalize,
        pool=PoolingMode(kind, burn_in=1),
        tie_rule=tie_rule,
    )
    try:
        trace = run(x, z, config)
    except DeconvError:
        return
    n = min(len(x), len(z)) if subsample else max(len(x), len(z))
    assert trace.ys.shape == (4, n)
    assert np.isfinite(trace.ys).all()


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


@pytest.mark.parametrize("sd", [0.1, math.sqrt(0.02), 1.0, 3e-5])
def test_normal_draws_scale_exactly_with_their_sd(sd):
    # Generator.normal(0, sd) is 0.0 + sd * (a standard normal draw), and
    # 2**k * sd is exact, so scaling sd by 2**k scales every draw by 2**k
    # byte for byte: the smoothing noise obeys the 2**k law of a run.
    for k in (-3, 5):
        scaled = make_rng(k + 10).normal(0.0, math.ldexp(sd, k), 10_000)
        base = make_rng(k + 10).normal(0.0, sd, 10_000)
        assert scaled.tobytes() == np.ldexp(base, k).tobytes(), k


@pytest.mark.parametrize("n", [100, 3000])
@pytest.mark.parametrize("policy", list(AdjustPolicy))
@pytest.mark.parametrize("tie_rule", list(TieRule))
@pytest.mark.parametrize(
    "pool", [PoolingKind.NONE, PoolingKind.AVERAGE, PoolingKind.CONCAT_AND_DRAW]
)
@pytest.mark.parametrize("smoothing", list(_SMOOTHINGS))
def test_run_scales_exactly_by_a_power_of_two(n, policy, tie_rule, pool, smoothing):
    # A run adds, subtracts, compares, reflects at a bound, copies and
    # averages, and each rounding commutes with scaling by 2**k while no
    # value overflows or turns subnormal; its smoothing noise scales with
    # its sds (above).  So scaling x, z, the support bounds and every sd by
    # 2**k scales ys and pooled byte for byte and keeps every violation
    # count, at n = 3000 on the packed-key sort.
    rng = np.random.default_rng(n)
    i = np.arange(n)
    samples = {
        "continuous": (rng.normal(0.0, 1.0, n), rng.normal(2.0, 1.5, n)),
        "lattice": ((i % 3).astype(float), (i % 3 + i * 7 % 4).astype(float)),
    }
    for name, (x, z) in samples.items():
        traces = {}
        for k in (0, -3, 5):
            support = UNBOUNDED
            if policy is not AdjustPolicy.NONE:
                support = SupportConstraint(math.ldexp(-0.5, k), math.ldexp(4.0, k))
            sm = _SMOOTHINGS[smoothing]
            scaled_sm = dataclasses.replace(
                sm, **{f: math.ldexp(getattr(sm, f), k) for f in ("xi_sd", "eta_sd", "zeta_sd")}
            )
            config = DeconvConfig(
                iters=10, adjust=policy, support=support, tie_rule=tie_rule,
                pool=PoolingMode(pool), smoothing=scaled_sm, seed=5,
            )
            traces[k] = run(np.ldexp(x, k), np.ldexp(z, k), config)
        base = traces[0]
        for k in (-3, 5):
            trace = traces[k]
            assert trace.ys.tobytes() == np.ldexp(base.ys, k).tobytes(), (name, k)
            assert np.array_equal(trace.violations, base.violations), (name, k)
            if pool is PoolingKind.NONE:
                assert trace.pooled is None and base.pooled is None
            else:
                assert trace.pooled.tobytes() == np.ldexp(base.pooled, k).tobytes(), (name, k)


@pytest.mark.parametrize("n", [5, 100, 2000])
def test_run_is_invariant_under_reordering_the_samples(n):
    # With m = n, tile equalizes without a draw and the chain sees only
    # sort(x) and sort(z); fresh smoothing perturbs those sorted vectors.
    # So shuffling x and z leaves ys, the violations and pooled byte for
    # byte.  d may move in its last bits: the reference line's moments are
    # summed in input order.
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1.0, n)
    z = rng.normal(0.0, 2.0, n) + rng.exponential(1.0, n)
    x_shuffled, z_shuffled = rng.permutation(x), rng.permutation(z)
    for policy, kind, tie_rule, smoothing in itertools.product(
        AdjustPolicy, PoolingKind, TieRule, ("off", "fresh")
    ):
        support = UNBOUNDED
        if policy is not AdjustPolicy.NONE:
            support = SupportConstraint(0.0, math.inf)
        config = DeconvConfig(
            iters=6, adjust=policy, support=support, tie_rule=tie_rule,
            pool=PoolingMode(kind, burn_in=2), smoothing=_SMOOTHINGS[smoothing], seed=n,
        )
        case = (policy, kind, tie_rule, smoothing)
        base, shuffled = run(x, z, config), run(x_shuffled, z_shuffled, config)
        assert shuffled.ys.tobytes() == base.ys.tobytes(), case
        assert shuffled.violations.tobytes() == base.violations.tobytes(), case
        if kind is PoolingKind.NONE:
            assert shuffled.pooled is None and base.pooled is None
        else:
            assert shuffled.pooled.tobytes() == base.pooled.tobytes(), case
        assert np.allclose(shuffled.d, base.d, rtol=1e-12, atol=0.0), case
