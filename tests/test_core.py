"""Vector primitives: sample validation, sort orders, the rng family."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from conftest import ranks
from deconvsim import TieRule, make_rng
from deconvsim.core import _sort_order, _uniform_indices, as_sample
from deconvsim.errors import ConfigError, InvalidInputError

finite_vectors = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    min_size=1,
    max_size=30,
)

# Small integer pools force ties often.
tied_vectors = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=30)


@pytest.mark.parametrize("bad", [[], [np.nan], [1.0, np.inf]])
def test_as_sample_rejects_bad_input(bad):
    with pytest.raises(InvalidInputError):
        as_sample(bad)


def test_ranks_basic_example():
    assert np.array_equal(ranks([2, 6, 3, 4]), [0, 3, 1, 2])


def test_ranks_tie_goes_to_first_occurrence():
    assert np.array_equal(ranks([7, 7]), [0, 1])


def test_ranks_descending_input():
    assert np.array_equal(ranks([3, 1, 2]), [2, 0, 1])


def test_ranks_all_equal_is_still_a_permutation():
    r = ranks([5.0] * 8)
    assert sorted(r) == list(range(8))


def test_ranks_random_tie_rule_hits_both_orders():
    rng = make_rng(5)
    seen = {tuple(ranks([7, 7], TieRule.RANDOM, rng)) for _ in range(64)}
    assert seen == {(0, 1), (1, 0)}


def test_ranks_random_tie_rule_respects_strict_order():
    rng = make_rng(5)
    for _ in range(20):
        assert np.array_equal(ranks([4, 9, 1], TieRule.RANDOM, rng), [1, 2, 0])


@given(finite_vectors)
def test_sort_rank_identity_without_forced_ties(v):
    v = np.asarray(v)
    assert np.array_equal(np.sort(v)[ranks(v)], v)


@given(tied_vectors)
def test_sort_rank_identity_with_ties(v):
    v = np.asarray(v, dtype=np.float64)
    assert np.array_equal(np.sort(v)[ranks(v)], v)


@pytest.mark.parametrize("n", [1023, 1024, 10_000])
def test_ranks_of_tied_values_match_a_stable_sort(n):
    # Integer values with many ties, on both sides of the length at which
    # _sort_order switches from the stable argsort to packed int64 keys.
    v = make_rng(n).integers(0, 50, size=n).astype(np.float64)
    expected = np.empty(n, dtype=np.intp)
    expected[np.argsort(v, kind="stable")] = np.arange(n)
    assert np.array_equal(ranks(v), expected)
    # The default argsort alone would order these ties differently.
    assert not np.array_equal(np.argsort(v), np.argsort(v, kind="stable"))


def _near_duplicate_pairs(rng, n, share):
    # A share of the values gets a partner 1e-15 above it: a few ulps apart,
    # so both land in one key group with different values.
    v = rng.normal(size=n)
    k = int(n * share) // 2
    i = rng.choice(n, 2 * k, replace=False)
    v[i[k:]] = v[i[:k]] + 1e-15
    return v


def _ulp_runs(rng, n):
    # Runs of 16 neighbouring floats in random index order: key groups that
    # merge many different values, not just pairs.
    v = np.empty((n // 16 + 1, 16))
    v[:, 0] = rng.normal(size=v.shape[0])
    for j in range(1, 16):
        v[:, j] = np.nextafter(v[:, j - 1], np.inf)
    v = v.reshape(-1)[:n]
    rng.shuffle(v)
    return v


SORT_ORDER_INPUTS = {
    "continuous": lambda rng, n: rng.normal(size=n),
    "lattice": lambda rng, n: (rng.poisson(3, n) + rng.poisson(2, n)).astype(np.float64),
    "signed zeros and ones": lambda rng, n: rng.choice([0.0, -0.0, 1.0, -1.0], n),
    "signed zeros, tiniest and ones": lambda rng, n: rng.choice(
        [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0], n
    ),
    "times 1e-300": lambda rng, n: rng.normal(size=n) * 1e-300,
    "times 1e300": lambda rng, n: rng.normal(size=n) * 1e300,
    "one decimal": lambda rng, n: np.round(rng.normal(size=n), 1),
    "a few near-duplicate pairs": lambda rng, n: _near_duplicate_pairs(rng, n, 0.02),
    "near-duplicate pairs only": lambda rng, n: _near_duplicate_pairs(rng, n, 1.0),
    "runs of neighbouring floats": _ulp_runs,
}


@pytest.mark.parametrize("n", [1024, 1025, 2048, 2049, 10_000, 200_000])
@pytest.mark.parametrize("kind", sorted(SORT_ORDER_INPUTS))
def test_sort_order_is_the_stable_argsort(kind, n):
    # 1024 is the cut-over to packed keys; at 1025 and 2049 the index takes
    # one more bit of the key.  The engine's rank-form oracle and the
    # conftest ranks helper call _sort_order themselves, so only these
    # tests compare it with the stable sort.
    v = SORT_ORDER_INPUTS[kind](np.random.default_rng(n), n)
    order = _sort_order(v, TieRule.FIRST_OCCURRENCE, None)
    assert np.array_equal(order, np.argsort(v, kind="stable"))


@pytest.mark.parametrize("size", [2, 16])
@pytest.mark.parametrize("share", [0.01, 1.0])
def test_sort_order_with_key_groups_of_2_and_16(share, size):
    # A share of the values falls in key groups of exactly size values
    # each (with ties inside a group), the rest in groups of their own.
    n = 200_000
    b = (n - 1).bit_length()
    rng = np.random.default_rng(size)
    v = rng.normal(size=n)
    groups = int(n * share) // size
    high = rng.normal(size=groups).view(np.int64) & ~((1 << b) - 1)
    grouped = high[:, None] | rng.integers(0, 8, (groups, size))
    v[: groups * size] = grouped.reshape(-1).view(np.float64)
    rng.shuffle(v)
    _, sizes = np.unique(v.view(np.int64) >> b, return_counts=True)
    assert np.count_nonzero(sizes == size) == groups
    order = _sort_order(v, TieRule.FIRST_OCCURRENCE, None)
    assert np.array_equal(order, np.argsort(v, kind="stable"))


RANDOM_TIE_INPUTS = {
    "continuous": lambda rng, n: rng.normal(size=n),
    "lattice": lambda rng, n: (rng.poisson(3, n) + rng.poisson(2, n)).astype(np.float64),
    "signed zeros": lambda rng, n: rng.choice([0.0, -0.0], n),
    "all equal": lambda rng, n: np.full(n, 2.5),
    "near-duplicate pairs": lambda rng, n: _near_duplicate_pairs(rng, n, 1.0),
}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1023, 1024, 1025, 5000, 100_000])
def test_random_tie_rule_is_the_lexsort_by_value_then_key(n):
    # The random tie rule ranks its keys, then the values in key order, on
    # the FIRST_OCCURRENCE kernel.  Its oracle is the lexsort it replaced,
    # kept verbatim: the same order from the same one rng.random(n) draw,
    # leaving the generator in the same state.  Near-duplicate pairs (1e-15
    # apart) share a key group from n = 1024 on, so the fallback sort runs.
    for kind, make in RANDOM_TIE_INPUTS.items():
        v = make(np.random.default_rng(n), n)
        for seed in range(3):
            rng, oracle = make_rng(seed), make_rng(seed)
            order = _sort_order(v, TieRule.RANDOM, rng)
            assert np.array_equal(order, np.lexsort((oracle.random(v.size), v))), kind
            assert rng.bit_generator.state == oracle.bit_generator.state, kind


@pytest.mark.parametrize("n", [4, 2000])
def test_random_tie_rule_orders_three_tied_values_uniformly(n):
    # Three tied values among distinct ones; from n = 1024 on the key and
    # value sorts take the packed-key path.  Each of the 6 orders of the
    # tied indices must come up equally often.
    tied = [0, n // 2, n - 1]
    v = np.arange(n, dtype=np.float64)
    v[tied] = v[n // 2]
    index = {order: i for i, order in enumerate(itertools.permutations(tied))}
    rng = make_rng(0)
    counts = np.zeros(len(index), dtype=np.int64)
    for _ in range(6000):
        order = _sort_order(v, TieRule.RANDOM, rng)
        counts[index[tuple(order[np.isin(order, tied)])]] += 1
    assert scipy.stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize(
    "kind, bound",
    [
        ("continuous", 2.25),
        ("lattice", 3.1),
        ("a few near-duplicate pairs", 4.01),
    ],
)
def test_sort_order_peak_memory(kind, bound):
    # Peak in n-vectors of 8 bytes: the order, the key and a boolean mask,
    # with no second sort on lattice data.  Where key groups merged
    # different values, the peak is that of one stable sort of every
    # gathered value (4.0003 n-vectors).
    n = 200_000
    v = SORT_ORDER_INPUTS[kind](np.random.default_rng(7), n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _sort_order(v, TieRule.FIRST_OCCURRENCE, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * v.nbytes


def test_sort_rank_identity_on_large_tie_free_input():
    v = make_rng(3).normal(size=10_000)
    assert np.unique(v).size == v.size
    assert np.array_equal(np.sort(v)[ranks(v)], v)


@pytest.mark.parametrize("seed", [-1, -3, 1.5, [1, -2]])
def test_make_rng_rejects_a_seed_numpy_rejects(seed):
    with pytest.raises(ConfigError, match="seed"):
        make_rng(seed)


def test_uniform_indices_stay_below_high_up_to_2_to_the_53():
    # The largest double Generator.random returns is 1 - 2**-53, and its
    # product with any integer high < 2**53 rounds below high.  The bounds
    # where rounding is closest: small ones, powers of two and their
    # neighbours, up to 2**53 - 1.
    top = np.nextafter(1.0, 0.0)
    assert top == 1.0 - 2.0**-53
    highs = {1, 2, 3} | {h for k in range(2, 54) for h in (2**k - 1, 2**k, 2**k + 1)}
    for high in sorted(h for h in highs if h < 2**53):
        assert int(top * high) == high - 1, high
    # A column of bounds scales each row by its own.
    block = _uniform_indices(make_rng(0), np.array([[1], [2**52 + 1], [2**53 - 1]]), (3, 50))
    assert block.dtype == np.intp
    assert (block[0] == 0).all() and (block >= 0).all()
    assert (block[1] <= 2**52).all() and (block[2] < 2**53 - 1).all()


@pytest.mark.parametrize("high", [3, 7, 100])
def test_uniform_indices_pass_a_chi_square_test(high):
    draws = _uniform_indices(make_rng(high), high, 600_000)
    counts = np.bincount(draws, minlength=high)
    assert counts.size == high
    assert scipy.stats.chisquare(counts).pvalue > 1e-3
