"""Vector primitives: sample validation, sort orders, the rng family."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ranks
from deconvsim import TieRule, make_rng
from deconvsim.core import as_sample
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
    # _sort_order switches to the default argsort and falls back on ties.
    v = make_rng(n).integers(0, 50, size=n).astype(np.float64)
    expected = np.empty(n, dtype=np.intp)
    expected[np.argsort(v, kind="stable")] = np.arange(n)
    assert np.array_equal(ranks(v), expected)
    # The default argsort alone would order these ties differently.
    assert not np.array_equal(np.argsort(v), np.argsort(v, kind="stable"))


def test_sort_rank_identity_on_large_tie_free_input():
    v = make_rng(3).normal(size=10_000)
    assert np.unique(v).size == v.size
    assert np.array_equal(np.sort(v)[ranks(v)], v)


@pytest.mark.parametrize("seed", [-1, -3, 1.5, [1, -2]])
def test_make_rng_rejects_a_seed_numpy_rejects(seed):
    with pytest.raises(ConfigError, match="seed"):
        make_rng(seed)
