"""Preparing the samples for the chain (``engine.equalize_lengths``,
``engine.smooth`` and their settings) and the pooling settings."""

import math
from collections import Counter

import numpy as np
import pytest

from deconvsim import EqualizeStrategy, PoolingMode, SmoothingSpec, make_rng
from deconvsim.errors import ConfigError, InvalidInputError
from deconvsim.engine import equalize_lengths, smooth


@pytest.mark.parametrize("field", ["xi_sd", "eta_sd", "zeta_sd"])
def test_smoothing_rejects_an_sd_of_the_wrong_type(field):
    for bad in ("0.1", None, [0.1], 0.1j):
        with pytest.raises(ConfigError, match=f"smoothing {field}"):
            SmoothingSpec(**{field: bad})


def test_smoothing_takes_any_real_sd():
    spec = SmoothingSpec(np.float32(0.75), np.int64(1), np.float64(1.25), fresh_each_step=False)
    assert spec.active and not spec.fresh_each_step
    assert SmoothingSpec(3, 4, 5).zeta_sd == 5
    with pytest.raises(InvalidInputError):  # the range check, after the type check
        SmoothingSpec(xi_sd=10**400)


def test_smoothing_fresh_each_step_must_be_a_bool():
    for bad in ("no", 0, 1, None, np.bool_(False)):
        with pytest.raises(ConfigError, match="fresh_each_step"):
            SmoothingSpec(0.1, 0.0, 0.1, fresh_each_step=bad)


def test_bootstrap_strategy_needs_a_target():
    with pytest.raises(InvalidInputError):
        EqualizeStrategy.bootstrap(0)


def test_non_bootstrap_strategies_take_no_target():
    from deconvsim.config import EqualizeKind

    with pytest.raises(InvalidInputError):
        EqualizeStrategy(EqualizeKind.TILE, target=5)


@pytest.mark.parametrize(
    "strategy", [EqualizeStrategy.tile(), EqualizeStrategy.subsample()]
)
def test_equal_lengths_pass_through(strategy):
    x = np.array([1.0, 2.0])
    z = np.array([3.0, 4.0])
    x2, z2 = equalize_lengths(x, z, strategy, make_rng(0))
    assert np.array_equal(x2, x) and np.array_equal(z2, z)


def test_tile_repeats_whole_then_tops_up():
    x = np.array([10.0, 20.0, 30.0])
    z = np.arange(8.0)
    x2, z2 = equalize_lengths(x, z, EqualizeStrategy.tile(), make_rng(1))
    assert x2.size == 8 and np.array_equal(z2, z)
    counts = Counter(x2)
    # 8 = 2*3 + 2: each element twice, two elements a third time.
    assert set(counts.values()) <= {2, 3}
    assert sum(counts.values()) == 8
    assert set(counts) == {10.0, 20.0, 30.0}


def test_tile_tops_up_z_to_a_longer_x():
    x = np.arange(13.0)
    z = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    x2, z2 = equalize_lengths(x, z, EqualizeStrategy.tile(), make_rng(1))
    assert np.array_equal(x2, x) and z2.size == 13
    # 13 = 2*5 + 3: z twice in order, then three draws without replacement.
    assert np.array_equal(z2[:10], np.tile(z, 2))
    assert np.array_equal(z2[10:], make_rng(1).choice(z, size=3, replace=False))
    assert len(set(z2[10:])) == 3


def test_subsample_shrinks_the_longer_vector():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    z = np.array([7.0, 8.0, 9.0])
    x2, z2 = equalize_lengths(x, z, EqualizeStrategy.subsample(), make_rng(2))
    assert np.array_equal(z2, z)
    assert x2.size == 3
    assert set(x2) <= set(x)
    assert len(set(x2)) == 3  # without replacement


def test_bootstrap_resamples_both_to_target():
    x = np.array([1.0, 2.0])
    z = np.array([5.0, 6.0, 7.0])
    x2, z2 = equalize_lengths(x, z, EqualizeStrategy.bootstrap(10), make_rng(3))
    assert x2.size == z2.size == 10
    assert set(x2) <= set(x) and set(z2) <= set(z)


@pytest.mark.parametrize("target", [2**62, 10**19])
def test_bootstrap_beyond_the_address_space_is_rejected(target):
    # Both sizes exceed the largest array NumPy can describe, so no memory
    # is asked for.
    x = np.array([1.0, 2.0])
    with pytest.raises(InvalidInputError, match=f"n = {target} .*memory"):
        equalize_lengths(x, x, EqualizeStrategy.bootstrap(target), make_rng(0))


def test_perturb_sd_zero_is_identity():
    # smooth skips a zero sd: x and z come back as given, eta is None,
    # and no draw is made.
    x, z = np.array([3.0, 1.0, 2.0]), np.array([5.0, 4.0])
    rng = make_rng(0)
    state = rng.bit_generator.state
    x2, eta, z2 = smooth(x, z, SmoothingSpec(), rng)
    assert x2 is x and eta is None and z2 is z
    assert rng.bit_generator.state == state


def test_perturb_noise_moments():
    # smooth on zeros returns the sorted xi and zeta draws.
    sm = SmoothingSpec(xi_sd=0.1, zeta_sd=0.1)
    xi, eta, zeta = smooth(np.zeros(10_000), np.zeros(10_000), sm, make_rng(7))
    assert eta is None
    for noise in (xi, zeta):
        assert np.all(np.diff(noise) >= 0)
        assert abs(noise.mean()) <= 3 * 0.1 / 100  # 3 sd of the mean
        assert np.var(noise) == pytest.approx(0.01, rel=0.10)


def _bootstrap(v, n, rng):
    return equalize_lengths(v, v, EqualizeStrategy.bootstrap(n), rng)[0]


def test_bootstrap_sample_single_source_value():
    assert np.array_equal(_bootstrap([7.0], 4, make_rng(0)), [7.0] * 4)


def test_bootstrap_sample_closure_and_errors():
    v = np.array([1.0, 4.0, 9.0])
    out = _bootstrap(v, 50, make_rng(1))
    assert out.size == 50 and set(out) <= set(v)
    with pytest.raises(InvalidInputError):
        _bootstrap([1.0, math.inf], 5, make_rng(1))


def test_bootstrap_sample_distinct_coverage_fraction():
    # Fraction of source elements hit by an n-out-of-n bootstrap:
    # 1 - (1 - 1/n)^n = 0.634 for n = 100.
    rng = make_rng(12)
    v = np.arange(100.0)
    fractions = [len(set(_bootstrap(v, 100, rng))) / 100 for _ in range(300)]
    assert np.mean(fractions) == pytest.approx(0.634, abs=0.02)


@pytest.mark.parametrize("sd", [-1.0, math.nan, math.inf])
def test_smoothing_rejects_negative_sd(sd):
    with pytest.raises(InvalidInputError):
        SmoothingSpec(xi_sd=sd)


SD_MAX = math.sqrt(np.finfo(np.float64).max)


@pytest.mark.parametrize("sd", [math.nextafter(SD_MAX, math.inf), 1e200, 10**400])
def test_smoothing_rejects_an_sd_whose_square_overflows(sd):
    with pytest.raises(InvalidInputError, match="standard deviations"):
        SmoothingSpec(xi_sd=sd, zeta_sd=sd)


def test_smoothing_accepts_the_largest_sd_with_a_finite_square():
    assert math.isfinite(SD_MAX**2)
    spec = SmoothingSpec(xi_sd=SD_MAX, zeta_sd=SD_MAX)
    assert spec.active


def test_smoothing_warns_when_variances_do_not_add_up():
    with pytest.warns(UserWarning, match="biased"):
        SmoothingSpec(xi_sd=0.1, eta_sd=0.1, zeta_sd=0.1)


def test_smoothing_balanced_config_is_silent():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = SmoothingSpec(xi_sd=0.3, eta_sd=0.4, zeta_sd=0.5)
    assert spec.active


def test_smoothing_inactive_when_all_zero():
    assert not SmoothingSpec().active


def test_pooling_burn_in_must_be_nonnegative():
    with pytest.raises(InvalidInputError):
        PoolingMode(burn_in=-1)
