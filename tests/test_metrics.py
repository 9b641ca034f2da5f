"""Distance diagnostics: quantiles, the fitted normal line, d, QQ data."""

import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from deconvsim import TheoreticalDist, make_rng, qq_data
from conftest import INVERSE_NORMAL_TABLE
from deconvsim.errors import DegenerateReferenceError, InvalidInputError
from deconvsim.metrics import (
    NormalReferenceLine,
    _normal_scores,
    distance_index,
    exponential_quantile,
    normal_quantile,
    plotting_positions,
    reference_normal_line,
    sample_moments,
)


def test_normal_quantile_against_frozen_high_precision_values():
    worst = max(abs(normal_quantile(p) - v) for p, v in INVERSE_NORMAL_TABLE)
    assert worst <= 1e-8


def test_normal_quantile_against_scipy():
    from scipy.special import ndtri

    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    worst = max(abs(normal_quantile(p) - ndtri(p)) for p in grid)
    assert worst <= 1e-8


def test_normal_quantile_limits_and_domain():
    assert normal_quantile(0.0) == -math.inf
    assert normal_quantile(1.0) == math.inf
    for bad in (-0.1, 1.1):
        with pytest.raises(InvalidInputError):
            normal_quantile(bad)


def test_normal_quantile_is_odd_and_monotone():
    ps = np.linspace(0.001, 0.999, 199)
    values = [normal_quantile(p) for p in ps]
    assert all(a < b for a, b in zip(values, values[1:]))
    for p in (0.01, 0.2, 0.4):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _probe_points():
    # Plotting positions, log-spaced tails down to 1e-300 and up to 1 - 1e-16.
    return [plotting_positions(n) for n in (1, 2, 3, 100, 10_000, 200_000)] + [
        np.logspace(-300, math.log10(0.5), 20_000),
        1.0 - np.logspace(-16, math.log10(0.5), 20_000),
    ]


def _normal_probe_points():
    # The probes, the branch edges of the rational approximation the
    # package used before NormalDist (one ulp either side of each too),
    # and subnormal-to-tiny p.
    edges = [
        np.nextafter(edge, toward)
        for edge in (0.02425, 1.0 - 0.02425)
        for toward in (0.0, edge, 1.0)
    ]
    return np.concatenate(
        _probe_points() + [np.array(edges), np.geomspace(5e-324, 1e-300, 2_000)]
    )


def test_normal_quantile_is_bit_identical_to_normal_dist():
    p = _normal_probe_points()
    inv_cdf = NormalDist().inv_cdf
    expected = [inv_cdf(v) for v in p.tolist()]
    assert np.array_equal(_bits(normal_quantile(p)), _bits(expected))


def test_normal_quantile_is_accurate_to_a_few_ulps():
    from scipy.special import ndtri

    p = _normal_probe_points()
    exact = ndtri(p)
    err = np.abs(normal_quantile(p) - exact) / np.maximum(1.0, np.abs(exact))
    assert err.max() <= 2e-15


def test_quantile_functions_take_scalars_and_arrays():
    for fn in (normal_quantile, exponential_quantile):
        for scalar in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(fn(scalar)) is float
        grid = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = fn(grid)
        assert out.shape == (2, 2)
        assert out.tolist() == [[fn(v) for v in row] for row in grid.tolist()]
    limits = normal_quantile(np.array([0.0, 0.5, 1.0]))
    assert limits.tolist() == [-math.inf, 0.0, math.inf]
    above_one = np.nextafter(1.0, 2.0)
    for bad in ([0.5, math.nan], [0.5, -1e-300], [0.5, above_one], [math.inf]):
        with pytest.raises(InvalidInputError):
            normal_quantile(np.array(bad))
    for bad in ([0.5, math.nan], [0.5, -0.1], [0.5, 1.0]):
        with pytest.raises(InvalidInputError):
            exponential_quantile(np.array(bad))


def test_exponential_quantile_is_bit_identical_to_log1p():
    p = np.concatenate(_probe_points())
    expected = [-math.log1p(-v) for v in p.tolist()]
    assert np.array_equal(_bits(exponential_quantile(p)), _bits(expected))


def test_exponential_quantile():
    assert exponential_quantile(0.5) == pytest.approx(math.log(2))
    assert exponential_quantile(0.0) == 0.0
    for bad in (-0.01, 1.0):
        with pytest.raises(InvalidInputError):
            exponential_quantile(bad)


def test_plotting_positions():
    assert np.array_equal(plotting_positions(1), [0.5])
    assert np.allclose(plotting_positions(4), [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(InvalidInputError):
        plotting_positions(0)


def test_reference_line_unit_sigma_three_points():
    x = [-1.0, 0.0, 1.0]  # mean 0, variance 1
    z = [-math.sqrt(2), 0.0, math.sqrt(2)]  # mean 0, variance 2
    ref = reference_normal_line(x, z, 3)
    assert ref.mu == pytest.approx(0.0)
    assert ref.sigma == pytest.approx(1.0)
    assert np.allclose(
        ref.line_values, [-0.9674215661017011, 0.0, 0.9674215661017013], atol=1e-9
    )


def test_reference_line_scales_affinely():
    x = [-1.0, 0.0, 1.0]
    narrow = reference_normal_line(x, [-2.0, 0.0, 2.0], 5)  # sigma = sqrt(3)
    wide = reference_normal_line(x, [-4.0, 0.0, 4.0], 5)  # sigma = sqrt(15)
    ratio = wide.sigma / narrow.sigma
    assert np.allclose(wide.line_values, narrow.line_values * ratio)


def test_reference_line_is_bit_identical_across_cached_sizes():
    # The scores are cached for the last n only: 100, 37, 100 refits each.
    g = np.random.default_rng(4)
    for n in (100, 37, 100):
        x, z = g.normal(0.0, 1.0, n), g.normal(1.0, 2.0, n)
        ref = reference_normal_line(x, z, n)
        expected = ref.mu + ref.sigma * normal_quantile(plotting_positions(n))
        assert ref.line_values.tobytes() == expected.tobytes(), n
        assert ref.line_values.flags.writeable, n


def test_cached_normal_scores_are_read_only():
    reference_normal_line([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], 3)
    scores = _normal_scores(3)
    assert scores.tobytes() == normal_quantile(plotting_positions(3)).tobytes()
    with pytest.raises(ValueError):
        scores[0] = 0.0


def test_reference_line_degenerate_when_z_no_wider_than_x():
    v = [-1.0, 0.0, 1.0]
    with pytest.raises(DegenerateReferenceError):
        reference_normal_line(v, v, 3)
    with pytest.raises(DegenerateReferenceError):
        reference_normal_line([-2.0, 0.0, 2.0], v, 3)


def test_distance_index_zero_on_exact_fit():
    ref = reference_normal_line([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], 3)
    assert distance_index(ref.line_values, ref) == 0.0


def test_distance_index_absolute_sum():
    ref = NormalReferenceLine(mu=0.0, sigma=1.0, line_values=np.zeros(2))
    assert distance_index(np.array([-1.0, 2.0]), ref) == 3.0


def test_l1_distance_is_a_metric():
    # d is the L1 distance from the reference line's values.
    def l1(u, v):
        return distance_index(u, NormalReferenceLine(mu=0.0, sigma=1.0, line_values=v))

    rng = make_rng(4)
    u, v, w = rng.normal(size=(3, 20))
    assert l1(u, v) >= 0
    assert l1(u, u) == 0
    assert l1(u, v) == l1(v, u)
    assert l1(u, w) <= l1(u, v) + l1(v, w) + 1e-12
    # joint translation leaves it unchanged
    assert l1(u + 5.0, v + 5.0) == pytest.approx(l1(u, v))
    with pytest.raises(InvalidInputError, match="equal length"):
        l1(u, u[:-1])
    with pytest.raises(InvalidInputError, match="equal length"):
        l1(u[:-1], u)
    assert np.array_equal(l1(np.stack([u, v, w]), v), [l1(u, v), 0.0, l1(w, v)])


def test_qq_data_single_point():
    qq = qq_data([3.5], TheoreticalDist.STANDARD_EXPONENTIAL)
    assert qq.theoretical[0] == pytest.approx(math.log(2))
    assert qq.sample[0] == 3.5


def test_qq_data_two_point_exponential():
    qq = qq_data([1.0, 2.0], TheoreticalDist.STANDARD_EXPONENTIAL)
    assert np.allclose(qq.theoretical, [-math.log(0.75), -math.log(0.25)])


@pytest.mark.parametrize("dist", list(TheoreticalDist))
def test_qq_data_rejects_an_empty_sample(dist):
    with pytest.raises(InvalidInputError, match="nonempty"):
        qq_data([], dist)


def test_qq_data_sorts_and_checks_its_sample():
    dist = TheoreticalDist.STANDARD_NORMAL
    unsorted = qq_data([3.0, 1.0, 2.0], dist)
    assert unsorted.sample.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(unsorted.theoretical, qq_data([1.0, 2.0, 3.0], dist).theoretical)
    with pytest.raises(InvalidInputError, match="non-finite"):
        qq_data([np.nan, 1.0], dist)
    square = qq_data(np.array([[4.0, 3.0], [2.0, 1.0]]), dist)
    assert square.sample.shape == square.theoretical.shape == (4,)
    assert square.sample.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_qq_theoretical_coords_ignore_the_data():
    a = qq_data([1.0, 2.0, 3.0], TheoreticalDist.STANDARD_NORMAL)
    b = qq_data([-9.0, 0.0, 4.0], TheoreticalDist.STANDARD_NORMAL)
    assert np.array_equal(a.theoretical, b.theoretical)


def test_qq_data_tracks_its_own_distribution():
    y = np.sort(make_rng(8).normal(size=2000))
    qq = qq_data(y, TheoreticalDist.STANDARD_NORMAL)
    assert np.corrcoef(qq.theoretical, qq.sample)[0, 1] > 0.99


def test_sample_moments():
    assert sample_moments([1.0, 2.0, 3.0]) == (2.0, 1.0)
    assert sample_moments([0.0, 4.0]) == (2.0, 8.0)
    assert sample_moments([5.0, 5.0, 5.0])[1] == 0.0
    assert sample_moments([699051.1884435809] * 3) == (699051.1884435809, 0.0)
    with pytest.raises(InvalidInputError):
        sample_moments([1.0])


@pytest.mark.parametrize(
    "v",
    [[1e308, 1.5e308], [-1.7e308, 1.7e308], [0.0, 1e155, 2e155]],
    ids=["mean", "variance-both-signs", "variance"],
)
def test_sample_moments_reports_overflow_without_a_warning(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflow"):
            sample_moments(v)
        with pytest.raises(InvalidInputError, match="overflow"):
            reference_normal_line(v, v, len(v))
