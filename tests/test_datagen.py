"""Synthetic sample generators and the bundled experiments."""

import numpy as np
import pytest

from deconvsim import DistSpec, generate, make_experiment, make_rng
from deconvsim.datagen import EXPERIMENT_SIZE, parse_dist_spec
from deconvsim.errors import ConfigError, InvalidInputError


def test_parse_dist_spec_names_and_defaults():
    assert parse_dist_spec("normal") == DistSpec.normal(0.0, 1.0)
    assert parse_dist_spec("normal:1,2") == DistSpec.normal(1.0, 2.0)
    assert parse_dist_spec("exponential:1") == DistSpec.exponential(1.0)
    assert parse_dist_spec("uniform:0,2") == DistSpec.uniform(0.0, 2.0)
    assert parse_dist_spec(
        "contaminated-exponential:95,1,5,100"
    ) == DistSpec.contaminated_exponential(95, 1.0, 5, 100.0)
    assert parse_dist_spec("delay-link:5,0.1,20") == DistSpec.delay_link(5.0, 0.1, 20.0)


@pytest.mark.parametrize(
    "text",
    [
        "gamma:1",
        "normal:1,2,3",
        "normal:a,b",
        "exponential:-1",
        "uniform:2,1",
        "contaminated-exponential:95,1,5",
        "contaminated-exponential:9.5,1,5,100",
        "contaminated-exponential:inf,1,5,100",
        "contaminated-exponential:95,1,nan,100",
        "delay-link:5,2,20",
    ],
)
def test_parse_dist_spec_rejects_malformed_text(text):
    with pytest.raises(ConfigError):
        parse_dist_spec(text)


def test_normal_moments_large_sample():
    v = generate(DistSpec.normal(), 100_000, make_rng(0))
    assert abs(v.mean()) <= 0.01
    assert abs(np.var(v, ddof=1) - 1.0) <= 0.02


def test_exponential_moments_large_sample():
    v = generate(DistSpec.exponential(1.0), 100_000, make_rng(1))
    assert abs(v.mean() - 1.0) <= 0.01
    assert abs(np.var(v, ddof=1) - 1.0) <= 0.03


def test_uniform_range():
    v = generate(DistSpec.uniform(2.0, 3.0), 10_000, make_rng(2))
    assert v.min() >= 2.0 and v.max() < 3.0


@pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)])
def test_uniform_rejects_a_width_beyond_float_max(lo, hi):
    with pytest.raises(ConfigError, match="finite width"):
        DistSpec.uniform(lo, hi)
    with pytest.raises(ConfigError, match="finite width"):
        parse_dist_spec(f"uniform:{lo!r},{hi!r}")


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DistSpec.normal(NAN, 1.0), "normal mu must be finite"),
        (lambda: DistSpec.normal(-INF, 1.0), "normal mu must be finite"),
        (lambda: DistSpec.normal(0.0, INF), "normal sd must be finite"),
        (lambda: DistSpec.normal(0.0, NAN), "normal sd must be finite"),
        (lambda: DistSpec.exponential(INF), "exponential mean must be finite"),
        (lambda: DistSpec.exponential(NAN), "exponential mean must be finite"),
        (lambda: DistSpec.contaminated_exponential(95, INF, 5, 1.0), "means must be finite"),
        (lambda: DistSpec.contaminated_exponential(95, 1.0, 5, INF), "means must be finite"),
        (lambda: DistSpec.delay_link(INF, 0.1, 20.0), "delay base must be finite"),
        (lambda: DistSpec.delay_link(NAN, 0.1, 20.0), "delay base must be finite"),
        (lambda: DistSpec.delay_link(5.0, 0.1, INF), "spike mean must be finite"),
    ],
)
def test_constructors_reject_non_finite_parameters(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


HUGE = 10**400  # an int that no float64 holds


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: DistSpec.normal(HUGE, 1.0), "normal mu"),
        (lambda: DistSpec.normal(0.0, HUGE), "normal sd"),
        (lambda: DistSpec.exponential(HUGE), "exponential mean"),
        (lambda: DistSpec.uniform(-HUGE, 0.0), "uniform lo"),
        (lambda: DistSpec.uniform(0.0, HUGE), "uniform hi"),
        (lambda: DistSpec.contaminated_exponential(HUGE, 1.0, 5, 1.0), "contaminated n_main"),
        (lambda: DistSpec.contaminated_exponential(95, HUGE, 5, 1.0), "contaminated main_mean"),
        (lambda: DistSpec.contaminated_exponential(95, 1.0, HUGE, 1.0), "contaminated n_out"),
        (lambda: DistSpec.contaminated_exponential(95, 1.0, 5, HUGE), "contaminated out_mean"),
        (lambda: DistSpec.delay_link(HUGE, 0.1, 20.0), "delay base_ms"),
        (lambda: DistSpec.delay_link(5.0, HUGE, 20.0), "delay spike_prob"),
        (lambda: DistSpec.delay_link(5.0, 0.1, HUGE), "delay spike_mean_ms"),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_constructors_name_a_parameter_beyond_float64(make, name):
    with pytest.raises(ConfigError, match=f"^{name} is beyond float64 range$"):
        make()


@pytest.mark.parametrize("n_main, n_out", [(9.5, 5), (95, 0.5), (INF, 5), (95, NAN)])
def test_contaminated_rejects_counts_that_are_not_integers(n_main, n_out):
    # Accepted, (9.5, 5) would make generate(spec, 14, rng) draw 9 main values.
    with pytest.raises(ConfigError, match="counts must be integers"):
        DistSpec.contaminated_exponential(n_main, 1.0, n_out, 100.0)


@pytest.mark.parametrize(
    "spec",
    [
        DistSpec.normal(1e308, 1e308),
        DistSpec.exponential(1e308),
        DistSpec.contaminated_exponential(5, 1e308, 5, 1e308),
        DistSpec.delay_link(1.7e308, 1.0, 1e307),
    ],
)
def test_generate_rejects_draws_that_overflow(spec):
    n = 10 if spec.kind.value == "contaminated-exponential" else 1000
    with pytest.raises(InvalidInputError, match="draws overflow float64"):
        generate(spec, n, make_rng(0))


def test_uniform_draws_within_the_widest_finite_range():
    v = generate(DistSpec.uniform(0.0, 1e308), 1000, make_rng(4))
    assert np.all(np.isfinite(v)) and v.min() >= 0.0 and v.max() < 1e308


def test_contaminated_draws_exactly_the_stated_component_counts():
    spec = DistSpec.contaminated_exponential(95, 1.0, 5, 100.0)
    seed = 3
    out = generate(spec, 100, make_rng(seed))
    # Rebuild through the documented draw order: 95 main draws, 5
    # outlier draws, then one permutation.
    rng = make_rng(seed)
    pooled = np.concatenate([rng.exponential(1.0, 95), rng.exponential(100.0, 5)])
    expected = pooled[rng.permutation(100)]
    assert np.array_equal(out, expected)


def test_contaminated_requires_matching_n():
    spec = DistSpec.contaminated_exponential(95, 1.0, 5, 100.0)
    with pytest.raises(InvalidInputError):
        generate(spec, 99, make_rng(0))


def test_delay_link_spikes_on_top_of_the_base():
    v = generate(DistSpec.delay_link(5.0, 0.25, 20.0), 20_000, make_rng(4))
    assert v.min() >= 5.0
    spike_fraction = np.mean(v > 5.0)
    assert spike_fraction == pytest.approx(0.25, abs=0.02)


def test_generate_rejects_nonpositive_n():
    with pytest.raises(InvalidInputError):
        generate(DistSpec.normal(), 0, make_rng(0))


@pytest.mark.parametrize(
    "spec",
    [DistSpec.normal(), DistSpec.exponential(), DistSpec.uniform(),
     DistSpec.delay_link(5.0, 0.1, 20.0)],
)
@pytest.mark.parametrize("n", [2**62, 10**19])
def test_generate_rejects_a_sample_beyond_the_address_space(spec, n):
    # NumPy refuses both sizes without asking for memory: "array is too
    # big" at 2**62, "Maximum allowed dimension exceeded" at 10**19.
    with pytest.raises(InvalidInputError, match=f"n = {n} .*memory"):
        generate(spec, n, make_rng(0))


def test_make_experiment_wiring():
    seed = 17
    x1, z0, truth = make_experiment("normal", seed)
    assert x1.size == z0.size == truth.size == EXPERIMENT_SIZE
    # Rebuild through the documented draw order: x0, y0, x1.
    rng = make_rng(seed)
    x0 = rng.normal(0.0, 1.0, EXPERIMENT_SIZE)
    y0 = rng.normal(0.0, 1.0, EXPERIMENT_SIZE)
    x1_expected = rng.normal(0.0, 1.0, EXPERIMENT_SIZE)
    assert np.array_equal(z0, x0 + y0)
    assert np.array_equal(truth, y0)
    assert np.array_equal(x1, x1_expected)


def test_make_experiment_is_reproducible():
    a = make_experiment("exponential", 5)
    b = make_experiment("exponential", 5)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_uniform_experiment_sum_is_centered_at_one():
    means = [make_experiment("uniform", seed)[1].mean() for seed in range(10)]
    assert np.mean(means) == pytest.approx(1.0, abs=0.05)


def test_outlier_experiment_uses_the_contaminated_distribution():
    x1, z0, truth = make_experiment("outlier", 0)
    # With 5 of 100 draws at mean 100, each sample has a heavy tail.
    assert truth.max() > 20.0
    assert x1.max() > 20.0


def test_make_experiment_rejects_unknown_names():
    with pytest.raises(ConfigError):
        make_experiment("cauchy", 0)
