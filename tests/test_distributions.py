import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlspike import distributions as dist
from nlspike.distributions import Centered, Gaussian, Rademacher, Uniform
from nlspike.errors import CapabilityError, ParameterError


def test_rademacher_support():
    values = dist.sample(Rademacher(0.5), 4, seed=7)
    assert set(np.unique(values)) <= {-1.0, 1.0}


def test_gaussian_large_sample_mean():
    # CLT oracle: 3/sqrt(count) = 0.003 < 0.005
    values = dist.sample(Gaussian(0.0, 1.0), 10**6, seed=1)
    assert abs(float(np.mean(values))) <= 0.005


def test_uniform_large_sample_variance():
    values = dist.sample(Uniform(0.0, 1.0), 10**6, seed=1)
    assert abs(float(np.var(values)) - 1.0 / 12.0) <= 0.005


def test_sampling_deterministic_bit_for_bit():
    for d in (Gaussian(0.3, 2.0), Rademacher(0.25), Uniform(-1.0, 3.0), Centered(Uniform(0.0, 1.0))):
        a = dist.sample(d, 1000, seed=42)
        b = dist.sample(d, 1000, seed=42)
        assert np.array_equal(a, b)


def test_sample_count_validation():
    with pytest.raises(ParameterError):
        dist.sample(Gaussian(0, 1), 0, seed=1)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        Gaussian(0.0, -1.0)
    with pytest.raises(ParameterError):
        Rademacher(1.5)
    with pytest.raises(ParameterError):
        Uniform(2.0, 2.0)


def test_moment_examples():
    assert dist.moment(Gaussian(0, 1), 4) == pytest.approx(3.0)
    assert dist.moment(Rademacher(0.5), 2) == pytest.approx(1.0)
    assert dist.moment(Gaussian(0, 0.5), 2) == pytest.approx(0.25)


def test_moment_uniform_closed_form():
    d = Uniform(-0.5, 2.0)
    for k in range(8):
        expected = (2.0 ** (k + 1) - (-0.5) ** (k + 1)) / ((k + 1) * 2.5)
        assert dist.moment(d, k) == pytest.approx(expected, rel=1e-14)


def test_moment_negative_order_rejected():
    with pytest.raises(ParameterError):
        dist.moment(Gaussian(0, 1), -1)


def test_mean_and_center_examples():
    m, c = dist.mean_and_center(Gaussian(0.3, 1.0))
    assert m == pytest.approx(0.3)
    assert c == Gaussian(0.0, 1.0)

    m, c = dist.mean_and_center(Rademacher(0.5))
    assert m == 0.0
    assert c == Rademacher(0.5)

    m, c = dist.mean_and_center(Uniform(0.0, 1.0))
    assert m == pytest.approx(0.5)
    assert c == Centered(Uniform(0.0, 1.0))


def test_centered_mean_is_exactly_zero():
    assert dist.mean(Centered(Uniform(3.0, 9.0))) == 0.0
    assert dist.moment(Centered(Rademacher(0.8)), 1) == 0.0
    assert dist.moment(Centered(Gaussian(5.0, 2.0)), 1) == 0.0


def test_centered_sampling_matches_shifted_inner():
    d = Uniform(1.0, 4.0)
    shifted = dist.sample(Centered(d), 500, seed=9)
    raw = dist.sample(d, 500, seed=9)
    assert np.array_equal(shifted, raw - dist.mean(d))


@given(
    st.sampled_from(
        [Gaussian(0.7, 1.3), Rademacher(0.3), Uniform(-2.0, 5.0), Gaussian(-4.0, 0.25)]
    ),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_centered_moments_match_binomial_expansion(d, k):
    # independent oracle: E (X - m)^k via high-count numerical quadrature
    # is avoided; instead check against direct expansion with exact moments
    m = dist.mean(d)
    expected = sum(
        math.comb(k, j) * dist.moment(d, j) * (-m) ** (k - j) for j in range(k + 1)
    )
    got = dist.moment(Centered(d), k)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "d",
    [Gaussian(0.0, 1.0), Gaussian(1.0, 0.5), Rademacher(0.5), Uniform(0.0, 1.0)],
)
def test_empirical_moments_within_five_sigma(d):
    count = 10**6
    values = dist.sample(d, count, seed=11)
    for k in range(1, 5):
        exact = dist.moment(d, k)
        spread = math.sqrt(max(dist.moment(d, 2 * k) - exact**2, 0.0))
        bound = 5.0 * spread / math.sqrt(count)
        assert abs(float(np.mean(values**k)) - exact) <= bound + 1e-15


def test_point_mass_gaussian():
    d = Gaussian(1.0, 0.0)
    assert np.array_equal(dist.sample(d, 5, seed=3), np.ones(5))
    assert dist.moment(d, 3) == pytest.approx(1.0)
    assert dist.atoms(d) == ((1.0, 1.0),)


def test_shifted():
    assert dist.shifted(Gaussian(1.0, 2.0), -0.5) == Gaussian(0.5, 2.0)
    assert dist.shifted(Uniform(0.0, 1.0), 1.0) == Uniform(1.0, 2.0)
    with pytest.raises(CapabilityError):
        dist.shifted(Rademacher(0.5), 0.1)


def test_json_round_trip_field_names():
    cases = [
        (Gaussian(0.0, 1.0), {"kind": "gaussian", "mean": 0.0, "std": 1.0}),
        (Rademacher(0.5), {"kind": "rademacher", "p": 0.5}),
        (Uniform(0.0, 1.0), {"kind": "uniform", "lo": 0.0, "hi": 1.0}),
        (
            Centered(Uniform(0.0, 1.0)),
            {"kind": "centered", "inner": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
        ),
    ]
    for d, obj in cases:
        assert dist.from_json(obj) == d


def test_from_json_rejects_garbage():
    with pytest.raises(ParameterError):
        dist.from_json({"kind": "cauchy"})
    with pytest.raises(ParameterError):
        dist.from_json(["gaussian"])
