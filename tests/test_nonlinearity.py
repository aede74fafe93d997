import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlspike import distributions as dist
from nlspike import nonlinearity as nlfn
from nlspike.distributions import Gaussian, Rademacher, Uniform
from nlspike.errors import CapabilityError, ParameterError
from nlspike.nonlinearity import Named, Polynomial, hermite_coeffs, hermite_fn

F_CUBIC = Polynomial([-1.0, -3.0, 1.0, 1.0])  # x^3 + x^2 - 3x - 1 = He_2 + He_3
F_SBM = hermite_fn({2: 2.25, 3: 1.0, 4: 1.0})
STD_NORMAL = Gaussian(0.0, 1.0)


def quad_gaussian(func, mean=0.0, sd=1.0, nodes=128):
    """Independent quadrature oracle for E func(Z), Z ~ N(mean, sd^2)."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return float(np.dot(w, func(mean + sd * x)) / math.sqrt(2.0 * math.pi))


def he_value(k, x):
    return sum(c * x**j for j, c in enumerate(hermite_coeffs(k)))


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------


def test_derivative_examples():
    assert nlfn.derivative(F_CUBIC, 2) == Polynomial([2.0, 6.0])
    assert nlfn.derivative(F_CUBIC, 3) == Polynomial([6.0])
    assert nlfn.derivative(F_CUBIC, 0) is F_CUBIC
    assert nlfn.derivative(F_CUBIC, 7) == Polynomial([0.0])


def test_degree_cap():
    with pytest.raises(ParameterError):
        Polynomial([1.0] * 34)  # degree 33
    # trailing zeros trim below the cap
    assert Polynomial([1.0] + [0.0] * 50).degree == 0


def test_named_derivative_limits():
    assert nlfn.derivative(Named("abs"), 1) == Named("abs", 1)
    with pytest.raises(CapabilityError):
        nlfn.derivative(Named("abs"), 2)
    with pytest.raises(CapabilityError):
        nlfn.derivative(Named("relu", 1), 1)


def test_kink_conventions():
    assert nlfn.evaluate(Named("abs", 1), 0.0) == 0.0
    assert nlfn.evaluate(Named("relu", 1), 0.0) == 0.0
    assert nlfn.evaluate(Named("abs", 1), -2.0) == -1.0
    assert nlfn.evaluate(Named("relu", 1), 2.0) == 1.0


def test_tanh_derivatives_match_finite_differences():
    h = 1e-5
    for order in (1, 2, 3):
        f_lo = nlfn.derivative(Named("tanh"), order - 1)
        f_hi = nlfn.derivative(Named("tanh"), order)
        for x in (-1.3, 0.0, 0.4, 2.1):
            fd = (nlfn.evaluate(f_lo, x + h) - nlfn.evaluate(f_lo, x - h)) / (2 * h)
            assert nlfn.evaluate(f_hi, x) == pytest.approx(fd, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# apply_elementwise
# ---------------------------------------------------------------------------


def test_apply_elementwise_examples():
    sq = Polynomial([0.0, 0.0, 1.0])
    M = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert np.array_equal(nlfn.apply_elementwise(sq, M), [[1.0, 4.0], [4.0, 1.0]])

    A = np.array([[-1.0, 0.5], [0.5, -1.0]])
    assert np.array_equal(nlfn.apply_elementwise(Named("abs"), A), [[1.0, 0.5], [0.5, 1.0]])

    cubic = Polynomial([0.0, -3.0, 0.0, 1.0])
    Z = np.zeros((3, 3))
    assert np.array_equal(nlfn.apply_elementwise(cubic, Z), Z)


def test_apply_elementwise_preserves_symmetry_exactly():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((40, 40))
    M = M + M.T
    out = nlfn.apply_elementwise(F_CUBIC, M)
    assert np.array_equal(out, out.T)


def _horner_out_of_place(coeffs, x):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def test_evaluate_matches_out_of_place_horner_bit_for_bit():
    M = np.random.default_rng(3).standard_normal((300, 300))
    M_before = M.copy()
    got = nlfn.evaluate(F_CUBIC, M)
    assert got.tobytes() == _horner_out_of_place(F_CUBIC.coeffs, M).tobytes()
    assert nlfn.apply_elementwise(F_CUBIC, M).tobytes() == got.tobytes()
    assert M.tobytes() == M_before.tobytes()

    z = dist.sample(Uniform(-1.0, 1.0), 10_000, 7)
    z_before = z.copy()
    for order in range(17):
        got = nlfn.evaluate(Named("tanh", order), z)
        want = _horner_out_of_place(nlfn._tanh_deriv_tcoeffs(order), np.tanh(z))
        assert got.tobytes() == want.tobytes(), order
    assert z.tobytes() == z_before.tobytes()


def test_evaluate_scalar_argument():
    value = nlfn.evaluate(F_CUBIC, 2.0)  # 8 + 4 - 6 - 1
    assert value == 5.0 and np.ndim(value) == 0 and isinstance(value, float)
    assert nlfn.evaluate(Named("tanh", 1), 0.0) == 1.0
    assert nlfn.evaluate(Named("tanh"), 0.5) == math.tanh(0.5)


# ---------------------------------------------------------------------------
# derivative_moment
# ---------------------------------------------------------------------------


def test_derivative_moment_examples_with_quadrature_oracle():
    # f'' = 6x + 2 under N(0,1): oracle and closed form agree on 2
    oracle = quad_gaussian(lambda x: 6.0 * x + 2.0)
    assert oracle == pytest.approx(2.0, abs=1e-10)
    assert nlfn.derivative_moment(F_CUBIC, 2, STD_NORMAL) == pytest.approx(2.0, abs=1e-12)

    # f = He_2 + He_3 has Gaussian mean zero by orthogonality
    oracle0 = quad_gaussian(lambda x: x**3 + x**2 - 3.0 * x - 1.0)
    assert oracle0 == pytest.approx(0.0, abs=1e-10)
    assert nlfn.derivative_moment(F_CUBIC, 0, STD_NORMAL) == pytest.approx(0.0, abs=1e-12)

    assert nlfn.derivative_moment(F_CUBIC, 3, STD_NORMAL) == pytest.approx(6.0, abs=1e-12)


def test_derivative_moment_gauss_hermite_path():
    # the kink limits 64-node quadrature to ~5e-3 absolute on |x|
    value = nlfn.derivative_moment(Named("abs"), 0, STD_NORMAL)
    assert value == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.01)
    # a smooth named integrand converges properly
    t = nlfn.derivative_moment(Named("tanh"), 1, STD_NORMAL)
    oracle = quad_gaussian(lambda x: 1.0 - np.tanh(x) ** 2, nodes=200)
    assert t == pytest.approx(oracle, abs=1e-6)
    # discontinuous sign(): quadrature is rough, Monte Carlo agrees with
    # the exact value within its reported error
    exact = 1.0 - 2.0 * 0.15865525393145707  # 1 - 2 Phi(-1)
    mc, err, _ = nlfn.expectation(
        Named("abs", 1), Gaussian(1.0, 1.0), method="monte-carlo", mc_samples=10**6, mc_seed=3
    )
    assert abs(mc - exact) <= 5.0 * err


def test_derivative_moment_atom_path_exact():
    assert nlfn.derivative_moment(Named("abs"), 0, Rademacher(0.3)) == pytest.approx(1.0)
    assert nlfn.derivative_moment(Named("abs"), 1, Rademacher(0.3)) == pytest.approx(
        0.3 - 0.7, rel=1e-14
    )


def test_derivative_moment_uniform_quadrature():
    # Gauss-Legendre with a panel edge at 0, where abs and relu have their
    # kink: all three values are exact, and explicit Monte Carlo agrees
    cases = [
        (Named("abs"), Uniform(-1.0, 1.0), 0.5),
        (Named("relu"), Uniform(-0.5, 1.5), 0.5625),
        (Named("relu", 1), dist.Centered(Uniform(-0.5, 1.5)), 0.5),
    ]
    for f, d, exact in cases:
        value, err, method = nlfn.expectation(f, d)
        assert method.startswith("gauss-legendre")
        assert abs(value - exact) <= err
        mc, se, mc_method = nlfn.expectation(
            f, d, method="monte-carlo", mc_samples=200_000, mc_seed=5
        )
        assert mc_method.startswith("monte-carlo")
        assert abs(mc - exact) <= 5.0 * se
        with pytest.raises(CapabilityError):
            nlfn.expectation(f, d, method="closed-form")
        with pytest.raises(CapabilityError):
            nlfn.expectation(f, d, method="gauss-hermite")


def _tanh_derivative_exact(order, x):
    """tanh^(order)(x) from its t = tanh(x) polynomial in 50-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        e2x = (2 * Decimal(x)).exp()
        t = (e2x - 1) / (e2x + 1)
        value = sum(Decimal(c) * t**j for j, c in enumerate(nlfn._tanh_deriv_tcoeffs(order)))
        return float(value)


@pytest.mark.parametrize(
    "d, a, b",
    [
        (Uniform(-1.0, 1.0), -1.0, 1.0),
        (Uniform(-0.5, 1.5), -0.5, 1.5),
        (Uniform(0.2, 2.0), 0.2, 2.0),
        (dist.Centered(Uniform(0.2, 2.0)), 0.2 - 1.1, 2.0 - 1.1),  # mean 1.1
    ],
    ids=["U(-1,1)", "U(-0.5,1.5)", "U(0.2,2)", "centered-U(0.2,2)"],
)
def test_uniform_tanh_moments_match_exact_antiderivative(d, a, b):
    # E tanh^(k)(Z) over U(a, b) is (tanh^(k-1)(b) - tanh^(k-1)(a)) / (b - a).
    # The returned error bounds the weighted sum's rounding only; tanh^(k)
    # itself is a Horner sum in t with coefficients up to 3.7e14 (k = 16)
    # and is off by about 3e-12 of the moment there, hence the 1e-11 term.
    for k in range(1, 17):
        exact = (_tanh_derivative_exact(k - 1, b) - _tanh_derivative_exact(k - 1, a)) / (b - a)
        value, err, _ = nlfn.expectation(nlfn.derivative(Named("tanh"), k), d)
        assert nlfn.derivative_moment(Named("tanh"), k, d) == value
        assert abs(value - exact) <= err + 1e-11 * abs(exact), k


def test_closed_form_agrees_with_monte_carlo_within_five_se():
    d = STD_NORMAL
    exact = nlfn.derivative_moment(F_CUBIC, 0, d)
    value, err, method = nlfn.expectation(
        F_CUBIC, d, method="monte-carlo", mc_samples=10**7, mc_seed=17
    )
    assert method.startswith("monte-carlo")
    assert abs(value - exact) <= 5.0 * err


def test_moment_table_zero_tail_for_polynomials():
    table = nlfn.moment_table(F_CUBIC, STD_NORMAL, k_max=8)
    assert table[3] == pytest.approx(6.0)
    for k in range(4, 9):
        assert table[k] == 0.0


# ---------------------------------------------------------------------------
# sd_f and gamma moments
# ---------------------------------------------------------------------------


def test_sd_f_examples():
    assert nlfn.sd_f(Polynomial([0.0, 1.0]), STD_NORMAL) == pytest.approx(1.0)
    # Hermite norm oracle: sqrt(2! * 1 + 3! * 1) = sqrt(8)
    oracle = math.sqrt(
        quad_gaussian(lambda x: (x**3 + x**2 - 3.0 * x - 1.0) ** 2)
        - quad_gaussian(lambda x: x**3 + x**2 - 3.0 * x - 1.0) ** 2
    )
    assert oracle == pytest.approx(math.sqrt(8.0), rel=1e-10)
    assert nlfn.sd_f(F_CUBIC, STD_NORMAL) == pytest.approx(2.8284271, abs=1e-6)
    assert nlfn.sd_f(Polynomial([5.0]), Uniform(0.0, 1.0)) == 0.0


def test_sd_f_survives_overflowing_and_underflowing_moments():
    """E f^2 overflows for f = 1e200 x^2 and underflows for f = 1e-300 x^2,
    yet both SDs sqrt(2) 1e200 and sqrt(2) 1e-300 are floats; the
    power-of-two rescale finds them. An SD above the float range is a
    ParameterError naming f and the law."""
    assert nlfn.sd_f(Polynomial([0.0, 0.0, 1e200]), STD_NORMAL) == pytest.approx(math.sqrt(2.0) * 1e200)
    assert nlfn.sd_f(Polynomial([0.0, 0.0, 1e-300]), STD_NORMAL) == pytest.approx(
        math.sqrt(2.0) * 1e-300, rel=1e-12, abs=0.0
    )
    assert nlfn.sd_f(Polynomial([0.0, 0.0, 1e308]), Uniform(-1.0, 1.0)) == pytest.approx(
        math.sqrt(4.0 / 45.0) * 1e308
    )
    with pytest.raises(ParameterError, match=r"Polynomial.*Gaussian"):
        nlfn.sd_f(Polynomial([0.0, 0.0, 1e308]), Gaussian(0.0, 10.0))


def test_sd_f_named_paths():
    # Var|Z| = 1 - 2/pi for standard normal; quadrature is kink-limited
    exact = math.sqrt(1.0 - 2.0 / math.pi)
    assert nlfn.sd_f(Named("abs"), STD_NORMAL) == pytest.approx(exact, abs=0.02)
    assert nlfn.sd_f(Named("abs"), Rademacher(0.5)) == 0.0


def test_gamma_moment_examples():
    sq = Polynomial([0.0, 0.0, 1.0])
    assert nlfn.gamma_moment(sq, 0, Gaussian(0.7, 1.0)) == pytest.approx(1.0, abs=1e-12)
    for d in (STD_NORMAL, Uniform(0.0, 1.0), Rademacher(0.25)):
        assert nlfn.gamma_moment(Polynomial([0.0, 1.0]), 1, d) == pytest.approx(1.0)
    for m in (0.0, 0.4, -1.3):
        assert nlfn.gamma_moment(F_SBM, 0, Gaussian(m, 1.0)) == pytest.approx(0.0, abs=1e-9)
        oracle = quad_gaussian(lambda x: nlfn.evaluate(F_SBM, x))
        assert oracle == pytest.approx(0.0, abs=1e-9)


def test_gamma_moment_equals_centered_derivative_moment():
    from nlspike.distributions import mean_and_center

    d = Gaussian(0.9, 1.4)
    _, centered = mean_and_center(d)
    for k in range(4):
        assert nlfn.gamma_moment(F_SBM, k, d) == nlfn.derivative_moment(F_SBM, k, centered)


# ---------------------------------------------------------------------------
# Stein identity: mu_{f^(k)} = E f(Z) He_k(Z) for standard Gaussian
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs",
    [
        (-1.0, -3.0, 1.0, 1.0),
        (0.5, 0.0, -2.0, 0.0, 1.0),
        (0.0, 1.0),
        (3.0, -1.0, 2.5, 0.25, -0.75, 0.1),
    ],
)
def test_stein_identity(coeffs):
    f = Polynomial(coeffs)
    for k in range(0, min(len(coeffs), 5)):
        lhs = nlfn.derivative_moment(f, k, STD_NORMAL)
        rhs = quad_gaussian(lambda x, k=k: nlfn.evaluate(f, x) * he_value(k, x))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_moments_are_deterministic_and_spellings_agree():
    tanh, law = Named("tanh"), Uniform(-1.0, 1.0)
    fresh = nlfn.derivative_moment(tanh, 1, law)
    # positional and keyword spellings agree, and a repeat gives the same bits
    assert nlfn.derivative_moment(f=tanh, k=1, d=law) == fresh
    assert nlfn.sd_f(f=tanh, d=law) == nlfn.sd_f(tanh, law)
    assert nlfn.derivative_moment(tanh, 1, law) == fresh


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


def test_even_odd_index_examples():
    assert nlfn.even_odd_index(F_CUBIC, STD_NORMAL) == (2, 3)
    assert nlfn.even_odd_index(Polynomial([0.0, 1.0]), STD_NORMAL) == (math.inf, 1)
    assert nlfn.even_odd_index(Polynomial([0.0, 0.0, 1.0]), STD_NORMAL) == (0, math.inf)


def test_odd_tanh_has_no_even_index():
    # every even-order moment of odd tanh over a symmetric law is 0; the
    # quadrature rounding residue must not read as a nonzero moment
    tanh = Named("tanh")
    for d in (STD_NORMAL, Uniform(-1.0, 1.0), Uniform(-2.0, 2.0)):
        assert nlfn.even_odd_index(tanh, d) == (math.inf, 1), d
    u11 = Uniform(-1.0, 1.0)
    assert nlfn.signal_constant_index(tanh, u11, u11) == (1, math.inf)


def test_signal_constant_index_examples():
    for delta in (0.3, 1.0, 2.0):
        d = Gaussian(delta / 2, 1.0)
        d_bar = Gaussian(-delta / 2, 1.0)
        assert nlfn.signal_constant_index(F_SBM, d, d_bar) == (3, 2)
    for g in (0.2, 1.0):
        got = nlfn.signal_constant_index(
            Polynomial([0.0, 1.0]), Gaussian(g, 1.0), Gaussian(-g, 1.0)
        )
        assert got == (1, math.inf)
    sq = Polynomial([0.0, 0.0, 1.0])
    assert nlfn.signal_constant_index(sq, STD_NORMAL, STD_NORMAL) == (math.inf, 0)


@pytest.mark.parametrize(
    "f,d,d_bar,expected",
    [
        (Named("tanh"), Uniform(-1.0, 1.0), Uniform(-1.0, 1.0), (1, math.inf)),
        (Named("tanh"), Gaussian(0.3, 1.0), Uniform(-1.3, 0.7), (1, 1)),
        (F_SBM, Gaussian(0.5, 1.0), Gaussian(-0.5, 1.0), (3, 2)),
    ],
    ids=["tanh-equal-laws", "tanh-two-laws", "polynomial-equal-centered-laws"],
)
def test_signal_constant_index_evaluates_each_moment_once(monkeypatch, f, d, d_bar, expected):
    # the J_s and J_c scans share each order's two block moments, and equal
    # centered laws share one: at most one expectation per (order, law)
    calls = []
    expectation = nlfn.expectation

    def counting(g, law, **kwargs):
        calls.append((repr(g), law))
        return expectation(g, law, **kwargs)

    monkeypatch.setattr(nlfn, "expectation", counting)
    assert nlfn.signal_constant_index(f, d, d_bar) == expected
    centered = {dist.mean_and_center(d)[1], dist.mean_and_center(d_bar)[1]}
    assert len(calls) == len(set(calls))
    assert {law for _, law in calls} == centered
    assert len(calls) <= len(centered) * (nlfn._top_order(f) + 1)


def test_unit_variance_reading_of_block_laws():
    # any across-variance other than 1 breaks (J_s, J_c) = (3, 2): the
    # zeroth-order means of the transformed blocks already differ
    # (E f under N(0, 0.5) is -0.375, not 0), driving J_s to 0
    d = Gaussian(0.5, 1.0)
    for v in (0.5, math.sqrt(0.5)):
        d_bar = Gaussian(-0.5, math.sqrt(v))
        j_s, _ = nlfn.signal_constant_index(F_SBM, d, d_bar)
        assert j_s == 0
        assert j_s != 3


@given(st.floats(min_value=0.1, max_value=7.0), st.booleans())
@settings(max_examples=30, deadline=None)
def test_indices_invariant_under_scaling(scale, negate):
    factor = -scale if negate else scale
    scaled = Polynomial([factor * c for c in F_CUBIC.coeffs])
    assert nlfn.even_odd_index(scaled, STD_NORMAL) == nlfn.even_odd_index(F_CUBIC, STD_NORMAL)


# ---------------------------------------------------------------------------
# hermite helpers and serialization
# ---------------------------------------------------------------------------


def test_hermite_coeffs_first_values():
    assert hermite_coeffs(0) == (1.0,)
    assert hermite_coeffs(1) == (0.0, 1.0)
    assert hermite_coeffs(2) == (-1.0, 0.0, 1.0)
    assert hermite_coeffs(3) == (0.0, -3.0, 0.0, 1.0)
    assert hermite_fn({2: 1.0, 3: 1.0}) == F_CUBIC


def test_hermite_orthogonality_oracle():
    for j in range(5):
        for k in range(5):
            value = quad_gaussian(lambda x: he_value(j, x) * he_value(k, x))
            expected = math.factorial(j) if j == k else 0.0
            assert value == pytest.approx(expected, abs=1e-9)


def test_json_round_trip():
    for f, obj in [
        (F_CUBIC, {"kind": "polynomial", "coeffs": [-1.0, -3.0, 1.0, 1.0]}),
        (Named("abs"), {"kind": "named", "tag": "abs"}),
    ]:
        assert nlfn.from_json(obj) == f
