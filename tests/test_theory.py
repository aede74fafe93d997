import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlspike import nonlinearity as nlfn
from nlspike import theory
from nlspike.distributions import Gaussian, Uniform
from nlspike.errors import ConvergenceError, ParameterError
from nlspike.nonlinearity import Named, Polynomial, hermite_fn

F_CUBIC = Polynomial([-1.0, -3.0, 1.0, 1.0])  # He_2 + He_3
F_SBM = hermite_fn({2: 2.25, 3: 1.0, 4: 1.0})
STD_NORMAL = Gaussian(0.0, 1.0)
SQRT8 = math.sqrt(8.0)
TANH = Named("tanh")
U11 = Uniform(-1.0, 1.0)  # tanh over Uniform laws takes Gauss-Legendre quadrature


@pytest.fixture
def mc_calls(monkeypatch):
    """Laws of the Monte Carlo evaluations made while the test runs."""
    calls = []
    inner = nlfn._mc_expectation
    monkeypatch.setattr(nlfn, "_mc_expectation", lambda *a: calls.append(a[1]) or inner(*a))
    return calls


# ---------------------------------------------------------------------------
# semicircle transform
# ---------------------------------------------------------------------------


def test_stieltjes_semicircle_real_point():
    # root of m^2 + 3m + 1 = 0 on the -1/z branch: (-3 + sqrt(5))/2
    expected = (-3.0 + math.sqrt(5.0)) / 2.0
    assert expected == pytest.approx(-0.3819660, abs=1e-7)
    got = theory.stieltjes_semicircle(3.0, 1.0)
    assert got.real == pytest.approx(expected, abs=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)

    # mirror point: m(-3) = (3 - sqrt 5)/2, positive and ~ -1/z
    left = theory.stieltjes_semicircle(-3.0, 1.0)
    assert left.real == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_stieltjes_asymptotic_decay():
    z = 1e6j
    m = theory.stieltjes_semicircle(z, 1.0)
    assert abs(m * z + 1.0) <= 1e-6


@given(
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.3, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_stieltjes_defining_equation_and_herglotz(x, y, sigma):
    z = complex(x, y)
    m = theory.stieltjes_semicircle(z, sigma)
    assert abs(sigma**2 * m * m + z * m + 1.0) <= 1e-12 * max(1.0, abs(z) ** 2)
    assert m.imag > 0.0


def test_stieltjes_rejects_support_interior():
    with pytest.raises(ParameterError):
        theory.stieltjes_semicircle(1.0, 1.0)
    with pytest.raises(ParameterError):
        theory.stieltjes_semicircle(-2.0, 1.0)


# ---------------------------------------------------------------------------
# BBP limits
# ---------------------------------------------------------------------------


def test_bbp_examples():
    assert theory.bbp_prediction(2.0, 1.0) == (pytest.approx(2.5), pytest.approx(0.75))
    assert theory.bbp_prediction(0.5, 1.0) == (pytest.approx(2.0), pytest.approx(0.0))
    assert theory.bbp_prediction(1.0, 1.0) == (pytest.approx(2.0), pytest.approx(0.0))


def test_bbp_continuity_at_threshold():
    below = theory.bbp_prediction(1.0 - 1e-9, 1.0)
    above = theory.bbp_prediction(1.0 + 1e-9, 1.0)
    assert below[0] == pytest.approx(above[0], abs=1e-6)
    assert above[1] <= 1e-8


# ---------------------------------------------------------------------------
# signed recovery prediction
# ---------------------------------------------------------------------------


def test_signed_recovery_critical_example():
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, 2.0, Fraction(1, 3))
    assert pred.regime == "critical"
    assert pred.kappa == pytest.approx(8.0)
    assert pred.sigma_f == pytest.approx(2.0 * math.sqrt(2.0))
    assert pred.outlier_limit == pytest.approx(9.0)
    assert pred.alignment_limit == pytest.approx(math.sqrt(1.0 - 1.0 / 8.0), abs=1e-7)
    assert pred.alignment_limit == pytest.approx(0.93541, abs=1e-5)
    assert pred.which_eigenpair == 2
    assert pred.indices == {"I_e": 2.0, "I_o": 3.0}


def test_alignment_limit_is_unsquared_bbp_alignment():
    # bbp_prediction returns the squared alignment; alignment_limit is unsquared
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, 2.0, Fraction(1, 3))
    assert pred.regime == "critical" and pred.kappa > pred.sigma_f
    outlier, align_sq = theory.bbp_prediction(pred.kappa, pred.sigma_f)
    assert pred.outlier_limit == pytest.approx(outlier, rel=1e-12)
    assert pred.alignment_limit**2 == pytest.approx(align_sq, rel=1e-12)


def test_signed_recovery_weak_critical_example():
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, 1.0, Fraction(1, 3))
    assert pred.regime == "critical"
    assert pred.kappa == pytest.approx(1.0)
    # kappa < sigma_f: the second eigenvalue sits at the bulk edge 2 sigma_f
    assert pred.outlier_limit == pytest.approx(2.0 * SQRT8)
    assert pred.outlier_limit == pytest.approx(5.65685, abs=1e-4)
    assert pred.alignment_limit == 0.0


def test_signed_recovery_subcritical():
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, 5.0, 0.25)
    assert pred.regime == "subcritical"
    assert pred.outlier_limit == pytest.approx(2.0 * SQRT8)
    assert pred.alignment_limit == 0.0


def test_signed_recovery_supercritical_and_float_alpha_snap():
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, 1.0, 0.4)
    assert pred.regime == "supercritical"
    assert pred.outlier_limit == "diverges"
    assert pred.alignment_limit == 1.0
    # float 1/3 is not the exact rational but must classify as critical
    assert theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, 1.0, 1.0 / 3.0).regime == "critical"


def test_signed_recovery_even_function_unrecoverable():
    even = hermite_fn({2: 1.0})
    pred = theory.signed_recovery_prediction(even, STD_NORMAL, 3.0, 0.25)
    assert pred.regime == "sign-unrecoverable"
    assert math.isinf(pred.indices["I_o"])


def test_signed_recovery_odd_function_uses_top_pair():
    odd = hermite_fn({3: 1.0})
    pred = theory.signed_recovery_prediction(odd, STD_NORMAL, 2.0, Fraction(1, 3))
    assert pred.which_eigenpair == 1  # no even spike outruns the signal


def test_signed_recovery_dead_zone_flag():
    # kappa = c^3 = sigma_f at c = (2 sqrt 2)^(1/3) = sqrt 2
    c = math.sqrt(2.0)
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, c, Fraction(1, 3))
    assert pred.at_threshold is True
    assert pred.outlier_limit == pytest.approx(2.0 * SQRT8)


def test_critical_continuity_as_kappa_approaches_sigma():
    c_at = (SQRT8) ** (1.0 / 3.0)
    eps = 1e-6
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, c_at * (1 + eps), Fraction(1, 3))
    assert pred.outlier_limit == pytest.approx(2.0 * SQRT8, rel=1e-5)


def test_alignment_monotone_in_c_at_critical():
    values = [
        theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, c, Fraction(1, 3)).alignment_limit
        for c in np.linspace(0.5, 4.0, 15)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# QVE
# ---------------------------------------------------------------------------


def test_qve_symmetric_case_matches_semicircle_value():
    sol = theory.solve_qve_two_block(0.5, 1.0, 1.0, 3.0 + 1e-6j)
    assert sol.m1 == pytest.approx(sol.m2)
    assert sol.m1.real == pytest.approx(-0.3819660, abs=1e-6)
    assert sol.residual <= 1e-12


def test_qve_balanced_beta_reduces_to_semicircle_any_variances():
    s, sb = 1.3, 0.7
    sigma_f = math.sqrt((s**2 + sb**2) / 2.0)
    for z in (2.5 + 0.05j, -4.0 + 1.0j, 0.0 + 0.2j, 6.0 + 1e-4j):
        sol = theory.solve_qve_two_block(0.5, s, sb, z)
        ms = theory.stieltjes_semicircle(z, sigma_f)
        assert abs(sol.m1 - ms) <= 1e-10
        assert abs(sol.m2 - ms) <= 1e-10


def test_qve_residuals_verified_independently():
    beta, s, sb = 1.0 / 3.0, 1.4, 0.6
    for z in (1.0 + 0.3j, -2.0 + 0.01j, 4.0 + 1e-5j):
        sol = theory.solve_qve_two_block(beta, s, sb, z)
        r1 = z * sol.m1 + beta * s**2 * sol.m1**2 + (1 - beta) * sb**2 * sol.m1 * sol.m2 + 1.0
        r2 = z * sol.m2 + beta * sb**2 * sol.m1 * sol.m2 + (1 - beta) * s**2 * sol.m2**2 + 1.0
        assert max(abs(r1), abs(r2)) <= 1e-12
        assert sol.m1.imag > 0.0 and sol.m2.imag > 0.0


def test_qve_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        theory.solve_qve_two_block(0.5, 1.0, 1.0, 3.0 - 1e-3j)
    with pytest.raises(ParameterError):
        theory.solve_qve_two_block(1.5, 1.0, 1.0, 1j)


def test_qve_non_convergence_error_carries_residual(monkeypatch):
    monkeypatch.setattr(theory, "_QVE_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as err:
        theory.solve_qve_two_block(1.0 / 3.0, 1.0, 0.5, 0.1 + 1e-8j)
    assert err.value.residual is not None
    assert err.value.residual > 0.0


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_semicircle_case():
    tau = np.linspace(-2.5, 2.5, 1001)
    rho = theory.spectral_density_from_qve(0.5, 1.0, 1.0, tau)
    mid = rho[500]
    assert mid == pytest.approx(1.0 / math.pi, abs=1e-4)
    assert mid == pytest.approx(0.3183099, abs=1e-4)
    integral = float(np.trapezoid(rho, tau))
    assert integral == pytest.approx(1.0, abs=1e-3)
    assert float(np.max(rho[np.abs(tau) > 2.2])) <= 1e-4
    assert np.all(rho >= 0.0)


def test_density_two_block_normalizes():
    tau = np.linspace(-7.0, 7.0, 1401)
    rho = theory.spectral_density_from_qve(1.0 / 3.0, math.sqrt(6.0), math.sqrt(1.875), tau)
    assert float(np.trapezoid(rho, tau)) == pytest.approx(1.0, abs=1e-3)
    assert np.all(rho >= 0.0)


def test_support_edge_and_numeric_outlier_match_closed_forms():
    assert theory.qve_support_edge(0.5, 1.0, 1.0) == pytest.approx(2.0, abs=1e-7)
    # balanced case: outlier kappa + sigma_f^2/kappa
    loc = theory.sbm_numeric_outlier(0.5, 1.0, 1.0, 2.0)
    assert loc == pytest.approx(2.5, abs=1e-7)
    assert theory.sbm_numeric_outlier(0.5, 1.0, 1.0, 0.5) is None
    # unbalanced case still brackets sensibly: location exceeds the edge
    edge = theory.qve_support_edge(1.0 / 3.0, 1.0, 0.6)
    loc = theory.sbm_numeric_outlier(1.0 / 3.0, 1.0, 0.6, 3.0)
    assert loc is not None and loc > edge


@pytest.mark.parametrize("beta", [0.01, 1.0 / 3.0, 0.99])
@pytest.mark.parametrize("sigma, sigma_bar", [(1e-3, 1e3), (5.0, 0.1), (1.0, 1.0 + 2.0**-52)])
@pytest.mark.parametrize("eta", [1e-3, 1e-9])
def test_qve_newton_continuation_stays_herglotz(beta, sigma, sigma_bar, eta):
    """Extreme block ratios, skewed beta and a near-tie of the variances,
    on and around the support close to the axis: Newton alone reaches the
    Herglotz solution at every point."""
    s2, sb2 = sigma**2, sigma_bar**2
    tau = np.linspace(-6.0, 6.0, 401) * max(sigma, sigma_bar)
    ((m1, m2),), steps = theory._solve_qve(beta, s2, sb2, tau, (eta,))
    z = tau + 1j * eta
    r1 = z * m1 + beta * s2 * m1**2 + (1 - beta) * sb2 * m1 * m2 + 1.0
    r2 = z * m2 + beta * sb2 * m1 * m2 + (1 - beta) * s2 * m2**2 + 1.0
    assert np.all(m1.imag > 0.0) and np.all(m2.imag > 0.0)
    assert float(np.max(np.maximum(np.abs(r1), np.abs(r2)))) <= 1e-12
    assert steps > 0


def test_support_edge_and_numeric_outlier_pinned():
    """The edge and outlier bisections pinned bit for bit: a change to the
    QVE's numerics that flips one of their decisions moves these values."""
    assert theory.qve_support_edge(1.0 / 3.0, 1.0, 0.6) == 1.736630686049466
    assert theory.sbm_numeric_outlier(1.0 / 3.0, 1.0, 0.6, 3.0) == 3.239297967383129


# ---------------------------------------------------------------------------
# SBM recovery prediction
# ---------------------------------------------------------------------------


def test_sbm_recovery_threshold_and_kappa():
    d = Gaussian(0.5, 1.0)
    d_bar = Gaussian(-0.5, 1.0)
    pred = theory.sbm_recovery_prediction(F_SBM, d, d_bar, 1.0, Fraction(1, 3))
    assert pred.indices == {"J_s": 3.0, "J_c": 2.0}
    assert pred.threshold_exponent == Fraction(1, 3)
    assert pred.regime == "critical"
    # kappa = c^3 (gamma''' + gammabar''')/(2 3!) = c^3 * 12/12
    for c in (0.7, 1.0, 2.0):
        p = theory.sbm_recovery_prediction(F_SBM, d, d_bar, c, Fraction(1, 3))
        assert p.kappa == pytest.approx(c**3, rel=1e-9)
    assert pred.which_eigenpair == 2
    assert pred.sigma_f == pytest.approx(math.sqrt(40.125), rel=1e-9)


def test_sbm_recovery_subcritical_limit_value():
    d = Gaussian(0.5, 1.0)
    d_bar = Gaussian(-0.5, 1.0)
    pred = theory.sbm_recovery_prediction(F_SBM, d, d_bar, 1.0, 0.25)
    assert pred.regime == "subcritical"
    s = sb = math.sqrt(40.125)
    assert pred.outlier_limit == pytest.approx(math.sqrt(2.0 * (s**2 + sb**2)))


def test_sbm_recovery_alignment_uses_outlier_consistent_form():
    d = Gaussian(0.5, 1.0)
    d_bar = Gaussian(-0.5, 1.0)
    sigma_f = math.sqrt(40.125)
    c = (2.0 * sigma_f) ** (1.0 / 3.0)  # kappa = 2 sigma_f
    pred = theory.sbm_recovery_prediction(F_SBM, d, d_bar, c, Fraction(1, 3))
    assert pred.alignment_limit == pytest.approx(math.sqrt(0.75), rel=1e-9)
    # the rejected printed form would be imaginary here: 1 - 2 kappa^2/(s^2+sb^2) = -3


def test_sbm_recovery_trivial_when_zeroth_order_differs():
    sq = Polynomial([0.0, 0.0, 1.0])
    pred = theory.sbm_recovery_prediction(sq, Gaussian(0, 1.0), Gaussian(0, 0.6), 1.0, 0.25)
    assert pred.regime == "trivially-recoverable"


def test_sbm_recovery_unrecoverable_for_even_function_equal_laws():
    sq = Polynomial([0.0, 0.0, 1.0])
    pred = theory.sbm_recovery_prediction(sq, STD_NORMAL, STD_NORMAL, 1.0, 0.25)
    assert pred.regime == "signal-unrecoverable"
    assert pred.alignment_limit == 0.0


def test_prediction_json():
    pred = theory.signed_recovery_prediction(F_CUBIC, STD_NORMAL, 2.0, Fraction(1, 3))
    blob = pred.to_json()
    assert blob["threshold_exponent"] == "1/3"
    assert blob["indices"] == {"I_e": 2, "I_o": 3}
    assert blob["regime"] == "critical"


# ---------------------------------------------------------------------------
# predictions compose the public moment functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d_bar", [U11, Uniform(-0.5, 1.5)], ids=["equal-laws", "shifted-law"])
def test_sbm_prediction_composes_public_moments(mc_calls, d_bar):
    j_s, j_c = nlfn.signal_constant_index(TANH, U11, d_bar)
    s = nlfn.sd_f_centered(TANH, U11)
    sb = nlfn.sd_f_centered(TANH, d_bar)
    g = nlfn.gamma_moment(TANH, j_s, U11)
    gb = nlfn.gamma_moment(TANH, j_s, d_bar)

    pred = theory.sbm_recovery_prediction(TANH, U11, d_bar, 2.0, "1/3")
    assert pred.indices == {"J_s": float(j_s), "J_c": float(j_c)}
    assert pred.sigma_f == math.sqrt(0.5 * (s**2 + sb**2))
    sign = (-1.0) ** (j_s + 1)
    assert pred.kappa == 2.0**j_s * (g + sign * gb) / (2.0 * math.factorial(j_s))
    assert theory.sbm_recovery_prediction(TANH, U11, d_bar, 2.0, "1/3") == pred
    assert mc_calls == []  # Monte Carlo runs only when requested


def test_signed_prediction_composes_public_moments(mc_calls):
    i_e, i_o = nlfn.even_odd_index(TANH, U11)
    sigma_f = nlfn.sd_f(TANH, U11)
    mu = nlfn.derivative_moment(TANH, i_o, U11)

    pred = theory.signed_recovery_prediction(TANH, U11, 2.0, "1/4")
    assert pred.indices == {"I_e": float(i_e), "I_o": float(i_o)}
    assert pred.sigma_f == sigma_f
    assert pred.kappa == 2.0**i_o / math.factorial(i_o) * mu
    assert theory.signed_recovery_prediction(TANH, U11, 2.0, "1/4") == pred
    assert mc_calls == []


def test_signed_prediction_odd_tanh_has_no_even_index():
    # odd tanh: every even-order moment is 0, so I_e is inf under both laws
    for d in (STD_NORMAL, U11):
        blob = theory.signed_recovery_prediction(TANH, d, 2.0, "1/4").to_json()
        assert blob["indices"] == {"I_e": None, "I_o": 1}
        assert blob["which_eigenpair"] == 1
