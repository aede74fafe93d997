import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlspike import decomposition as dc
from nlspike.decomposition import SbmEnsemble, WignerEnsemble, ell_of_alpha
from nlspike.distributions import Gaussian, mean
from nlspike.errors import ParameterError
from nlspike.matrixgen import SbmSpec, SpikeParams, rademacher_signal, sample_wigner
from nlspike.nonlinearity import Polynomial, hermite_fn
from nlspike.spectral import operator_norm

F_CUBIC = Polynomial([-1.0, -3.0, 1.0, 1.0])  # He_2 + He_3
F_SBM = hermite_fn({2: 2.25, 3: 1.0, 4: 1.0})
STD_NORMAL = Gaussian(0.0, 1.0)


# ---------------------------------------------------------------------------
# ell_of_alpha
# ---------------------------------------------------------------------------


def test_ell_of_alpha_examples():
    assert ell_of_alpha(0.0) == 1
    assert ell_of_alpha(0.25) == 2
    assert ell_of_alpha(1.0 / 3.0) == 3
    assert ell_of_alpha(Fraction(1, 3)) == 3
    assert ell_of_alpha(Fraction(1, 4)) == 2


def test_ell_of_alpha_domain():
    with pytest.raises(ParameterError):
        ell_of_alpha(0.5)
    with pytest.raises(ParameterError):
        ell_of_alpha(-0.01)


@given(st.fractions(min_value=0, max_value=Fraction(499, 1000)))
@settings(max_examples=300, deadline=None)
def test_ell_interval_membership_exact(alpha):
    ell = ell_of_alpha(alpha)
    assert Fraction(ell - 1, 2 * ell) <= alpha < Fraction(ell, 2 * ell + 2)


def test_intervals_tile_half_line():
    # the right end of each interval is the left end of the next
    for ell in range(1, 50):
        assert Fraction(ell, 2 * ell + 2) == Fraction((ell + 1) - 1, 2 * (ell + 1))


# ---------------------------------------------------------------------------
# expected_derivative_matrix
# ---------------------------------------------------------------------------


def test_expected_derivative_matrix_wigner():
    bc = dc.expected_derivative_matrix(F_CUBIC, 2, WignerEnsemble(STD_NORMAL))
    assert bc.ones == pytest.approx(2.0)  # E(6Z + 2) = 2
    assert bc.community == 0.0

    bc1 = dc.expected_derivative_matrix(Polynomial([0.0, 1.0]), 1, WignerEnsemble(STD_NORMAL))
    assert bc1.ones == pytest.approx(1.0)
    assert bc1.community == 0.0


def test_expected_derivative_matrix_sbm_symmetric_laws():
    spec = SbmSpec(8, 0.5, Gaussian(0.4, 1.0), Gaussian(-0.4, 1.0))
    for k in range(4):
        bc = dc.expected_derivative_matrix(F_SBM, k, SbmEnsemble(spec))
        assert bc.community == pytest.approx(0.0, abs=1e-12)  # equal centered laws


def test_expected_derivative_matrix_sbm_asymmetric_variances():
    spec = SbmSpec(8, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 2.0))
    sq = Polynomial([0.0, 0.0, 1.0])
    bc = dc.expected_derivative_matrix(sq, 0, SbmEnsemble(spec))
    # E Z^2 is 1 within and 4 across
    assert bc.ones == pytest.approx(2.5)
    assert bc.community == pytest.approx(-1.5)


# ---------------------------------------------------------------------------
# signal_plus_noise
# ---------------------------------------------------------------------------


def test_signal_plus_noise_coefficients_alpha_third():
    n, c = 400, 1.0
    W = sample_wigner(n, STD_NORMAL, seed=1)
    x = rademacher_signal(n, seed=2)
    sp = SpikeParams(c, Fraction(1, 3), n)
    report = dc.signal_plus_noise(W, F_CUBIC, sp, x, WignerEnsemble(STD_NORMAL))
    assert report.ell == 3
    by_k = {t.k: t for t in report.spikes}
    assert set(by_k) == {1, 2, 3}
    # mu_{f'} = 0 kills k=1; k=2 rides the ones direction at
    # c^2 mu_f'' n^(2 alpha - 1/2) / 2!; k=3 rides the signal at c^3 mu_f'''/3!
    assert by_k[1].coefficient == pytest.approx(0.0, abs=1e-12)
    assert by_k[2].direction_kind == "ones"
    assert by_k[2].coefficient == pytest.approx(c**2 * 2.0 * n ** (2 / 3 - 0.5) / 2.0, rel=1e-12)
    assert by_k[3].direction_kind == "signal"
    assert by_k[3].coefficient == pytest.approx(c**3 * 6.0 / 6.0, rel=1e-12)


def test_signal_plus_noise_zero_strength_has_zero_remainder():
    n = 60
    W = sample_wigner(n, STD_NORMAL, seed=3)
    x = rademacher_signal(n, seed=4)
    report = dc.signal_plus_noise(W, F_CUBIC, SpikeParams(0.0, 0.25, n), x, WignerEnsemble(STD_NORMAL))
    assert report.remainder_norm == 0.0
    assert all(t.coefficient == 0.0 for t in report.spikes)


def test_signal_plus_noise_consistency_invariant():
    n = 150
    W = sample_wigner(n, STD_NORMAL, seed=5)
    x = rademacher_signal(n, seed=6)
    sp = SpikeParams(1.2, 0.25, n)
    report = dc.signal_plus_noise(W.copy(), F_CUBIC, sp, x, WignerEnsemble(STD_NORMAL))
    # independent recomputation of the remainder from materialized parts
    from nlspike.matrixgen import assemble_observation
    from nlspike.nonlinearity import apply_elementwise

    Y = assemble_observation(W.copy(), F_CUBIC, sp, x)
    approx = dc._dense_sum(apply_elementwise(F_CUBIC, W) / math.sqrt(n), report.spikes)
    independent = operator_norm(Y - approx)
    assert report.remainder_norm == pytest.approx(independent, abs=1e-10)


def test_signal_plus_noise_sbm_rank_two():
    n = 64
    spec = SbmSpec(n, 0.5, Gaussian(0.3, 1.0), Gaussian(-0.3, 1.0))
    from nlspike.matrixgen import community_signal, sample_sbm_adjacency

    u, labels = community_signal(n, 0.5)
    A = sample_sbm_adjacency(spec, seed=7)
    delta = mean(spec.within) - mean(spec.across)
    expected_mean = (delta / 2.0) * np.outer(labels, labels)
    W = A - expected_mean
    lam = delta * math.sqrt(n) / 2.0
    alpha = 0.0
    c = lam  # n^0 = 1
    report = dc.signal_plus_noise(W, F_SBM, SpikeParams(c, alpha, n), u, SbmEnsemble(spec))
    assert report.ell == 1
    kinds = {(t.k, t.direction_kind) for t in report.spikes}
    assert kinds == {(1, "ones"), (1, "signal")}


def test_spike_term_norm_equals_abs_coefficient():
    n = 80
    W = sample_wigner(n, STD_NORMAL, seed=8)
    x = rademacher_signal(n, seed=9)
    report = dc.signal_plus_noise(W, F_CUBIC, SpikeParams(1.5, 0.25, n), x, WignerEnsemble(STD_NORMAL))
    for t in report.spikes:
        if t.coefficient != 0.0:
            assert operator_norm(t.materialize()) == pytest.approx(abs(t.coefficient), rel=1e-10)


# ---------------------------------------------------------------------------
# closed-form spike aggregates
# ---------------------------------------------------------------------------


def test_wigner_spike_coefficients_zeta_aggregate():
    # kappa_2 = c^3 mu_f''' / 3! exactly at alpha = 1/3 (the k=1 term
    # vanishes with mu_f'), independent of n
    for n in (100, 1000, 10_000):
        sp = SpikeParams(2.0, Fraction(1, 3), n)
        agg = dc.wigner_spike_coefficients(F_CUBIC, STD_NORMAL, sp)
        assert agg.zeta_total == pytest.approx(8.0, rel=1e-12)


def test_wigner_spike_coefficients_ones_growth_exponent():
    # kappa_1 = Theta(n^(1/2 - I_e/(2 I_o))) at the critical exponent:
    # I_e = 2, I_o = 3 gives exponent 1/6
    sp1 = dc.wigner_spike_coefficients(F_CUBIC, STD_NORMAL, SpikeParams(1.0, Fraction(1, 3), 1000))
    sp2 = dc.wigner_spike_coefficients(F_CUBIC, STD_NORMAL, SpikeParams(1.0, Fraction(1, 3), 8000))
    ratio = sp2.ones_total / sp1.ones_total
    assert ratio == pytest.approx(8.0 ** (1.0 / 6.0), rel=1e-12)


def test_wigner_spike_coefficients_includes_k0():
    shifted = Polynomial([1.0, 0.0, 0.0, 1.0])  # mean 1 under N(0,1)
    sp = SpikeParams(1.0, 0.0, 400)
    agg = dc.wigner_spike_coefficients(shifted, STD_NORMAL, sp)
    k0 = [t for t in agg.terms if t.k == 0][0]
    assert k0.direction_kind == "ones"
    assert k0.coefficient == pytest.approx(math.sqrt(400.0), rel=1e-12)


def test_wigner_spike_coefficients_odd_function_has_zero_ones_aggregate():
    odd = hermite_fn({3: 1.0})
    agg = dc.wigner_spike_coefficients(odd, STD_NORMAL, SpikeParams(1.0, Fraction(1, 3), 500))
    assert agg.ones_total == pytest.approx(0.0, abs=1e-12)


def test_wigner_aggregates_cross_check_with_decomposition():
    # per-k decomposition coefficients, resolved through the parity of the
    # Hadamard power, must reproduce the aggregate k >= 1 terms exactly
    n = 240
    c = 1.3
    sp = SpikeParams(c, Fraction(1, 3), n)
    W = sample_wigner(n, STD_NORMAL, seed=12)
    x = rademacher_signal(n, seed=13)
    report = dc.signal_plus_noise(W, F_CUBIC, sp, x, WignerEnsemble(STD_NORMAL))
    agg = dc.wigner_spike_coefficients(F_CUBIC, STD_NORMAL, sp)
    per_k = {t.k: t.coefficient for t in agg.terms if t.k >= 1}
    for term in report.spikes:
        assert term.coefficient == pytest.approx(per_k[term.k], rel=1e-12, abs=1e-15)
        expected_kind = "ones" if term.k % 2 == 0 else "signal"
        assert term.direction_kind == expected_kind


def test_strength_scaling_exponent_log_log_slope():
    # per-k spike operator norm scales as n^(k(alpha - 1/2) + 1/2):
    # slope of log norm against log n within 0.05 of the exponent
    alpha = Fraction(1, 4)
    ns = [200, 400, 800, 1600]
    norms = {k: [] for k in (1, 2)}
    for n in ns:
        sp = SpikeParams(1.0, alpha, n)
        agg = dc.wigner_spike_coefficients(Polynomial([0.0, 1.0, 1.0, 1.0]), STD_NORMAL, sp)
        for t in agg.terms:
            if t.k in norms:
                norms[t.k].append(abs(t.coefficient))
    logs_n = np.log(ns)
    for k, values in norms.items():
        slope = np.polyfit(logs_n, np.log(values), 1)[0]
        expected = k * (float(alpha) - 0.5) + 0.5
        assert slope == pytest.approx(expected, abs=0.05)


def test_sbm_spike_coefficients():
    n = 2000
    spec = SbmSpec(n, 0.5, Gaussian(0.5, 1.0), Gaussian(-0.5, 1.0))
    sp = SpikeParams(1.5, Fraction(1, 3), n)
    agg = dc.sbm_spike_coefficients(F_SBM, spec, sp)
    # gamma_f''' = gammabar_f''' = 6: the k=3 community term is c^3
    k3 = [t for t in agg.terms if t.k == 3][0]
    assert k3.community_coefficient == pytest.approx(1.5**3, rel=1e-12)
    # k = 0: half-sum on ones, half-difference on community, sqrt(n)-scaled
    k0 = [t for t in agg.terms if t.k == 0][0]
    assert k0.ones_coefficient == pytest.approx(0.0, abs=1e-9)
    assert k0.community_coefficient == pytest.approx(0.0, abs=1e-9)


def test_sbm_spike_coefficients_k0_formula():
    n = 900
    spec = SbmSpec(n, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 2.0))
    sq = Polynomial([0.0, 0.0, 1.0])
    agg = dc.sbm_spike_coefficients(sq, spec, SpikeParams(1.0, 0.0, n))
    k0 = [t for t in agg.terms if t.k == 0][0]
    g, gb = 1.0, 4.0
    assert k0.ones_coefficient == pytest.approx(math.sqrt(n) * (g + gb) / 2.0, rel=1e-12)
    assert k0.community_coefficient == pytest.approx(math.sqrt(n) * (g - gb) / 2.0, rel=1e-12)


def test_sbm_spike_coefficients_odd_function_equal_laws_zero_ones():
    n = 100
    spec = SbmSpec(n, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    odd = hermite_fn({3: 1.0})
    agg = dc.sbm_spike_coefficients(odd, spec, SpikeParams(1.0, Fraction(1, 3), n))
    assert agg.constant_total == pytest.approx(0.0, abs=1e-12)


def test_sbm_spike_coefficients_requires_zero_mean_sum():
    spec = SbmSpec(10, 0.5, Gaussian(1.0, 1.0), Gaussian(0.0, 1.0))
    with pytest.raises(ParameterError):
        dc.sbm_spike_coefficients(F_SBM, spec, SpikeParams(1.0, 0.0, 10))
