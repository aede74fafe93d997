import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlspike import decomposition as dc
from nlspike.decomposition import ell_of_alpha
from nlspike.distributions import Gaussian, mean
from nlspike.errors import ParameterError
from nlspike.harness import parse_config, sweeps
from nlspike.matrixgen import (
    SbmSpec,
    SpikeParams,
    community_signal,
    rademacher_signal,
    UpperTriangle,
    mirror_upper,
    row_blocks,
    sample_sbm_adjacency,
    sample_wigner,
)
from nlspike.nonlinearity import Polynomial, derivative_moment, gamma_moment, hermite_fn
from nlspike.spectral import operator_norm
from nlspike.theory import _classify

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


@pytest.mark.parametrize("boundary", [Fraction(1, 4), Fraction(1, 3), Fraction(3, 8)])
@pytest.mark.parametrize("offset", [5e-13, -5e-13, -5e-12])
def test_float_alpha_near_a_boundary_reads_as_its_fraction(boundary, offset):
    """Taylor order and regime agree on one alpha rule: a float within
    1e-12 of a boundary (k-1)/(2k), which is also the critical exponent
    (I-1)/(2I) for I = k, is that boundary; a float further off is itself."""
    alpha = float(boundary) + offset
    snapped = abs(offset) < 1e-12
    exact = boundary if snapped else Fraction(alpha)
    index = int(1 / (1 - 2 * boundary))  # 2, 3, 4

    def regime(a):
        return _classify("sbm", index, 2.0, 1.0, a, 1, {}).regime

    assert ell_of_alpha(alpha) == ell_of_alpha(exact) == (index if snapped else index - 1)
    assert regime(alpha) == regime(exact) == ("critical" if snapped else "subcritical")


# ---------------------------------------------------------------------------
# spike_coefficients: the rows resolve E f^(k)(W) onto the two directions
# ---------------------------------------------------------------------------


def _weight(sp, k):
    """c^k n^((alpha - 1/2) k + 1/2) / k!, the order-k weight of every row."""
    return sp.c_lambda**k * sp.n ** ((float(sp.alpha) - 0.5) * k + 0.5) / math.factorial(k)


def test_expected_derivative_matrix_wigner():
    sp = SpikeParams(1.3, 0.25, 50)
    rows = dc.spike_coefficients(F_CUBIC, sp, STD_NORMAL)
    assert rows[2].ones / _weight(sp, 2) == pytest.approx(2.0)  # E(6Z + 2) = 2
    assert rows[2].signal == 0.0

    sp1 = SpikeParams(1.3, 0.0, 50)
    _, row1 = dc.spike_coefficients(Polynomial([0.0, 1.0]), sp1, STD_NORMAL)
    assert row1.signal / _weight(sp1, 1) == pytest.approx(1.0)
    assert row1.ones == 0.0


def test_expected_derivative_matrix_sbm_symmetric_laws():
    spec = SbmSpec(8, 0.5, Gaussian(0.4, 1.0), Gaussian(-0.4, 1.0))
    rows = dc.spike_coefficients(F_SBM, SpikeParams(1.0, Fraction(1, 3), 8), spec)
    assert len(rows) == 4
    for row in rows:
        # equal centered laws: no half-difference off the parity direction
        off_parity = row.signal if row.k % 2 == 0 else row.ones
        assert off_parity == pytest.approx(0.0, abs=1e-12)


def test_expected_derivative_matrix_sbm_asymmetric_variances():
    n = 8
    spec = SbmSpec(n, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 2.0))
    sq = Polynomial([0.0, 0.0, 1.0])
    k0 = dc.spike_coefficients(sq, SpikeParams(1.0, 0.0, n), spec)[0]
    # E Z^2 is 1 within and 4 across: half-sum 2.5, half-difference -1.5
    assert k0.ones / math.sqrt(n) == pytest.approx(2.5)
    assert k0.signal / math.sqrt(n) == pytest.approx(-1.5)


# ---------------------------------------------------------------------------
# signal_plus_noise
# ---------------------------------------------------------------------------


def test_signal_plus_noise_coefficients_alpha_third():
    n, c = 400, 1.0
    W = sample_wigner(n, STD_NORMAL, seed=1)
    x = rademacher_signal(n, seed=2)
    sp = SpikeParams(c, Fraction(1, 3), n)
    report = dc.signal_plus_noise(W, F_CUBIC, sp, x, STD_NORMAL)
    assert report.ell == 3
    assert [row.k for row in report.spikes] == [1, 2, 3]
    one, two, three = report.spikes
    # mu_{f'} = 0 kills k=1; k=2 rides the ones direction at
    # c^2 mu_f'' n^(2 alpha - 1/2) / 2!; k=3 rides the signal at c^3 mu_f'''/3!;
    # i.i.d. noise puts nothing off the parity direction
    assert one.signal == pytest.approx(0.0, abs=1e-12)
    assert one.ones == two.signal == three.ones == 0.0
    assert two.ones == pytest.approx(c**2 * 2.0 * n ** (2 / 3 - 0.5) / 2.0, rel=1e-12)
    assert three.signal == pytest.approx(c**3 * 6.0 / 6.0, rel=1e-12)


def test_signal_plus_noise_zero_strength_has_zero_remainder():
    n = 60
    W = sample_wigner(n, STD_NORMAL, seed=3)
    x = rademacher_signal(n, seed=4)
    report = dc.signal_plus_noise(W, F_CUBIC, SpikeParams(0.0, 0.25, n), x, STD_NORMAL)
    assert report.remainder_norm == 0.0
    assert all(row.ones == row.signal == 0.0 for row in report.spikes)


def test_signal_plus_noise_consistency_invariant():
    n = 150
    W = mirror_upper(sample_wigner(n, STD_NORMAL, seed=5).matrix)
    x = rademacher_signal(n, seed=6)
    sp = SpikeParams(1.2, 0.25, n)
    report = dc.signal_plus_noise(UpperTriangle(W.copy()), F_CUBIC, sp, x, STD_NORMAL)
    # independent recomputation of the remainder from materialized parts
    from nlspike.matrixgen import assemble_observation
    from nlspike.nonlinearity import apply_elementwise

    Y = mirror_upper(assemble_observation(UpperTriangle(W.copy()), F_CUBIC, sp, x).matrix)
    approx = dc._dense_sum(apply_elementwise(F_CUBIC, W) / math.sqrt(n), report.spikes, x)
    independent = operator_norm(Y - approx)
    assert report.remainder_norm == pytest.approx(independent, abs=1e-10)


def test_signal_plus_noise_sbm_rank_two():
    n = 64
    spec = SbmSpec(n, 0.5, Gaussian(0.3, 1.0), Gaussian(-0.3, 1.0))
    u, labels = community_signal(n, 0.5)
    A = mirror_upper(sample_sbm_adjacency(spec, seed=7).matrix)
    delta = mean(spec.within) - mean(spec.across)
    expected_mean = (delta / 2.0) * np.outer(labels, labels)
    W = A - expected_mean
    lam = delta * math.sqrt(n) / 2.0
    alpha = 0.0
    c = lam  # n^0 = 1
    report = dc.signal_plus_noise(UpperTriangle(W), F_SBM, SpikeParams(c, alpha, n), u, spec)
    assert report.ell == 1
    assert [row.k for row in report.spikes] == [1]  # one row: a weight on each direction


def test_spike_term_norm_equals_abs_coefficient():
    n = 80
    W = sample_wigner(n, STD_NORMAL, seed=8)
    x = rademacher_signal(n, seed=9)
    report = dc.signal_plus_noise(W, F_CUBIC, SpikeParams(1.5, 0.25, n), x, STD_NORMAL)
    ones = np.full(n, 1.0 / math.sqrt(n))
    for row in report.spikes:
        for weight, direction in ((row.ones, ones), (row.signal, x)):
            if weight != 0.0:
                dense = weight * np.outer(direction, direction)
                assert operator_norm(dense) == pytest.approx(abs(weight), rel=1e-10)


@pytest.mark.parametrize("coeffs", [[-1.0, -3.0, 1.0, 1.0], [0.0, 1.0, 0.5, 0.25]], ids=["He2+He3", "linear-cubic"])
def test_every_outer_product_comes_from_add_rank_one(monkeypatch, coeffs):
    # one rank-one add: each row block's observation spike and each of its
    # nonzero signal terms form their outer product in add_rank_one, and
    # the constant direction's terms form none. Both f have a nonzero
    # signal term at alpha = 1/3 (k = 3; linear-cubic's k = 1 as well)
    n = 300
    cfg = parse_config(
        {
            "experiment": "decompose-check",
            "n_list": [n],
            "c_grid": [1.0],
            "alpha": 1 / 3,
            "trials_per_point": 1,
            "base_seed": 6,
            "f": {"kind": "polynomial", "coeffs": coeffs},
            "noise": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        }
    )
    numpy_outer = np.outer
    callers = []

    def recording_outer(a, b, *args, **kwargs):
        code = sys._getframe(1).f_code
        callers.append((Path(code.co_filename).name, code.co_name))
        return numpy_outer(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "outer", recording_outer)
    row = sweeps._decompose_trial(cfg, n, 1.0, 0, 6)
    assert math.isfinite(row[4]) and row[4] > 0.0
    spikes = dc.spike_coefficients(cfg.f, SpikeParams(1.0, cfg.alpha, n), cfg.noise)[1:]
    signal_terms = sum(spike.signal != 0.0 for spike in spikes)
    assert signal_terms >= 1
    assert callers == [("matrixgen.py", "add_rank_one")] * (len(list(row_blocks(n))) * (1 + signal_terms))


def test_signal_plus_noise_rejects_a_signal_off_plus_minus_one_over_root_n():
    # a unit vector whose entries are not +-1/sqrt(n): the spike terms would
    # scale every entry by x_0^2, so the remainder would be wrong
    n = 64
    sp = SpikeParams(1.0, 0.25, n)
    x = np.linspace(-1.0, 1.0, n)
    x /= np.linalg.norm(x)
    with pytest.raises(ParameterError, match="1/sqrt"):
        dc.signal_plus_noise(sample_wigner(n, STD_NORMAL, seed=1), F_CUBIC, sp, x, STD_NORMAL)
    # so is a signal one entry of which is one ulp off
    x = rademacher_signal(n, seed=2)
    x[5] = np.nextafter(x[5], 0.0)
    with pytest.raises(ParameterError, match="1/sqrt"):
        dc.signal_plus_noise(sample_wigner(n, STD_NORMAL, seed=1), F_CUBIC, sp, x, STD_NORMAL)


def test_signal_plus_noise_accepts_a_hand_built_signed_signal():
    # the check reads the entries, not what built them: a hand-built copy of
    # a Rademacher signal gives its remainder bit for bit
    n = 200
    x = rademacher_signal(n, seed=3)
    copy = np.where(x > 0, 1.0, -1.0) / np.sqrt(n)
    sp = SpikeParams(1.4, Fraction(1, 3), n)
    norms = [
        dc.signal_plus_noise(sample_wigner(n, STD_NORMAL, seed=4), F_CUBIC, sp, signal, STD_NORMAL).remainder_norm
        for signal in (x, copy)
    ]
    assert norms[0] > 0.0
    assert norms[1] == norms[0]


def test_signal_plus_noise_requires_zero_block_mean_sum():
    # the noise is A - E A only when the block means sum to zero
    n = 16
    spec = SbmSpec(n, 0.5, Gaussian(1.0, 1.0), Gaussian(0.0, 1.0))
    u, _ = community_signal(n, 0.5)
    W = sample_sbm_adjacency(spec, seed=2)
    with pytest.raises(ParameterError, match="sum to zero"):
        dc.signal_plus_noise(W, F_SBM, SpikeParams(1.0, 0.0, n), u, spec)


# ---------------------------------------------------------------------------
# spike_coefficients: totals over the rows
# ---------------------------------------------------------------------------


def _totals(rows):
    return sum(r.ones for r in rows), sum(r.signal for r in rows)


def test_wigner_spike_coefficients_zeta_aggregate():
    # kappa_2 = c^3 mu_f''' / 3! exactly at alpha = 1/3 (the k=1 term
    # vanishes with mu_f'), independent of n
    for n in (100, 1000, 10_000):
        sp = SpikeParams(2.0, Fraction(1, 3), n)
        _, signal_total = _totals(dc.spike_coefficients(F_CUBIC, sp, STD_NORMAL))
        assert signal_total == pytest.approx(8.0, rel=1e-12)


def test_wigner_spike_coefficients_ones_growth_exponent():
    # kappa_1 = Theta(n^(1/2 - I_e/(2 I_o))) at the critical exponent:
    # I_e = 2, I_o = 3 gives exponent 1/6
    ones1, _ = _totals(dc.spike_coefficients(F_CUBIC, SpikeParams(1.0, Fraction(1, 3), 1000), STD_NORMAL))
    ones2, _ = _totals(dc.spike_coefficients(F_CUBIC, SpikeParams(1.0, Fraction(1, 3), 8000), STD_NORMAL))
    assert ones2 / ones1 == pytest.approx(8.0 ** (1.0 / 6.0), rel=1e-12)


def test_wigner_spike_coefficients_includes_k0():
    shifted = Polynomial([1.0, 0.0, 0.0, 1.0])  # mean 1 under N(0,1)
    rows = dc.spike_coefficients(shifted, SpikeParams(1.0, 0.0, 400), STD_NORMAL)
    assert rows[0].k == 0
    assert rows[0].ones == pytest.approx(math.sqrt(400.0), rel=1e-12)
    assert rows[0].signal == 0.0


def test_wigner_spike_coefficients_odd_function_has_zero_ones_aggregate():
    odd = hermite_fn({3: 1.0})
    sp = SpikeParams(1.0, Fraction(1, 3), 500)
    ones_total, _ = _totals(dc.spike_coefficients(odd, sp, STD_NORMAL))
    assert ones_total == pytest.approx(0.0, abs=1e-12)


def _assert_rows(spikes, expected):
    assert [row.k for row in spikes] == [k for k, _, _ in expected]
    for row, (_, ones, signal) in zip(spikes, expected):
        assert row.ones == pytest.approx(ones, rel=1e-12, abs=1e-15)
        assert row.signal == pytest.approx(signal, rel=1e-12, abs=1e-15)


def test_wigner_aggregates_cross_check_with_decomposition():
    # the decomposition's rows, in order, against the closed form
    # c^k n^((alpha-1/2)k+1/2) / k! times mu_k on the parity direction for
    # i.i.d. noise, and times (gamma_k + gammabar_k)/2 on the parity and
    # (gamma_k - gammabar_k)/2 on the other direction for the block model
    n = 240
    sp = SpikeParams(1.3, Fraction(1, 3), n)
    x = rademacher_signal(n, seed=13)
    report = dc.signal_plus_noise(
        sample_wigner(n, STD_NORMAL, seed=12), F_CUBIC, sp, x, STD_NORMAL
    )
    mu = [derivative_moment(F_CUBIC, k, STD_NORMAL) for k in range(4)]
    _assert_rows(report.spikes, [(1, 0.0, _weight(sp, 1) * mu[1]),
                                 (2, _weight(sp, 2) * mu[2], 0.0),
                                 (3, 0.0, _weight(sp, 3) * mu[3])])

    spec = SbmSpec(n, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 2.0))
    u, _ = community_signal(n, 0.5)
    report = dc.signal_plus_noise(sample_sbm_adjacency(spec, seed=14), F_SBM, sp, u, spec)
    expected = []
    for k in (1, 2, 3):
        g, gb = gamma_moment(F_SBM, k, spec.within), gamma_moment(F_SBM, k, spec.across)
        parity, other = _weight(sp, k) * (g + gb) / 2, _weight(sp, k) * (g - gb) / 2
        expected.append((k, other, parity) if k % 2 else (k, parity, other))
    _assert_rows(report.spikes, expected)


def test_strength_scaling_exponent_log_log_slope():
    # per-k spike operator norm scales as n^(k(alpha - 1/2) + 1/2):
    # slope of log norm against log n within 0.05 of the exponent
    alpha = Fraction(1, 4)
    ns = [200, 400, 800, 1600]
    norms = {k: [] for k in (1, 2)}
    for n in ns:
        sp = SpikeParams(1.0, alpha, n)
        rows = dc.spike_coefficients(Polynomial([0.0, 1.0, 1.0, 1.0]), sp, STD_NORMAL)
        for row in rows:
            if row.k in norms:
                norms[row.k].append(abs(row.ones + row.signal))  # one of the two is 0
    logs_n = np.log(ns)
    for k, values in norms.items():
        slope = np.polyfit(logs_n, np.log(values), 1)[0]
        expected = k * (float(alpha) - 0.5) + 0.5
        assert slope == pytest.approx(expected, abs=0.05)


def test_sbm_spike_coefficients():
    n = 2000
    spec = SbmSpec(n, 0.5, Gaussian(0.5, 1.0), Gaussian(-0.5, 1.0))
    rows = dc.spike_coefficients(F_SBM, SpikeParams(1.5, Fraction(1, 3), n), spec)
    # gamma_f''' = gammabar_f''' = 6: the k=3 community term is c^3
    assert rows[3].signal == pytest.approx(1.5**3, rel=1e-12)
    # k = 0: half-sum on ones, half-difference on community, sqrt(n)-scaled
    assert rows[0].ones == pytest.approx(0.0, abs=1e-9)
    assert rows[0].signal == pytest.approx(0.0, abs=1e-9)


def test_sbm_spike_coefficients_k0_formula():
    n = 900
    spec = SbmSpec(n, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 2.0))
    sq = Polynomial([0.0, 0.0, 1.0])
    k0 = dc.spike_coefficients(sq, SpikeParams(1.0, 0.0, n), spec)[0]
    g, gb = 1.0, 4.0
    assert k0.ones == pytest.approx(math.sqrt(n) * (g + gb) / 2.0, rel=1e-12)
    assert k0.signal == pytest.approx(math.sqrt(n) * (g - gb) / 2.0, rel=1e-12)


def test_sbm_spike_coefficients_odd_function_equal_laws_zero_ones():
    n = 100
    spec = SbmSpec(n, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    odd = hermite_fn({3: 1.0})
    rows = dc.spike_coefficients(odd, SpikeParams(1.0, Fraction(1, 3), n), spec)
    ones_total, _ = _totals(rows)
    assert ones_total == pytest.approx(0.0, abs=1e-12)


def test_sbm_spike_coefficients_requires_zero_mean_sum():
    spec = SbmSpec(10, 0.5, Gaussian(1.0, 1.0), Gaussian(0.0, 1.0))
    with pytest.raises(ParameterError):
        dc.spike_coefficients(F_SBM, SpikeParams(1.0, 0.0, 10), spec)
