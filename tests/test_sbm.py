import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlspike import sbm
from nlspike.distributions import Gaussian, mean
from nlspike.errors import ParameterError
from nlspike.matrixgen import SbmSpec, UpperTriangle, community_signal, mirror_upper, sample_sbm_adjacency
from nlspike.nonlinearity import Polynomial, hermite_fn
from nlspike.spectral import esd_histogram
from nlspike.theory import spectral_density_from_qve

IDENTITY = Polynomial([0.0, 1.0])
F_SBM = hermite_fn({2: 2.25, 3: 1.0, 4: 1.0})
ODD_CUBIC = hermite_fn({3: 1.0})


def test_transform_and_embed_examples():
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    out = sbm.transform_and_embed(UpperTriangle(A.copy()), IDENTITY)
    assert np.array_equal(mirror_upper(out.matrix), A / math.sqrt(2.0))

    sq = Polynomial([0.0, 0.0, 1.0])
    T = UpperTriangle(A)
    out2 = sbm.transform_and_embed(T, sq)
    assert out2 is T and out2.matrix is A
    assert np.array_equal(out2.matrix, out2.matrix.T)  # one diagonal square, no mirror
    assert np.allclose(mirror_upper(out2.matrix), np.ones((2, 2)) / math.sqrt(2.0), atol=1e-15)

    # the image is built in the input's buffer, which must be able to hold it
    for bad in (np.ones((2, 3)), np.ones((2, 2), dtype=int), np.ones((2, 2))[None]):
        with pytest.raises(ParameterError):
            sbm.transform_and_embed(UpperTriangle(bad), IDENTITY)


def test_recover_communities_exact_rank_one():
    u = np.array([1.0, 1.0, -1.0, -1.0])
    Y = np.outer(u, u) / 4.0
    labels = sbm.recover_communities(Y, which=1)
    assert abs(float(labels @ u)) == 4.0  # equal up to global sign


def test_recover_communities_diagonal_and_zero_convention():
    Y = np.diag([3.0, 1.0])
    labels = sbm.recover_communities(Y, which=1)
    # top eigenvector is e1; the zero entry maps to +1
    assert np.array_equal(labels, [1.0, 1.0])
    with pytest.raises(ParameterError):
        sbm.recover_communities(Y, which=3)


def test_overlap_examples():
    a = np.array([1.0, -1.0, 1.0, -1.0])
    assert sbm.overlap(a, a) == pytest.approx(1.0)
    assert sbm.overlap(a, -a) == pytest.approx(1.0)
    b = np.array([1.0, 1.0, -1.0, -1.0])
    assert sbm.overlap(a, b) == pytest.approx(0.0)
    with pytest.raises(ParameterError):
        sbm.overlap(a, np.ones(3))


@given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=40))
@settings(max_examples=50, deadline=None)
def test_overlap_flip_invariance(bits):
    labels = np.array(bits)
    rng = np.random.default_rng(len(bits))
    truth = rng.choice([-1.0, 1.0], size=len(bits))
    assert sbm.overlap(labels, truth) == sbm.overlap(-labels, truth)


def test_trial_zero_noise_exact_recovery():
    spec = SbmSpec(8, 0.5, Gaussian(0.5, 0.0), Gaussian(-0.5, 0.0))
    result = sbm.run_sbm_trial(spec, IDENTITY, seed=1)
    assert result.overlap_top == pytest.approx(1.0)
    assert mean(spec.within) - mean(spec.across) == pytest.approx(1.0)


def test_trial_in_out_equals_a_fresh_trial():
    spec = SbmSpec(300, 0.5, Gaussian(0.1, 1.0), Gaussian(-0.1, 1.0))
    out = np.full((300, 300), np.nan)
    assert sbm.run_sbm_trial(spec, F_SBM, seed=6, out=out) == sbm.run_sbm_trial(spec, F_SBM, seed=6)
    with pytest.raises(ParameterError, match="out must be"):
        sbm.run_sbm_trial(spec, F_SBM, seed=6, out=np.empty((300, 300), order="F"))


def test_trial_no_signal_has_low_overlap():
    # equal laws and an odd transform with zero mean: nothing to find
    spec = SbmSpec(2000, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    result = sbm.run_sbm_trial(spec, ODD_CUBIC, seed=2)
    assert result.overlap_top <= 0.1
    assert result.overlap_second <= 0.1


def test_noise_only_recovery_is_delocalized():
    spec = SbmSpec(2000, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    Y = sbm.transform_and_embed(sample_sbm_adjacency(spec, seed=3), ODD_CUBIC)
    _, truth = community_signal(2000, 0.5)
    labels = sbm.recover_communities(Y, which=1)
    assert sbm.overlap(labels, truth) <= 0.1


def test_trial_supercritical_recovers():
    # strong separation at n = 2000: the second eigenvector carries the split
    n, c = 2000, 3.5
    delta = 2.0 * c * n ** (-1.0 / 6.0)
    spec = SbmSpec(n, 0.5, Gaussian(delta / 2, 1.0), Gaussian(-delta / 2, 1.0))
    result = sbm.run_sbm_trial(spec, F_SBM, seed=4)
    assert result.overlap_second >= 0.8
    assert result.overlap_top <= 0.2  # top pair is the constant spike


def test_trial_records_first_four_eigenvalues_sorted():
    spec = SbmSpec(300, 0.5, Gaussian(0.1, 1.0), Gaussian(-0.1, 1.0))
    result = sbm.run_sbm_trial(spec, IDENTITY, seed=5)
    g = result.top_eigenvalues
    assert len(g) == 4
    assert all(b <= a + 1e-12 for a, b in zip(g, g[1:]))


def test_noise_only_esd_matches_qve_density_smoke():
    # smoke-scale version of the bulk-density match (acceptance pins the
    # 0.05 bound at n = 2000 over 40 bins)
    n = 1000
    spec = SbmSpec(n, 0.5, Gaussian(0.0, 1.0), Gaussian(0.0, math.sqrt(0.5)))
    Y = sbm.transform_and_embed(sample_sbm_adjacency(spec, seed=6), ODD_CUBIC)
    sigma = math.sqrt(6.0)
    sigma_bar = math.sqrt(15 * 0.125 - 18 * 0.25 + 9 * 0.5)  # Var He3 under N(0, 1/2)
    sigma_f = math.sqrt(0.5 * (sigma**2 + sigma_bar**2))
    bounds = (-2.0 * sigma_f - 0.5, 2.0 * sigma_f + 0.5)
    centers, density = esd_histogram(Y, 40, bounds)
    rho = spectral_density_from_qve(0.5, sigma, sigma_bar, centers)
    assert float(np.max(np.abs(density - rho))) <= 0.08
