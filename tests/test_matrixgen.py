import math

import numpy as np
import pytest

from nlspike import matrixgen as mg
from nlspike.distributions import Gaussian, Rademacher, mean
from nlspike.errors import ParameterError
from nlspike.matrixgen import SbmSpec, SignalVector, SpikeParams
from nlspike.nonlinearity import Polynomial
from nlspike.spectral import operator_norm

IDENTITY = Polynomial([0.0, 1.0])
SQUARE = Polynomial([0.0, 0.0, 1.0])


def test_spike_params_validation():
    with pytest.raises(ParameterError):
        SpikeParams(1.0, 0.5, 100)
    with pytest.raises(ParameterError):
        SpikeParams(1.0, -0.1, 100)
    with pytest.raises(ParameterError):
        SpikeParams(1.0, 0.25, 0)
    sp = SpikeParams(2.0, 0.25, 16)
    assert sp.signal_strength == pytest.approx(2.0 * 2.0)  # 16^(1/4) = 2


def test_wigner_symmetric_and_support():
    M = mg.sample_wigner(6, Rademacher(0.5), seed=1)
    assert np.array_equal(M, M.T)
    assert set(np.unique(M)) <= {-1.0, 1.0}


def test_wigner_determinism():
    a = mg.sample_wigner(50, Gaussian(0, 1), seed=9)
    b = mg.sample_wigner(50, Gaussian(0, 1), seed=9)
    assert np.array_equal(a, b)
    c = mg.sample_wigner(50, Gaussian(0, 1), seed=10)
    assert not np.array_equal(a, c)


def test_wigner_operator_norm_near_semicircle_edge():
    # finite-n oracle by direct eigensolve: edge 2 sigma_w sqrt(n)
    n = 1000
    M = mg.sample_wigner(n, Gaussian(0, 1), seed=3)
    assert 1.9 <= operator_norm(M) / math.sqrt(n) <= 2.1


def test_wigner_rejects_empty():
    with pytest.raises(ParameterError):
        mg.sample_wigner(0, Gaussian(0, 1), seed=0)


def test_rademacher_signal():
    x = mg.rademacher_signal(4, seed=5)
    assert set(np.unique(np.abs(x.entries))) == {0.5}
    assert np.linalg.norm(x.entries) == pytest.approx(1.0, abs=1e-15)
    zeta = x.entries * 2.0
    assert np.array_equal(zeta**2, np.ones(4))
    assert np.array_equal(zeta**3, zeta)


@pytest.mark.parametrize("n,k", [(16, 1), (16, 2), (16, 3), (64, 4)])
def test_hadamard_power_norms_exact(n, k):
    x = mg.rademacher_signal(n, seed=2)
    u, _ = mg.community_signal(n, 0.5)
    for sv in (x, u):
        assert np.linalg.norm(sv.hadamard_power(k)) == pytest.approx(
            n ** ((1 - k) / 2.0), rel=1e-12
        )


def test_community_signal_examples():
    u, labels = mg.community_signal(4, 0.5)
    assert np.array_equal(u.entries, [0.5, 0.5, -0.5, -0.5])
    assert np.array_equal(labels, [1, 1, -1, -1])

    u6, labels6 = mg.community_signal(6, 1.0 / 3.0)
    assert int(np.sum(labels6 == 1)) == 2
    assert int(np.sum(labels6 == -1)) == 4

    with pytest.raises(ParameterError):
        mg.community_signal(5, 0.5)


def test_assemble_observation_hand_example():
    # perturbation adds sqrt(2)/2 = 0.707107 to every entry, square, / sqrt(2)
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = SignalVector(np.array([1.0, 1.0]) / math.sqrt(2.0), "custom")
    sp = SpikeParams(1.0, 0.0, 2)
    Y = mg.assemble_observation(W, SQUARE, sp, x)
    s = math.sqrt(2.0) * 0.5
    expected = np.array(
        [
            [s**2, (1.0 + s) ** 2],
            [(1.0 + s) ** 2, s**2],
        ]
    ) / math.sqrt(2.0)
    assert np.allclose(Y, expected, atol=1e-12)
    assert Y[0, 0] == pytest.approx(0.353553, abs=1e-6)
    assert Y[0, 1] == pytest.approx(2.060660, abs=1e-6)


def test_assemble_observation_degenerate_cases():
    n = 30
    W = mg.sample_wigner(n, Gaussian(0, 1), seed=4)
    x = mg.rademacher_signal(n, seed=5)
    zero_lam = mg.assemble_observation(W.copy(), IDENTITY, SpikeParams(0.0, 0.25, n), x)
    assert np.array_equal(zero_lam, W / math.sqrt(n))

    zero_x = SignalVector(np.zeros(n), "custom")
    noise_only = mg.assemble_observation(W.copy(), SQUARE, SpikeParams(3.0, 0.25, n), zero_x)
    assert np.array_equal(noise_only, W**2 / math.sqrt(n))


def test_assemble_observation_dimension_mismatch():
    W = np.zeros((4, 4))
    x = SignalVector(np.zeros(3), "custom")
    with pytest.raises(ParameterError):
        mg.assemble_observation(W, IDENTITY, SpikeParams(1.0, 0.0, 4), x)


def test_identity_f_reproduces_linear_model():
    n = 50
    W = mg.sample_wigner(n, Gaussian(0, 1), seed=8)
    x = mg.rademacher_signal(n, seed=9)
    for c, alpha in ((0.7, 0.0), (2.0, 0.25), (1.3, 1.0 / 3.0)):
        sp = SpikeParams(c, alpha, n)
        Y = mg.assemble_observation(W.copy(), IDENTITY, sp, x)
        linear = W / math.sqrt(n) + sp.signal_strength * np.outer(x.entries, x.entries)
        assert np.max(np.abs(Y - linear)) <= 1e-12


def test_assemble_observation_symmetric_bit_exact():
    n = 40
    W = mg.sample_wigner(n, Gaussian(0, 1), seed=12)
    x = mg.rademacher_signal(n, seed=13)
    Y = mg.assemble_observation(W, Polynomial([-1.0, -3.0, 1.0, 1.0]), SpikeParams(1.5, 0.3, n), x)
    assert np.array_equal(Y, Y.T)


def test_sbm_spec_validation():
    with pytest.raises(ParameterError):
        SbmSpec(10, 0.25001, Gaussian(0, 1), Gaussian(0, 1))
    with pytest.raises(ParameterError):
        SbmSpec(10, 0.0, Gaussian(0, 1), Gaussian(0, 1))


def test_sbm_zero_noise_point_masses():
    spec = SbmSpec(2, 0.5, Gaussian(1.0, 0.0), Gaussian(-1.0, 0.0))
    A = mg.sample_sbm_adjacency(spec, seed=0)
    assert np.array_equal(A, [[1.0, -1.0], [-1.0, 1.0]])


def test_sbm_block_means_clt():
    delta = 0.2
    spec = SbmSpec(2000, 0.5, Gaussian(delta / 2, 1.0), Gaussian(-delta / 2, 1.0))
    A = mg.sample_sbm_adjacency(spec, seed=21)
    assert np.array_equal(A, A.T)
    n_plus = spec.n_plus
    within_block = A[:n_plus, :n_plus]
    cross_block = A[:n_plus, n_plus:]
    assert float(np.mean(within_block)) == pytest.approx(delta / 2, abs=0.01)
    assert float(np.mean(cross_block)) == pytest.approx(-delta / 2, abs=0.01)


def test_sbm_mean_structure_rank_one():
    # E A = ((gamma - gamma_bar)/2) u u^T when the means sum to zero:
    # CLT oracle over repeated small samples
    n, delta = 40, 1.0
    spec = SbmSpec(n, 0.5, Gaussian(delta / 2, 1.0), Gaussian(-delta / 2, 1.0))
    acc = np.zeros((n, n))
    reps = 400
    for t in range(reps):
        acc += mg.sample_sbm_adjacency(spec, seed=1000 + t)
    acc /= reps
    _, labels = mg.community_signal(n, 0.5)
    expected = (delta / 2.0) * np.outer(labels, labels)
    assert np.max(np.abs(acc - expected)) <= 5.0 / math.sqrt(reps)


def test_centered_sum_convention():
    spec = SbmSpec(10, 0.5, Gaussian(1.0, 1.0), Gaussian(0.0, 1.0))
    centered = spec.centered_sum()
    assert mean(centered.within) + mean(centered.across) == pytest.approx(0.0, abs=1e-12)
    assert centered.delta() == pytest.approx(spec.delta(), abs=1e-12)
