import math
import re

import numpy as np
import pytest

from nlspike import spectral as sp
from nlspike.distributions import Gaussian
from nlspike.errors import ContractError, ParameterError
from nlspike.matrixgen import sample_wigner
from nlspike.theory import semicircle_density


def power_iteration_norm(M, iterations=10_000, seed=0):
    """Brute-force oracle: power iteration on M @ M gives ||M||^2."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[0])
    v /= np.linalg.norm(v)
    M2 = M @ M
    for _ in range(iterations):
        w = M2 @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return math.sqrt(float(v @ (M2 @ v)))


def test_sym_eig_top_examples():
    pairs = sp.sym_eig_top(np.diag([2.0, 1.0]), 2)
    assert np.allclose(pairs.values, [2.0, 1.0])
    assert np.allclose(np.abs(pairs.vectors), np.eye(2), atol=1e-12)

    pairs = sp.sym_eig_top(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert pairs.values[0] == pytest.approx(1.0)
    assert np.allclose(pairs.vectors[:, 0], [1 / math.sqrt(2)] * 2, atol=1e-12)

    v = np.array([1.0, 2.0, 2.0])
    pairs = sp.sym_eig_top(np.outer(v, v), 1)
    assert pairs.values[0] == pytest.approx(9.0)  # ||v||^2 by hand


def test_sym_eig_sign_convention_and_residuals():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((60, 60))
    M = (M + M.T) / 2.0
    pairs = sp.sym_eig_top(M, 5)
    norm = sp.operator_norm(M)
    for j in range(5):
        v = pairs.vectors[:, j]
        assert v[int(np.argmax(np.abs(v)))] > 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert pairs.residuals[j] <= 1e-8 * norm
    gram = pairs.vectors.T @ pairs.vectors
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-8
    assert np.all(np.diff(pairs.values) <= 1e-12)


def test_sym_eig_rejects_asymmetric():
    M = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ContractError):
        sp.sym_eig_top(M, 1)
    with pytest.raises(ParameterError):
        sp.sym_eig_top(np.eye(3), 4)


def test_sym_eig_rejects_non_finite():
    # the symmetry check is the one finiteness gate; scipy's is switched off
    solvers = (
        lambda M: sp.sym_eig_top(M, 1),
        sp.operator_norm,
        lambda M: sp.esd_histogram(M, 4, (-2.0, 2.0)),
    )
    for solve in solvers:
        for bad in (np.nan, np.inf, -np.inf):
            for i, j in ((1, 1), (0, 2)):
                M = np.eye(3)
                M[i, j] = M[j, i] = bad
                with pytest.raises(ContractError, match="^matrix has non-finite entries$"):
                    solve(M)


def _whole_matrix_asymmetry_figure(M):
    """The relative asymmetry computed on whole matrices, the reference for the strips."""
    return f"{np.max(np.abs(M - M.T)) / np.max(np.abs(M)):.3e}"


@pytest.mark.parametrize("n", [257, 600])
@pytest.mark.parametrize(
    "place",
    ["last-block-row", "last-block-col", "boundary-row", "boundary-col", "last-diag-block"],
)
def test_symmetry_check_finds_one_asymmetric_pair(n, place):
    i, j = {
        "last-block-row": (n - 1, 3),
        "last-block-col": (3, n - 1),
        "boundary-row": (256, 255),
        "boundary-col": (255, 256),
        "last-diag-block": (n - 1, n - 2),
    }[place]
    M = sample_wigner(n, Gaussian(0, 1), seed=n)
    M[i, j] += 1e-3
    figure = _whole_matrix_asymmetry_figure(M)
    with pytest.raises(ContractError, match=f"relative asymmetry {re.escape(figure)}$"):
        sp.sym_eig_top(M, 1)


@pytest.mark.parametrize("n", [257, 600])
def test_symmetry_check_tolerance_edge(n):
    M = sample_wigner(n, Gaussian(0, 1), seed=n + 1)
    scale = np.max(np.abs(M))
    base = M[n - 1, 255]
    M[n - 1, 255] = base + 0.5 * sp.SYMMETRY_RTOL * scale
    sp._check_symmetric(M)  # below the tolerance: passes
    M[n - 1, 255] = base + 1.5 * sp.SYMMETRY_RTOL * scale
    with pytest.raises(ContractError):
        sp._check_symmetric(M)


def test_symmetry_check_scale_of_negative_extreme():
    # the largest magnitude is -10, above the largest value 3
    M = np.array([[3.0, 1.0, 0.0], [1.0, -10.0, 2.0], [0.0, 2.0, 1.0]])
    M[0, 2] = 0.25
    assert _whole_matrix_asymmetry_figure(M) == "2.500e-02"
    with pytest.raises(ContractError, match="relative asymmetry 2.500e-02$"):
        sp.sym_eig_top(M, 1)


def test_full_reconstruction_small():
    rng = np.random.default_rng(11)
    for n in (20, 120, 200):
        M = rng.standard_normal((n, n))
        M = M + M.T
        pairs = sp.sym_eig_top(M, n)
        rebuilt = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        # the triple product is not bit-symmetric; symmetrize the tiny
        # difference before taking its operator norm
        diff = M - rebuilt
        diff = 0.5 * (diff + diff.T)
        assert sp.operator_norm(diff) <= 1e-8 * sp.operator_norm(M)


def test_operator_norm_examples():
    assert sp.operator_norm(np.array([[0.0, -3.0], [-3.0, 0.0]])) == pytest.approx(3.0)
    assert sp.operator_norm(np.zeros((4, 4))) == 0.0
    assert sp.operator_norm(np.diag([1.0, -5.0, 2.0])) == pytest.approx(5.0)


@pytest.mark.parametrize("n,seed", [(60, 0), (200, 1), (500, 2)])
def test_operator_norm_matches_power_iteration_oracle(n, seed):
    M = sample_wigner(n, Gaussian(0, 1), seed=seed)
    got = sp.operator_norm(M)
    oracle = power_iteration_norm(M, iterations=10_000, seed=seed)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_weyl_shift():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((40, 40))
    M = M + M.T
    base = sp.sym_eig_top(M, 40).values
    for t in (0.5, -2.0, 3.25):
        shifted = sp.sym_eig_top(M + t * np.eye(40), 40).values
        assert np.max(np.abs(shifted - (base + t))) <= 1e-10


def test_alignment_examples():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert sp.alignment(e1, e1) == pytest.approx(1.0)
    assert sp.alignment(e1, e2) == pytest.approx(0.0)
    assert sp.alignment(np.array([1.0, 1.0]), e1) == pytest.approx(0.7071068, abs=1e-7)
    with pytest.raises(ParameterError):
        sp.alignment(np.zeros(2), e1)


def test_esd_histogram_single_bin():
    centers, density = sp.esd_histogram(np.zeros((4, 4)), 1, (-1.0, 1.0))
    assert centers[0] == pytest.approx(0.0)
    assert density[0] == pytest.approx(0.5)  # all mass over width 2


def test_esd_histogram_excludes_out_of_range_from_numerator():
    M = np.diag([0.0, 0.0, 10.0, -10.0])
    centers, density = sp.esd_histogram(M, 1, (-1.0, 1.0))
    # half the eigenvalues are outside; integral is the in-range fraction
    assert float(np.sum(density * 2.0)) == pytest.approx(0.5)


def test_esd_wigner_matches_semicircle():
    n = 2000
    M = sample_wigner(n, Gaussian(0, 1), seed=4) / math.sqrt(n)
    centers, density = sp.esd_histogram(M, 40, (-2.2, 2.2))
    expected = semicircle_density(centers, 1.0)
    assert float(np.max(np.abs(density - expected))) <= 0.05
