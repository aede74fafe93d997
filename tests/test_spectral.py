import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh

from nlspike import decomposition
from nlspike import spectral as sp
from nlspike.distributions import Gaussian, Uniform, shifted
from nlspike.errors import ContractError, ConvergenceError, ParameterError
from nlspike.matrixgen import (
    SbmSpec,
    SpikeParams,
    UpperTriangle,
    assemble_observation,
    mirror_upper,
    rademacher_signal,
    sample_sbm_adjacency,
    sample_wigner,
)
from nlspike.nonlinearity import Named, hermite_fn
from nlspike.rng import derive_seed
from nlspike.sbm import transform_and_embed
from nlspike.theory import semicircle_density


HE2_HE3 = hermite_fn({2: 1.0, 3: 1.0})  # the signed sweep's f


def _dense_wigner(n, d, seed):
    """sample_wigner's matrix, mirrored into a full one."""
    return mirror_upper(sample_wigner(n, d, seed).matrix)


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
    M = _dense_wigner(n, Gaussian(0, 1), seed=n)
    M[i, j] += 1e-3
    figure = _whole_matrix_asymmetry_figure(M)
    with pytest.raises(ContractError, match=f"relative asymmetry {re.escape(figure)}$"):
        sp.sym_eig_top(M, 1)


@pytest.mark.parametrize("n", [257, 600])
def test_symmetry_check_tolerance_edge(n):
    M = _dense_wigner(n, Gaussian(0, 1), seed=n + 1)
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
    M = _dense_wigner(n, Gaussian(0, 1), seed=seed)
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


@pytest.mark.parametrize("bounds", [(-math.inf, 3.0), (-1.0, math.inf), (math.nan, 1.0), (1.0, 1.0)])
def test_esd_histogram_rejects_non_finite_or_empty_bounds(bounds):
    with pytest.raises(ParameterError, match="need finite lo < hi"):
        sp.esd_histogram(np.zeros((4, 4)), 1, bounds)


def test_esd_histogram_excludes_out_of_range_from_numerator():
    M = np.diag([0.0, 0.0, 10.0, -10.0])
    centers, density = sp.esd_histogram(M, 1, (-1.0, 1.0))
    # half the eigenvalues are outside; integral is the in-range fraction
    assert float(np.sum(density * 2.0)) == pytest.approx(0.5)


def test_esd_wigner_matches_semicircle():
    n = 2000
    M = _dense_wigner(n, Gaussian(0, 1), seed=4) / math.sqrt(n)
    centers, density = sp.esd_histogram(M, 40, (-2.2, 2.2))
    expected = semicircle_density(centers, 1.0)
    assert float(np.max(np.abs(density - expected))) <= 0.05


# ---------------------------------------------------------------------------
# the Lanczos extremal solver against dense LAPACK
# ---------------------------------------------------------------------------

LANCZOS_SIZES = st.integers(sp._LANCZOS_MIN_N, 800)


def _matrix(kind, n, seed, shift):
    """Test matrices for the Lanczos path, scaled like the trials' (bulk
    edge near +-2)."""
    rng = np.random.default_rng(seed)
    M = _dense_wigner(n, Gaussian(0, 1), seed=seed) / math.sqrt(n)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    if kind == "spiked":  # a detached top outlier
        M += shift * np.outer(u, u)
    elif kind == "negative-outlier":  # |lambda_min| > lambda_max
        M -= shift * np.outer(u, u)
    elif kind == "near-equal-ends":  # the ends 10^-shift apart, as in a decompose remainder
        w = eigvalsh(M)
        M -= (0.5 * (w[0] + w[-1]) + 0.5 * 10.0**-shift) * np.eye(n)
    return M


def _lanczos(M, k, which):
    """sp._lanczos gated by M's own residual bound, as the solver core calls it."""
    return sp._lanczos(M, k, which, sp._residual_bound(M))


def _dense_top(M, k):
    n = M.shape[0]
    w, v = eigh(M, subset_by_index=[n - k, n - 1])
    return w[::-1], v[:, ::-1]


def _assert_matches_dense(values, vectors, residuals, M, w_ref, v_ref):
    bound = sp.RESIDUAL_RTOL * np.linalg.norm(M)
    assert np.all(residuals <= bound)
    assert np.all(np.abs(values - w_ref) <= 1e-10 * np.abs(w_ref).max())
    for j in range(vectors.shape[1]):
        assert abs(vectors[:, j] @ v_ref[:, j]) >= 1.0 - 1e-10


@given(
    LANCZOS_SIZES,
    st.sampled_from(["wigner", "spiked", "negative-outlier", "near-equal-ends"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 4]),
    st.floats(2.0, 6.0),
)
@settings(max_examples=12, deadline=None)
# the far negative outlier converges early; at a projection threshold of
# 1e-10 it leaked back into the top Ritz vectors, whose residuals then missed
# the gate though their Ritz test passed
@example(658, "negative-outlier", 16439473, 1, 3.3515625)
@example(658, "negative-outlier", 16439473, 2, 3.3515625)
@example(658, "negative-outlier", 16439473, 4, 3.3515625)
def test_lanczos_top_k_matches_dense(n, kind, seed, k, shift):
    M = _matrix(kind, n, seed, shift)
    found = _lanczos(M, k, "LA")
    assert found is not None
    w, v, residuals = found
    w_ref, v_ref = _dense_top(M, k)
    _assert_matches_dense(w[::-1], v[:, ::-1], residuals[::-1], M, w_ref, v_ref)
    pairs = sp.sym_eig_top(M, k)  # the public entry takes the same path
    assert np.array_equal(pairs.values, w[::-1])
    assert np.array_equal(np.abs(pairs.vectors), np.abs(v[:, ::-1]))


@given(
    LANCZOS_SIZES,
    st.sampled_from(["wigner", "spiked", "negative-outlier", "near-equal-ends"]),
    st.integers(0, 2**32 - 1),
    st.floats(2.0, 6.0),
)
@settings(max_examples=12, deadline=None)
@example(658, "negative-outlier", 16439473, 3.3515625)  # the same leak, at the top end
def test_lanczos_operator_norm_matches_dense(n, kind, seed, shift):
    M = _matrix(kind, n, seed, shift)
    found = _lanczos(M, 2, "BE")
    assert found is not None
    w, v, residuals = found
    w_all, v_all = eigh(M)
    ends = [0, n - 1]
    _assert_matches_dense(w, v, residuals, M, w_all[ends], v_all[:, ends])
    dense = max(abs(w_all[0]), abs(w_all[-1]))
    assert abs(sp.operator_norm(M) - dense) <= 1e-10 * dense


TRIAL_N = 600  # above the crossover, so the trials' matrices take the Lanczos path
DENSE_N = sp._LANCZOS_MIN_N - 50  # below it: dense eigh
assert 40 < sp._LANCZOS_MIN_N <= 520  # the sizes below that take the dense path, then the Lanczos path


def _signed_trial_matrix(n, c, seed):
    """The signed sweep's He2+He3 observation, built as its trials build it
    and mirrored into a full matrix."""
    W = sample_wigner(n, Gaussian(0, 1), derive_seed(seed, 0))
    x = rademacher_signal(n, derive_seed(seed, 1))
    return mirror_upper(assemble_observation(W, HE2_HE3, SpikeParams(c, Fraction(1, 4), n), x).matrix)


def _decomposition_remainder(monkeypatch, n, seed):
    """The decompose-check remainder at c = 1, captured on its way to
    operator_norm as the UpperTriangle the decomposition builds and kept
    mirrored, and the remainder norm the decomposition reported."""
    remainders = []

    def keep_remainder(M):
        remainders.append(mirror_upper(M.matrix.copy()))
        return sp.operator_norm(M)

    monkeypatch.setattr(decomposition, "operator_norm", keep_remainder)
    law = Gaussian(0, 1)
    W = sample_wigner(n, law, derive_seed(seed, 0))
    x = rademacher_signal(n, derive_seed(seed, 1))
    report = decomposition.signal_plus_noise(W, HE2_HE3, SpikeParams(1.0, 0.25, n), x, law)
    return remainders[0], report.remainder_norm


@pytest.mark.parametrize("c", [0.8, 2.6, 5.0])
def test_lanczos_on_signed_trial_matrices(c):
    # bulk-edge (0.8) and detached (2.6, 5.0) top pairs of the signed sweep's He2+He3 observation
    M = _signed_trial_matrix(TRIAL_N, c, int(10 * c))
    assert _lanczos(M, 2, "LA") is not None  # every pair passes the gate: no dense fallback
    w_ref, v_ref = _dense_top(M, 2)
    pairs = sp.sym_eig_top(M, 2)
    _assert_matches_dense(pairs.values, pairs.vectors, pairs.residuals, M, w_ref, v_ref)


def test_lanczos_norm_of_a_decomposition_remainder(monkeypatch):
    remainder, remainder_norm = _decomposition_remainder(monkeypatch, TRIAL_N, 7)
    assert _lanczos(remainder, 2, "BE") is not None
    w_all = eigvalsh(remainder)
    dense = max(-w_all[0], w_all[-1])
    assert abs(remainder_norm - dense) <= 1e-10 * dense


@pytest.mark.parametrize("case", ["signed-c0.8", "decompose-remainder"])
def test_partial_reorthogonalization_keeps_full_accuracy(monkeypatch, case):
    # the basis is projected only where Simon's estimate calls for it, yet
    # the Ritz pairs stay orthonormal and equal to LAPACK's
    n = 1000
    if case == "signed-c0.8":
        M, k, which = _signed_trial_matrix(n, 0.8, n + 8), 2, "LA"
    else:
        M, k, which = _decomposition_remainder(monkeypatch, n, 7)[0], 2, "BE"
    calls = {"matvecs": 0, "projections": 0}
    matvec, project_out = sp._matvec, sp._project_out

    def counting_matvec(A, u):
        calls["matvecs"] += 1
        return matvec(A, u)

    def counting_project_out(basis, w):
        calls["projections"] += 1
        return project_out(basis, w)

    monkeypatch.setattr(sp, "_matvec", counting_matvec)
    monkeypatch.setattr(sp, "_project_out", counting_project_out)
    w, v, _ = _lanczos(M, k, which)
    steps = calls["matvecs"] - k  # the gate's residuals take one matvec per pair
    assert 0 < calls["projections"] < steps / 4
    assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
    w_all = eigvalsh(M)
    w_ref = w_all[-k:] if which == "LA" else w_all[[0, -1]]
    assert np.all(np.abs(w - w_ref) <= 1e-12 * np.abs(w_ref))
    if which == "LA":
        _, v_ref = _dense_top(M, k)
        for j in range(k):
            assert abs(v[:, k - 1 - j] @ v_ref[:, j]) >= 1.0 - 1e-12


def _sbm_trial_matrix(n, seed):
    """The SBM sweep's tanh image over Uniform(-1, 1) block laws pulled
    apart at c = 2, alpha = 1/3, built as its trials build it and mirrored."""
    delta = 2.0 * 2.0 * n ** (1.0 / 3.0 - 0.5)
    law = Uniform(-1.0, 1.0)
    spec = SbmSpec(n, 0.5, shifted(law, 0.5 * delta), shifted(law, -0.5 * delta))
    return mirror_upper(transform_and_embed(sample_sbm_adjacency(spec, seed), Named("tanh", 0)).matrix)


@pytest.mark.parametrize(
    "case, k, every_check",
    [("sbm-400", 4, (13, 108)), ("signed-1000-c0.8", 2, (13, 106))],
    ids=["sbm-400", "signed-1000-c0.8"],
)
def test_ritz_tests_come_when_predicted(monkeypatch, case, k, every_check):
    # every_check: the Ritz tests and matvecs of the same solve with a test
    # every _LANCZOS_CHECK steps and projections at 1e-10; the predicted
    # schedule halves the tests and overshoots convergence by a few steps
    M = _sbm_trial_matrix(400, 1) if case == "sbm-400" else _signed_trial_matrix(1000, 0.8, 1008)
    calls = {"ritz": 0, "matvecs": 0}
    ritz, matvec = sp._ritz, sp._matvec

    def counting_ritz(*args):
        calls["ritz"] += 1
        return ritz(*args)

    def counting_matvec(A, u):
        calls["matvecs"] += 1
        return matvec(A, u)

    monkeypatch.setattr(sp, "_ritz", counting_ritz)
    monkeypatch.setattr(sp, "_matvec", counting_matvec)
    w, _, _ = _lanczos(M, k, "LA")
    assert calls["ritz"] <= every_check[0] / 2
    assert calls["matvecs"] <= every_check[1] + 8
    w_ref = eigvalsh(M)[-k:]
    assert np.all(np.abs(w - w_ref) <= 1e-12 * np.abs(w_ref))


def test_operator_norm_finds_the_clustered_end():
    # an isolated top at 1 and a cluster at the bottom whose end is
    # -1.001: one "largest magnitude" pair settles on the wrong end here
    n = sp._LANCZOS_MIN_N
    rng = np.random.default_rng(0)
    lam = rng.uniform(-1.0, 0.5, n)
    lam[0] = 1.0
    lam[1:30] = -1.0 + rng.uniform(0.0, 1e-3, 29)
    lam[1] = -1.001
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (Q * lam) @ Q.T
    M = 0.5 * (M + M.T)
    assert sp.operator_norm(M) == pytest.approx(1.001, rel=1e-10)


def test_lanczos_zero_and_rank_one_above_crossover():
    n = sp._LANCZOS_MIN_N + 1
    zero = np.zeros((n, n))
    assert sp.operator_norm(zero) == 0.0
    pairs = sp.sym_eig_top(zero, 2)
    assert np.array_equal(pairs.values, [0.0, 0.0])
    assert np.array_equal(pairs.residuals, [0.0, 0.0])

    u = np.random.default_rng(1).standard_normal(n)
    u /= np.linalg.norm(u)
    for coefficient in (3.0, -3.0):
        M = coefficient * np.outer(u, u)
        assert sp.operator_norm(M) == pytest.approx(3.0, rel=1e-12)
        pairs = sp.sym_eig_top(M, 2)
        top = max(coefficient, 0.0)
        assert np.all(np.abs(pairs.values - [top, 0.0]) <= 1e-12)
        assert np.all(pairs.residuals <= sp.RESIDUAL_RTOL * 3.0)
        if coefficient > 0.0:
            assert abs(pairs.vectors[:, 0] @ u) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# the gate's norms
# ---------------------------------------------------------------------------


def test_gate_takes_no_matrix_sized_numpy_norm(monkeypatch):
    # numpy's norm of an n x n matrix is a threaded ddot in numpy's own
    # OpenBLAS pool, whose workers then spin beside scipy's dsymv workers;
    # the gate's norms must run in scipy's BLAS, the matvec's
    Y = _signed_trial_matrix(TRIAL_N, 2.6, 26)
    Y_dense = _signed_trial_matrix(DENSE_N, 2.6, 26)
    numpy_norm = np.linalg.norm
    sizes = []

    def recording_norm(x, *args, **kwargs):
        sizes.append((np.size(x), np.shape(x)))
        return numpy_norm(x, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "norm", recording_norm)
        sp.sym_eig_top(Y, 2)
        too_big = [s for s in sizes if s[0] > TRIAL_N]
        sizes.clear()
        sp.sym_eig_top(Y_dense, 2)
        too_big += [s for s in sizes if s[0] > DENSE_N]
        sizes.clear()
        remainder, _ = _decomposition_remainder(m, TRIAL_N, 7)  # the decomposition's own norms too
        sp.operator_norm(remainder)
        too_big += [s for s in sizes if s[0] > TRIAL_N]
    assert too_big == []
    for M in (Y, Y_dense, remainder):
        bound = sp.RESIDUAL_RTOL * numpy_norm(M)
        assert abs(sp._residual_bound(M) - bound) <= 1e-14 * bound


def test_gate_holds_on_entries_whose_squares_overflow():
    # entries near 1e160: an unscaled sum of their squares overflows, which
    # would make the gate's bound inf, passing any pair
    A = _signed_trial_matrix(TRIAL_N, 2.6, 26)
    pairs, norm = sp.sym_eig_top(A, 2), sp.operator_norm(A)
    scale = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = A * scale
        assert np.isfinite(sp._residual_bound(big))
        big_pairs = sp.sym_eig_top(big, 2)
        big_norm = sp.operator_norm(big)
    assert np.all(np.abs(big_pairs.values - scale * pairs.values) <= 1e-12 * scale * np.abs(pairs.values))
    assert abs(big_norm - scale * norm) <= 1e-12 * scale * norm
    assert np.all(np.isfinite(big_pairs.residuals))


@pytest.mark.parametrize("n", [40, 520])  # the dense path, then the Lanczos path
def test_core_rejects_non_finite_upper_entries(n):
    # a trial's matrix is not scanned: the core's norm pass is its
    # finiteness check, on the dense and the Lanczos path and in the
    # histogram, for an entry on the diagonal, in a row's first or last
    # block, and for a NaN below the diagonal nothing is rejected, as
    # nothing reads it
    M = _matrix("wigner", n, 8, 0.0)
    solvers = (lambda Y: sp.sym_eig_top(Y, 2), sp.operator_norm, lambda Y: sp.esd_histogram(Y, 4, (-2.0, 2.0)))
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (n - 1, n - 1), (3, 4), (3, n - 1), (n - 2, n - 1)):
            A = M.copy()
            A[i, j] = bad
            for solve in solvers:
                with pytest.raises(ContractError, match="^matrix has non-finite entries$"):
                    solve(UpperTriangle(A))
    below = M.copy()
    below[np.tril_indices(n, -1)] = np.nan
    assert sp.operator_norm(UpperTriangle(below)) == sp.operator_norm(M)
    for got, want in zip(solvers[2](UpperTriangle(below.copy())), solvers[2](M.copy())):
        assert np.array_equal(got, want)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = below * 1e160
        bound = sp._residual_bound(big)
        assert abs(bound - 1e160 * sp._residual_bound(M)) <= 1e-14 * bound
        assert sp.operator_norm(UpperTriangle(big)) == pytest.approx(1e160 * sp.operator_norm(M), rel=1e-12)


# ---------------------------------------------------------------------------
# the dense fallback
# ---------------------------------------------------------------------------


def _no_convergence(monkeypatch):
    # a step cap too small for any trial matrix's pairs to converge
    monkeypatch.setattr(sp, "_LANCZOS_STEPS", 4)


def _bad_pair(A, k, **kwargs):
    """Unit vectors that are not eigenvectors, with plausible values."""
    n = A.shape[0]
    v, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, k)))
    return np.linspace(1.0, 2.0, k), v


def _bad_ritz_vectors(monkeypatch):
    # converged Ritz values whose vectors come out wrong: the gate must catch them
    monkeypatch.setattr(sp, "dgemm", lambda alpha, Q, S, **kwargs: _bad_pair(Q, S.shape[1])[1])


@pytest.mark.parametrize("fake", [_no_convergence, _bad_ritz_vectors], ids=["no-convergence", "bad-pair"])
def test_fallback_returns_the_dense_answer(monkeypatch, fake):
    n = sp._LANCZOS_MIN_N + 20
    M = _matrix("spiked", n, 3, 4.0)
    w_ref, v_ref = _dense_top(M, 2)
    dense_norm = float(max(abs(x) for x in eigvalsh(M)[[0, -1]]))
    fake(monkeypatch)
    assert _lanczos(M, 2, "LA") is None
    pairs = sp.sym_eig_top(M, 2)
    assert np.array_equal(pairs.values, w_ref)
    assert np.array_equal(np.abs(pairs.vectors), np.abs(v_ref))
    assert np.all(pairs.residuals <= sp.RESIDUAL_RTOL * np.linalg.norm(M))
    assert sp.operator_norm(M) == dense_norm


@pytest.mark.parametrize("n", [40, 520])  # the dense path, then the Lanczos path
def test_dense_residual_failure_raises_convergence_error(monkeypatch, n):
    M = _matrix("wigner", n, 4, 0.0)
    _no_convergence(monkeypatch)
    monkeypatch.setattr(sp, "eigh", lambda A, **kwargs: _bad_pair(A, 1))
    with pytest.raises(ConvergenceError, match="residual") as info:
        sp.sym_eig_top(M, 1)
    assert info.value.residual > sp.RESIDUAL_RTOL * np.linalg.norm(M)


def test_breakdown_falls_back_to_dense():
    # three distinct eigenvalues: the Krylov space is 3-dimensional, so
    # Lanczos breaks down after 3 steps having seen the repeated top once
    n = sp._LANCZOS_MIN_N
    diagonal = np.full(n, 1.0)
    diagonal[[7, n // 2]] = 3.0
    diagonal[-1] = -0.5
    M = np.diag(diagonal)
    assert _lanczos(M, 2, "LA") is None
    assert _lanczos(M, 2, "BE") is None
    pairs = sp.sym_eig_top(M, 2)
    assert np.array_equal(pairs.values, [3.0, 3.0])
    assert np.all(pairs.residuals == 0.0)
    assert sp.operator_norm(M) == 3.0


def test_import_leaves_arpack_unloaded():
    # no solver loads scipy.sparse: `import nlspike` and a full Lanczos
    # solve (every pair through the gate) leave it out, along with its
    # ~34 ms of start-up
    src = Path(sp.__file__).resolve().parents[1]
    code = (
        "import sys, nlspike\n"
        "from nlspike import spectral as sp\n"
        "from nlspike.distributions import Gaussian\n"
        "loaded = 'scipy.sparse' in sys.modules\n"
        "M = nlspike.mirror_upper(nlspike.sample_wigner(sp._LANCZOS_MIN_N, Gaussian(0, 1), 1).matrix)\n"
        "b = sp._residual_bound(M)\n"
        "assert sp._lanczos(M, 2, 'LA', b) is not None and sp._lanczos(M, 2, 'BE', b) is not None\n"
        "sp.sym_eig_top(M, 2), sp.operator_norm(M)\n"
        "print(loaded, 'scipy.sparse' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_lanczos_reads_the_triangle_lapack_reads():
    # asymmetry inside the symmetry tolerance: both solvers must see the
    # same (upper) triangle, or their answers part by about the asymmetry
    n = sp._LANCZOS_MIN_N
    M = _matrix("spiked", n, 6, 3.0)
    rng = np.random.default_rng(6)
    M += np.triu(rng.uniform(-0.4, 0.4, (n, n)) * sp.SYMMETRY_RTOL * np.abs(M).max(), 1)
    w_ref = eigh(M, lower=False, eigvals_only=True, subset_by_index=[n - 2, n - 1])[::-1]
    assert np.all(np.abs(sp.sym_eig_top(M, 2).values - w_ref) <= 1e-13 * w_ref[0])
    w_all = eigvalsh(M, lower=False)
    dense = max(-w_all[0], w_all[-1])
    assert abs(sp.operator_norm(M) - dense) <= 1e-13 * dense
    w_lower = eigvalsh(M)  # the other triangle's answer parts by about the asymmetry
    assert abs(max(-w_lower[0], w_lower[-1]) - dense) > 1e-13 * dense
