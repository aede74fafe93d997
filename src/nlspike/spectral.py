"""Symmetric eigendecomposition, operator norms, alignments, and ESDs.

The extremal eigenpairs behind `sym_eig_top` and `operator_norm` come
from one Lanczos solver once n >= _LANCZOS_MIN_N: ARPACK's implicitly
restarted Lanczos (Lehoucq-Sorensen-Yang 1998) from a fixed start vector,
so results are deterministic, on a matvec that reads M's lower triangle
(BLAS dsymv, no copy), the triangle LAPACK reads too. Every Lanczos pair
must pass the residual gate ||M v - value v|| <= RESIDUAL_RTOL * ||M||_F
(the Frobenius norm bounds the spectral norm from above). When ARPACK
fails, a pair misses the gate, or n is below the crossover, the dense
LAPACK solver runs instead, and a dense top-k pair that misses the gate
raises ConvergenceError. The gate certifies eigenpairs, not that they are
the extremal ones: that rests on Lanczos converging to the ends of the
spectrum from a start vector with a component along them.
`esd_histogram` needs the full spectrum and always runs dense.

Eigenvector signs are fixed deterministically: the entry of largest
magnitude (lowest index on ties) is made positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh
from scipy.linalg.blas import dsymv

from .errors import ContractError, ConvergenceError, ParameterError
from .matrixgen import row_blocks
from .rng import generator

SYMMETRY_RTOL = 1e-9
# Residual gate relative to ||M||_F. On the trials' matrices (n 500-2000)
# dense pairs measured below 1e-16 of it and Lanczos pairs below 5e-14;
# a vector that is no eigenvector leaves about ||M||_2 >= ||M||_F / sqrt(n).
RESIDUAL_RTOL = 1e-10
# Smallest n solved by Lanczos: below it dense LAPACK is as fast (measured
# on signed, decompose-remainder and SBM matrices at BLAS 1 and 2, n 300-800).
_LANCZOS_MIN_N = 500
_LANCZOS_NCV = 40  # Lanczos basis size; fewest matvecs of 20/30/40/60 on those matrices
_LANCZOS_RESTARTS = 100  # about 9x the restarts those matrices need at n = 2000
_LANCZOS_SEED = 0x5EED  # seeds the start vector and ARPACK's restart vectors
# ARPACK tolerance of the norm, relative to each Ritz value. A Ritz value
# with residual r lies within r (r^2 / gap when isolated) of an eigenvalue,
# so the norm keeps 1e-12 relative accuracy with a quarter fewer matvecs
# than tol = 0, which the top-k pairs keep because callers use the vectors.
_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Top eigenpairs sorted descending, with per-pair residuals."""

    values: np.ndarray  # (k,), descending
    vectors: np.ndarray  # (n, k), orthonormal columns
    residuals: np.ndarray  # (k,), ||M v - value v||_2 over M's lower triangle


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {M.shape}")
    # max |M| without an |M| temporary; NaN and +-inf propagate into it
    scale = max(M.max(), -M.min()) if M.size else 0.0
    if not np.isfinite(scale):
        raise ContractError("matrix has non-finite entries")
    if scale > 0.0:
        # max |M - M^T| by row blocks: rows [lo, hi) against columns lo..
        # reach every pair (i, j) with i <= j, with block-sized temporaries
        asym = 0.0
        for lo, hi in row_blocks(M.shape[0]):
            asym = max(asym, np.max(np.abs(M[lo:hi, lo:] - M[lo:, lo:hi].T)))
        if asym > SYMMETRY_RTOL * scale:
            raise ContractError(
                f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}"
            )
    return M


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))  # first max wins ties
        if out[i, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def _matvec(M: np.ndarray, u: np.ndarray) -> np.ndarray:
    """S u for S, the symmetric matrix of M's lower triangle: the triangle
    LAPACK's eigh and eigvalsh read. M.T is a Fortran-ordered view, so
    dsymv reads it with no copy."""
    return dsymv(1.0, M.T, u)


def _residuals(M: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(_matvec(M, v[:, j]) - w[j] * v[:, j]) for j in range(len(w))])


def _residual_bound(M: np.ndarray) -> float:
    return RESIDUAL_RTOL * float(np.linalg.norm(M))


def _lanczos(M: np.ndarray, k: int, which: str, tol: float = 0.0):
    """k extremal pairs of M by ARPACK (`which` and `tol` as in eigsh), as
    (values ascending, vectors, residuals), or None if ARPACK fails or any
    pair misses the residual gate."""
    # imported here: scipy.sparse costs every `import nlspike` ~34 ms
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = M.shape[0]
    op = LinearOperator((n, n), matvec=lambda u: _matvec(M, u), dtype=float)
    rng = generator(_LANCZOS_SEED)
    v0 = rng.standard_normal(n)
    try:
        w, v = eigsh(
            op, k, which=which, v0=v0, ncv=_LANCZOS_NCV, maxiter=_LANCZOS_RESTARTS, tol=tol, rng=rng
        )
    except ArpackError:  # ArpackNoConvergence included
        return None
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    residuals = _residuals(M, w, v)
    if not np.all(residuals <= _residual_bound(M)):
        return None
    return w, v, residuals


def sym_eig_top(M: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix by algebraic value."""
    M = _check_symmetric(M)
    n = M.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"k must lie in [1, {n}], got {k}")
    found = None
    if n >= _LANCZOS_MIN_N and 2 * k < _LANCZOS_NCV:  # room for twice the wanted pairs
        found = _lanczos(M, k, "LA")
    if found is None:
        if k == n:
            w, v = eigh(M, check_finite=False)
        else:
            w, v = eigh(M, subset_by_index=[n - k, n - 1], check_finite=False)
        residuals = _residuals(M, w, v)
        worst = float(np.max(residuals))
        if not worst <= _residual_bound(M):
            raise ConvergenceError(
                f"dense eigh residual {worst:.3e} exceeds {RESIDUAL_RTOL:g} * ||M||_F", worst
            )
        found = w, v, residuals
    w, v, residuals = found
    return EigenPairs(w[::-1].copy(), _fix_signs(v[:, ::-1]), residuals[::-1].copy())


def operator_norm(M: np.ndarray) -> float:
    """max(|lambda_max|, |lambda_min|) of a symmetric matrix.

    Lanczos asks for one pair at each end ("BE"): asking for the single
    pair of largest magnitude ("LM") can settle on the wrong end when one
    end is isolated and the other clustered. The dense path is LAPACK's
    full spectrum, values only, so it has no residual to check.
    """
    M = _check_symmetric(M)
    n = M.shape[0]
    if n == 0:
        return 0.0
    found = _lanczos(M, 2, "BE", _NORM_TOL) if n >= _LANCZOS_MIN_N else None
    w = found[0] if found is not None else eigvalsh(M, check_finite=False)
    return float(max(abs(w[0]), abs(w[-1])))


def alignment(u: np.ndarray, v: np.ndarray) -> float:
    """|<u, v>| / (||u|| ||v||) in [0, 1]."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ParameterError(f"length mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ParameterError("alignment of a zero vector is undefined")
    return float(min(abs(float(u @ v)) / (nu * nv), 1.0))


def esd_histogram(
    M: np.ndarray, bin_count: int, bounds: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue histogram normalized against the FULL spectrum count.

    sum(density * width) equals the fraction of eigenvalues inside
    [lo, hi); eigenvalues outside the range are excluded but still count
    in the denominator. M is consumed: LAPACK works in its buffer, read as
    the Fortran-ordered M.T, whose lower triangle is M's upper one.
    """
    lo, hi = bounds
    if bin_count < 1:
        raise ParameterError(f"bin_count must be >= 1, got {bin_count}")
    if not (lo < hi):
        raise ParameterError(f"need lo < hi, got ({lo}, {hi})")
    M = _check_symmetric(M)
    w = eigvalsh(M.T, overwrite_a=True, check_finite=False)
    counts, edges = np.histogram(w, bins=bin_count, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    density = counts / (len(w) * widths)
    return centers, density
