"""Symmetric eigendecomposition, operator norms, alignments, and ESDs.

Dense LAPACK solvers (tridiagonalization-based) back every operation; at
desk scale (n <= 4000) a full solve is cheap and has no convergence
ambiguity. Eigenvector signs are fixed deterministically: the entry of
largest magnitude (lowest index on ties) is made positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh

from .errors import ParameterError, ContractError

SYMMETRY_RTOL = 1e-9
_STRIP_ROWS = 64  # rows per strip of the symmetry check, as matrixgen.BLOCK_ROWS


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Top eigenpairs sorted descending, with per-pair residuals."""

    values: np.ndarray  # (k,), descending
    vectors: np.ndarray  # (n, k), orthonormal columns
    residuals: np.ndarray  # (k,), ||M v - value v||_2


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {M.shape}")
    # max |M| without an |M| temporary; NaN and +-inf propagate into it
    scale = max(M.max(), -M.min()) if M.size else 0.0
    if not np.isfinite(scale):
        raise ContractError("matrix has non-finite entries")
    if scale > 0.0:
        # max |M - M^T| by row strips: rows [lo, hi) against columns lo..
        # reach every pair (i, j) with i <= j, with strip-sized temporaries
        n = M.shape[0]
        asym = 0.0
        for lo in range(0, n, _STRIP_ROWS):
            hi = min(lo + _STRIP_ROWS, n)
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


def sym_eig_top(M: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix by algebraic value."""
    M = _check_symmetric(M)
    n = M.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"k must lie in [1, {n}], got {k}")
    if k == n:
        w, v = eigh(M, check_finite=False)
    else:
        w, v = eigh(M, subset_by_index=[n - k, n - 1], check_finite=False)
    w = w[::-1].copy()
    v = _fix_signs(v[:, ::-1])
    residuals = np.linalg.norm(M @ v - v * w, axis=0)
    return EigenPairs(w, v, residuals)


def operator_norm(M: np.ndarray) -> float:
    """max(|lambda_max|, |lambda_min|) of a symmetric matrix."""
    M = _check_symmetric(M)
    if M.shape[0] == 0:
        return 0.0
    w = eigvalsh(M, check_finite=False)
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
    in the denominator.
    """
    lo, hi = bounds
    if bin_count < 1:
        raise ParameterError(f"bin_count must be >= 1, got {bin_count}")
    if not (lo < hi):
        raise ParameterError(f"need lo < hi, got ({lo}, {hi})")
    M = _check_symmetric(M)
    w = eigvalsh(M, check_finite=False)
    counts, edges = np.histogram(w, bins=bin_count, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    density = counts / (len(w) * widths)
    return centers, density
