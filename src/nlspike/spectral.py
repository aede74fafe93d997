"""Symmetric eigendecomposition, operator norms, alignments, and ESDs.

Every solver reads only the upper triangle of its matrix, diagonal
included, as LAPACK's symmetric routines read one triangle: the Lanczos
matvec is BLAS dsymv on the lower triangle of the Fortran-ordered view
M.T (no copy), and `eigh` / `eigvalsh` run on M.T with lower=True.
`sym_eig_top`, `operator_norm` and `esd_histogram` take either a
caller's matrix, which `_check_symmetric` scans in full (square, finite,
symmetric within SYMMETRY_RTOL), or a `matrixgen.UpperTriangle`, the form
every builder in the package returns, which is symmetric by
construction: nothing below its diagonal is read, so it is not scanned.
Each then takes ||M||_F in one pass over the triangle
(`_residual_bound`); a NaN or inf entry makes it non-finite and raises
ContractError, so finiteness is checked on every path. The first two
call one solver core, `_solve`, which takes that norm before its first
matvec and bounds the residual gate with it.

The extremal eigenpairs come from one Lanczos solver once n >=
_LANCZOS_MIN_N: Lanczos without restarts, from a fixed start vector, so
results are deterministic. It keeps its whole basis, but projects a new
vector out of it only where Simon's estimate of the lost orthogonality
calls for it (partial reorthogonalization: 4-24 projections in a solve
of 20-176 steps on signed and remainder matrices at n 300-2000, about
every other step on SBM images). It tests its Ritz pairs at the step it
predicts the slowest to converge, and stops at the gate's tolerance (a
Ritz pair's residual estimate <= RESIDUAL_RTOL times its |value|); the
gate still checks every Lanczos pair: each must pass
||M v - value v|| <= RESIDUAL_RTOL * ||M||_F (the Frobenius norm bounds
the spectral norm from above). When Lanczos breaks down or reaches its
step cap, a pair misses the gate, or n is below the crossover, the dense
LAPACK solver runs instead, and a dense top-k pair that misses the gate
raises ConvergenceError. The gate certifies eigenpairs, not that they
are the extremal ones: that rests on Lanczos converging to the ends of
the spectrum from a start vector with a component along them.
`esd_histogram` needs the full spectrum and always runs dense.

The gate's norms (`dnrm2`), the matvec (`dsymv`), Lanczos' work on its
basis (`ddot`, `daxpy`, `dgemv`, `dgemm`) and on its tridiagonal
(`dsbmv`; LAPACK's `dstebz` and `dstein`) all call scipy's BLAS.
numpy loads an OpenBLAS of its own, with its own pool of worker
threads, and a threaded numpy call on n x n data (`np.linalg.norm(M)` is
a `ddot` over all n^2 entries) leaves that pool's workers spinning after
it returns, where they compete with scipy's `dsymv` workers and the next
trial's draw for the cores. So no n x n-sized numpy BLAS call may sit on
the trial path. numpy's vector-sized calls (`alignment`, the spike norms
of `decomposition`) may: OpenBLAS runs a ddot of at most 10^4 entries on
one thread.

Eigenvector signs are fixed deterministically: the entry of largest
magnitude (lowest index on ties) is made positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import eigh, eigvalsh
from scipy.linalg.blas import daxpy, ddot, dgemm, dgemv, dnrm2, dsbmv, dsymv, idamax
from scipy.linalg.lapack import dstebz, dstein

from .errors import ContractError, ConvergenceError, ParameterError
from .matrixgen import UpperTriangle, row_blocks
from .rng import generator

SYMMETRY_RTOL = 1e-9
# Residual gate relative to ||M||_F, also Lanczos' stopping tolerance. On the
# trials' matrices (n 500-2000) dense pairs measured below 1e-16 of it and
# Lanczos pairs below 5e-12; a vector that is no eigenvector leaves about
# ||M||_2 >= ||M||_F / sqrt(n).
RESIDUAL_RTOL = 1e-10
# Smallest n solved by Lanczos: from it on Lanczos beat dense LAPACK for
# k = 1, 2 and 4 on signed, decompose-remainder and SBM matrices at BLAS 1
# and 2 (n 200-500); at n = 250 dense was faster for k = 4.
_LANCZOS_MIN_N = 300
_LANCZOS_COLUMNS = 64  # basis columns per block; blocks are added as the solve needs them
_LANCZOS_CHECK = 8  # steps to the first convergence test, and between tests with no rate to go by
_LANCZOS_JUMP = (2, 32)  # fewest and most steps between predicted convergence tests
# Share of a long predicted jump between tests that is taken. The rate since
# the last test mostly underestimates the next one, as convergence speeds up,
# so a whole jump overshot convergence by up to 11 steps on trial matrices
# (n 300-2000); at 0.6, with jumps of up to _LANCZOS_CHECK steps taken whole,
# by 0-6, for 3-9 tests a solve (3-20 at one every 8 steps).
_LANCZOS_LEAD = 0.6
_LANCZOS_STEPS = 600  # step cap, twice the most measured at n = 8000 (288; 176-208 at n = 4000)
_LANCZOS_SEED = 0x5EED  # seeds the start vector
# Simon's estimate of a basis vector's largest inner product with the earlier
# ones that triggers a projection. At sqrt(eps), semi-orthogonality, the Ritz
# vectors of signed n = 1000-2000 matrices lost up to 3e-12 of orthogonality;
# at 1e-10 they kept it to 1e-13, but a far end that converged early could
# leak back into a wanted Ritz vector at 5e-10, whose residual then missed
# the gate. At 1e-11: 4-24 projections a solve on signed and remainder
# matrices at n 500-2000, 0-6 more.
_LANCZOS_ORTHO = 1e-11
_EPS = np.finfo(float).eps
_EPS23 = _EPS ** (2.0 / 3.0)  # ARPACK's floor on |theta| in its convergence test
_SQRT_EPS = _EPS**0.5


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Top eigenpairs sorted descending, with per-pair residuals."""

    values: np.ndarray  # (k,), descending
    vectors: np.ndarray  # (n, k), orthonormal columns
    residuals: np.ndarray  # (k,), ||M v - value v||_2 over M's upper triangle


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
    """S u for S, the symmetric matrix of M's upper triangle. M.T is a
    Fortran-ordered view whose lower triangle that is, so dsymv reads it
    with no copy."""
    return dsymv(1.0, M.T, u, lower=1)


def _residuals(M: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.array([dnrm2(_matvec(M, v[:, j]) - w[j] * v[:, j]) for j in range(len(w))])


def _residual_bound(M: np.ndarray) -> float:
    """RESIDUAL_RTOL ||S||_F for S, the symmetric matrix of M's upper
    triangle, in one pass over it: scipy's dnrm2 (the matvec's BLAS, not
    numpy's; see the module docstring) of each row's part right of the
    diagonal and of the diagonal, combined by math.hypot. Both scale their
    sums of squares, so entries near 1e160 cannot overflow the bound to
    inf, which would pass any pair. A NaN or inf in the triangle makes the
    norm non-finite: ContractError, as for a norm that overflows."""
    n = M.shape[0]
    flat = M.ravel()  # a view of a C-ordered M
    rows = [dnrm2(flat, n - i - 1, i * (n + 1) + 1) for i in range(n - 1)]
    norm = math.hypot(math.sqrt(2.0) * math.hypot(*rows), dnrm2(flat, n, 0, n + 1))
    if not math.isfinite(norm):
        raise ContractError("matrix has non-finite entries")
    return RESIDUAL_RTOL * norm


def _solve(M: np.ndarray, k: int, which: str):
    """The solver core of sym_eig_top ("LA": the k largest pairs) and
    operator_norm ("BE", k = 2: a pair at each end) on the symmetric
    matrix of M's upper triangle, nothing below the diagonal read. Returns
    (values ascending, vectors, residuals); the dense "BE" path returns
    LAPACK's whole spectrum, values only, with no residual to check.

    The norm pass comes first, so a non-finite M raises ContractError
    before any matvec, and its bound gates the Lanczos and the dense pairs
    alike."""
    bound = _residual_bound(M)
    n = M.shape[0]
    if n >= _LANCZOS_MIN_N and 2 * k < _LANCZOS_COLUMNS:  # a few pairs, as the trials ask
        found = _lanczos(M, k, which, bound)
        if found is not None:
            return found
    if which == "BE":
        return eigvalsh(M.T, lower=True, check_finite=False), None, None
    subset = None if k == n else [n - k, n - 1]
    w, v = eigh(M.T, lower=True, subset_by_index=subset, check_finite=False)
    residuals = _residuals(M, w, v)
    worst = float(np.max(residuals))
    if not worst <= bound:
        raise ConvergenceError(f"dense eigh residual {worst:.3e} exceeds {RESIDUAL_RTOL:g} * ||M||_F", worst)
    return w, v, residuals


def _lanczos(M: np.ndarray, k: int, which: str, bound: float):
    """k extremal pairs of the symmetric matrix of M's upper triangle, the
    k largest ("LA") or k // 2 smallest and the rest largest ("BE"), as
    (values ascending, vectors, residuals), or None on breakdown, at the
    step cap, or if any pair's residual exceeds the gate's bound.

    Lanczos without restarts (Paige 1971; Parlett, The Symmetric Eigenvalue
    Problem): the whole basis is kept, so the wanted Ritz pairs of the
    tridiagonal can be tested at any step, and the solve stops once each
    meets ARPACK's convergence test
    |beta_m s_mi| <= RESIDUAL_RTOL max(eps^(2/3), |theta_i|).
    A test (LAPACK's dstebz and dstein on the tridiagonal) costs as much
    as about 13 matvecs at n = 400, so they are spaced by prediction: the
    first at step _LANCZOS_CHECK (past k), each next one where the
    slowest pair's ratio of estimate to tolerance, falling at the rate it
    fell since the last test, reaches 1 (`_steps_to_pass`). Trial matrices
    at n 300-2000 took 3-9 tests a solve, against 3-20 at one every
    _LANCZOS_CHECK steps, and stopped 0-6 steps past convergence.

    Partial reorthogonalization (Simon 1984): Simon's recurrence estimates
    the inner products of each new basis vector with the earlier ones, and
    the vector is projected out of the whole basis only at the step the
    largest estimate passes _LANCZOS_ORTHO and at the step after, where
    full reorthogonalization projects at every step.

    The Ritz test reads the tridiagonal alone, so it cannot see what the
    basis lost: a Ritz vector that took up a component along an eigenvector
    far from its value passes it with a residual of about that component
    times the gap. Such a leak comes from an end that converged early and
    re-entered where the basis lost orthogonality (at _LANCZOS_ORTHO =
    1e-10, a far negative outlier's 5e-10 in a top pair missed the gate by
    9 %), or from a fault in the basis arithmetic. The gate measures each
    pair's true residual, so it catches any such leak that exceeds its
    bound, and the caller then solves densely.
    """
    n = M.shape[0]
    steps = min(_LANCZOS_STEPS, n)
    blocks = []  # the basis, in Fortran-ordered blocks of _LANCZOS_COLUMNS columns
    band = np.zeros((2, steps), order="F")  # the tridiagonal in LAPACK's lower band storage
    alpha, beta = band
    # Simon's estimates of q_j^T q_k (omega) and q_(j-1)^T q_k (previous), k <= j
    omega, previous = np.zeros(steps + 1), np.zeros(steps + 1)
    omega[0] = 1.0
    rounding = _EPS * np.sqrt(n)  # a vector's loss of orthogonality from one step's rounding
    project_next = False
    test_at = _LANCZOS_CHECK * (k // _LANCZOS_CHECK + 1)  # the first Ritz test, past step k
    last_ratio, last_test = None, 0
    q = generator(_LANCZOS_SEED).standard_normal(n)
    q /= dnrm2(q)
    for j in range(steps):
        b, c = divmod(j, _LANCZOS_COLUMNS)
        if c == 0:
            blocks.append(np.empty((n, _LANCZOS_COLUMNS), order="F"))
        blocks[b][:, c] = q
        basis = blocks[:b] + [blocks[b][:, : c + 1]]
        w = _matvec(M, q)
        scale = dnrm2(w)
        if j:
            w = daxpy(q_before, w, a=-beta[j - 1])
        alpha[j] = ddot(q, w)
        w = daxpy(q, w, a=-alpha[j])
        beta[j] = dnrm2(w)
        drift = 0.0
        if beta[j] > _SQRT_EPS * scale:  # else a breakdown, below
            drift = _next_omega(band, j, omega, previous, rounding * scale)
            omega, previous = previous, omega
        if project_next or drift > _LANCZOS_ORTHO:
            # one classical Gram-Schmidt pass against the basis, and a second
            # one only if the first cancels (the DGKS test)
            before = beta[j]
            for _ in range(2):
                w = _project_out(basis, w)
                beta[j] = dnrm2(w)
                if beta[j] >= 0.717 * before:
                    break
                before = beta[j]
            omega[: j + 1] = rounding
            project_next = not project_next
        if beta[j] <= _SQRT_EPS * scale:
            # breakdown: what is left of M q is rounding, so the basis spans
            # an invariant subspace, which may miss a wanted pair (a
            # repeated eigenvalue shows in it once)
            return None
        m = j + 1
        if m == test_at or m == steps:
            theta, S = _ritz(alpha[:m], beta[: m - 1], k, which)
            estimate = beta[j] * np.abs(S[-1])
            tolerance = RESIDUAL_RTOL * np.maximum(_EPS23, np.abs(theta))
            if np.all(estimate <= tolerance):
                v = np.zeros((n, len(theta)), order="F")
                for B, rows in zip(basis, np.split(S, range(_LANCZOS_COLUMNS, m, _LANCZOS_COLUMNS))):
                    v = dgemm(1.0, B, rows, beta=1.0, c=v, overwrite_c=1)
                residuals = _residuals(M, theta, v)
                if not np.all(residuals <= bound):
                    return None
                return theta, v, residuals
            ratio = estimate / tolerance
            test_at = m + _steps_to_pass(ratio, last_ratio, m - last_test)
            last_ratio, last_test = ratio, m
        q_before, q = q, w / beta[j]
    return None


def _steps_to_pass(ratio: np.ndarray, last_ratio, span: int) -> int:
    """Steps from a failed Ritz test to the next one, from each wanted
    pair's ratio of residual estimate to tolerance now (`ratio`) and at
    the last test, `span` steps ago. If every pair yet to pass keeps
    falling at the geometric rate it fell since then, the slowest passes
    in `steps`; the jump is that, shortened to _LANCZOS_LEAD of it when
    longer than _LANCZOS_CHECK, but not below _LANCZOS_CHECK, and clamped
    to _LANCZOS_JUMP. _LANCZOS_CHECK after the first test, or when a
    pair yet to pass did not fall."""
    if last_ratio is None:
        return _LANCZOS_CHECK
    pending = ratio >= 1.0  # a pair that failed has a ratio of at least 1.0, rounded
    fall = last_ratio[pending] / ratio[pending]
    if not np.all(fall > 1.0):
        return _LANCZOS_CHECK
    steps = span * float(np.max(np.log(ratio[pending]) / np.log(fall)))
    jump = max(math.ceil(_LANCZOS_LEAD * steps), min(math.ceil(steps), _LANCZOS_CHECK))
    return min(max(jump, _LANCZOS_JUMP[0]), _LANCZOS_JUMP[1])


def _next_omega(band: np.ndarray, j: int, omega: np.ndarray, previous: np.ndarray, rounding: float) -> float:
    """Simon's estimates of q_(j+1)^T q_k, k <= j + 1, written over previous
    (those of q_(j-1)) from omega (those of q_j), and the largest of them
    in magnitude over k < j. The recurrence, from the Lanczos relation
    M q_k = beta_(k-1) q_(k-1) + alpha_k q_k + beta_k q_(k+1) (T_(j+1)'s
    rows, one banded matvec):
    beta_j omega'_k = (T_(j+1) omega)_k - alpha_j omega_k - beta_(j-1) previous_k
    plus the rounding term with the sign of the rest; q_(j+1)^T q_j is
    rounding / beta_j."""
    a_j, b_j = band[:, j]
    drift = 0.0
    if j:
        t = dsbmv(1, 1.0 / b_j, band[:, : j + 1], omega, beta=-band[1, j - 1] / b_j, y=previous, overwrite_y=1, lower=1)
        t = daxpy(omega, t, n=j, a=-a_j / b_j)[:j]
        t += np.copysign(rounding / b_j, t)
        drift = abs(t[idamax(t)])
    previous[j : j + 2] = rounding / b_j, 1.0
    return drift


def _project_out(basis: list, w: np.ndarray) -> np.ndarray:
    """w minus its components along the basis blocks' orthonormal columns,
    in place: one classical Gram-Schmidt pass."""
    h = [dgemv(1.0, B, w, trans=1) for B in basis]
    for B, coefficients in zip(basis, h):
        w = dgemv(-1.0, B, coefficients, beta=1.0, y=w, overwrite_y=1)
    return w


def _ritz(d: np.ndarray, e: np.ndarray, k: int, which: str):
    """The wanted eigenpairs (values ascending) of the tridiagonal with
    diagonal d and off-diagonal e: LAPACK's bisection (dstebz) for each
    end's values, then inverse iteration (dstein) for their vectors. It
    is scaled to entries of at most 1 first: the bisection fails on
    entries near 1e160."""
    m = len(d)
    scale = max(np.max(np.abs(d)), np.max(e))
    d, e = d / scale, e / scale
    low = k // 2 if which == "BE" else 0
    ends = [(1, low)] if low else []
    ends.append((m - (k - low) + 1, m))
    found = [dstebz(d, e, 2, 0.0, 0.0, il, iu, 0.0, "B") for il, iu in ends]
    theta = np.concatenate([w[:count] for count, w, _, _, _ in found])
    iblock = np.zeros(m, dtype=found[0][2].dtype)  # dstein takes it at length m
    iblock[:k] = np.concatenate([block[:count] for count, _, block, _, _ in found])
    S, info = dstein(d, e, theta, iblock, found[0][3])
    if info or any(f[-1] for f in found):
        raise LinAlgError("dstebz or dstein failed on the Lanczos tridiagonal")
    return theta * scale, S


def _readable(M) -> np.ndarray:
    """The buffer whose upper triangle the core reads: an UpperTriangle's
    own, symmetric by construction, or a caller's matrix after the full
    symmetry check."""
    return M.matrix if isinstance(M, UpperTriangle) else _check_symmetric(M)


def sym_eig_top(M: np.ndarray | UpperTriangle, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix by algebraic value: a
    caller's matrix, checked in full, or an UpperTriangle, read in its
    upper triangle only."""
    M = _readable(M)
    n = M.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"k must lie in [1, {n}], got {k}")
    w, v, residuals = _solve(M, k, "LA")
    return EigenPairs(w[::-1].copy(), _fix_signs(v[:, ::-1]), residuals[::-1].copy())


def operator_norm(M: np.ndarray | UpperTriangle) -> float:
    """max(|lambda_max|, |lambda_min|) of a symmetric matrix, taken as
    sym_eig_top takes it.

    Lanczos asks for one pair at each end ("BE"): asking for the single
    pair of largest magnitude ("LM") can settle on the wrong end when one
    end is isolated and the other clustered.
    """
    M = _readable(M)
    if M.shape[0] == 0:
        return 0.0
    w, _, _ = _solve(M, 2, "BE")
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
    M: np.ndarray | UpperTriangle, bin_count: int, bounds: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue histogram normalized against the FULL spectrum count.

    sum(density * width) equals the fraction of eigenvalues inside
    [lo, hi); eigenvalues outside the range are excluded but still count
    in the denominator. M is taken as sym_eig_top takes it and consumed:
    LAPACK works in its buffer, read as the Fortran-ordered M.T, whose
    lower triangle is M's upper one.
    """
    lo, hi = bounds
    if bin_count < 1:
        raise ParameterError(f"bin_count must be >= 1, got {bin_count}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError(f"need finite lo < hi, got ({lo}, {hi})")
    M = _readable(M)
    _residual_bound(M)  # the finiteness check, which an UpperTriangle skips in _readable
    w = eigvalsh(M.T, lower=True, overwrite_a=True, check_finite=False)
    counts, edges = np.histogram(w, bins=bin_count, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    density = counts / (len(w) * widths)
    return centers, density
