"""Closed-form and QVE-based spectral predictions.

Conventions: every Stieltjes transform here satisfies m(z) ~ -1/z as
|z| -> infinity and maps the upper half-plane into itself (Herglotz).
The semicircle transform is the branch of the quadratic
sigma^2 m^2 + z m + 1 = 0 with that behaviour.

The two-block quadratic vector equation

    z m1 + beta sigma^2 m1^2 + (1-beta) sigma_bar^2 m1 m2 + 1 = 0
    z m2 + beta sigma_bar^2 m1 m2 + (1-beta) sigma^2 m2^2 + 1 = 0

is solved by a damped fixed point on m_i <- -1/(z + (S m)_i) with a
Newton polish once the iterate is close; the Herglotz property is
enforced on every accepted iterate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import Distribution
from .errors import ConvergenceError, ParameterError
from .nonlinearity import (
    NonlinearFn,
    derivative_moment,
    even_odd_index,
    gamma_moment,
    sd_f,
    sd_f_centered,
    signal_constant_index,
    DEFAULT_INDEX_TOL,
    DEFAULT_K_MAX,
)

KAPPA_DEAD_ZONE = 1e-9


def stieltjes_semicircle(z: complex, sigma: float) -> complex:
    """Semicircle Stieltjes transform at spectral parameter z.

    Returns the root of sigma^2 m^2 + z m + 1 = 0 with m(z) ~ -1/z and
    positive imaginary part on the upper half-plane. Real z strictly
    inside the support [-2 sigma, 2 sigma] has no Herglotz boundary
    value and is rejected.
    """
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    z = complex(z)
    if z.imag == 0.0 and abs(z.real) <= 2.0 * sigma:
        raise ParameterError(f"z={z} lies inside the spectral support [-2s, 2s]")
    root = cmath.sqrt(z - 2.0 * sigma) * cmath.sqrt(z + 2.0 * sigma)
    # (-z + root)/(2 sigma^2) rewritten to avoid cancellation at large |z|
    return -2.0 / (z + root)


def semicircle_density(x, sigma: float):
    """sqrt(4 sigma^2 - x^2) / (2 pi sigma^2) on the support, else 0."""
    x = np.asarray(x, dtype=float)
    inside = np.clip(4.0 * sigma**2 - x * x, 0.0, None)
    return np.sqrt(inside) / (2.0 * math.pi * sigma**2)


def bbp_prediction(lam: float, sigma_w: float) -> tuple[float, float]:
    """(top eigenvalue limit, squared alignment limit) for a rank-one
    spike of strength lam over noise of entry deviation sigma_w."""
    if not (lam > 0.0 and sigma_w > 0.0):
        raise ParameterError(f"lam and sigma_w must be > 0, got {lam}, {sigma_w}")
    if lam <= sigma_w:
        return 2.0 * sigma_w, 0.0
    return lam + sigma_w**2 / lam, 1.0 - sigma_w**2 / lam**2


# ---------------------------------------------------------------------------
# Regime predictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimePrediction:
    """Phase-transition verdict for one model configuration.

    regime is one of subcritical, critical, supercritical plus the
    short-circuit verdicts sign-unrecoverable (no odd contribution),
    signal-unrecoverable (no community contribution), and
    trivially-recoverable (zeroth-order community contribution).
    outlier_limit is a float, or the string "diverges" above the
    critical exponent. alignment_limit is the unsquared alignment
    |<u, x>|, whereas bbp_prediction returns its square. at_threshold
    flags the unstable dead zone |kappa - sigma_f| <= 1e-9 where the
    limit theorems do not apply.
    """

    model: str
    regime: str
    threshold_exponent: Fraction | None
    kappa: float | None
    sigma_f: float
    outlier_limit: float | str
    alignment_limit: float
    which_eigenpair: int
    indices: dict[str, float]
    at_threshold: bool = False

    def to_json(self) -> dict:
        te = self.threshold_exponent
        return {
            "model": self.model,
            "regime": self.regime,
            "threshold_exponent": None if te is None else f"{te.numerator}/{te.denominator}",
            "kappa": self.kappa,
            "sigma_f": self.sigma_f,
            "outlier_limit": self.outlier_limit,
            "alignment_limit": self.alignment_limit,
            "which_eigenpair": self.which_eigenpair,
            "indices": {k: (None if math.isinf(v) else int(v)) for k, v in self.indices.items()},
            "at_threshold": self.at_threshold,
        }


def _compare_alpha(alpha, threshold: Fraction) -> int:
    """-1/0/+1 for alpha below/at/above threshold; float alpha snaps
    to the exact rational within 1e-12."""
    a = Fraction(alpha)
    if isinstance(alpha, float) and abs(a - threshold) <= Fraction(1, 10**12):
        return 0
    if a < threshold:
        return -1
    return 0 if a == threshold else 1


def _critical_limits(kappa: float, sigma_f: float) -> tuple[float | str, float, bool]:
    """(outlier, alignment, at_threshold) at the critical exponent."""
    if abs(kappa - sigma_f) <= KAPPA_DEAD_ZONE:
        return 2.0 * sigma_f, 0.0, True
    if kappa > sigma_f:
        return kappa + sigma_f**2 / kappa, math.sqrt(1.0 - sigma_f**2 / kappa**2), False
    return 2.0 * sigma_f, 0.0, False


def signed_recovery_prediction(
    f: NonlinearFn,
    d: Distribution,
    c_lambda: float,
    alpha,
    tol: float = DEFAULT_INDEX_TOL,
    k_max: int = DEFAULT_K_MAX,
) -> RegimePrediction:
    """Recovery verdict for a Rademacher-normalized signal under i.i.d.
    noise with entry law d.

    The signal-carrying eigenpair is the second one when the even index
    precedes the odd one (the constant spike outgrows the signal spike),
    else the first. kappa = c^Io mu_{f^(Io)} / Io! against
    sigma_f = SD(f(Z)).
    """
    i_e, i_o = even_odd_index(f, d, tol, k_max)
    sigma_f = sd_f(f, d)
    indices = {"I_e": float(i_e), "I_o": float(i_o)}
    which = 2 if i_e < i_o else 1
    if math.isinf(i_o):
        return RegimePrediction(
            "wigner", "sign-unrecoverable", None, None, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    i_o = int(i_o)
    threshold = Fraction(i_o - 1, 2 * i_o)
    kappa = c_lambda**i_o / math.factorial(i_o) * derivative_moment(f, i_o, d)
    side = _compare_alpha(alpha, threshold)
    if side < 0:
        return RegimePrediction(
            "wigner", "subcritical", threshold, kappa, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    if side > 0:
        return RegimePrediction(
            "wigner", "supercritical", threshold, kappa, sigma_f,
            "diverges", 1.0, which, indices,
        )
    outlier, align, at_thr = _critical_limits(kappa, sigma_f)
    return RegimePrediction(
        "wigner", "critical", threshold, kappa, sigma_f,
        outlier, align, which, indices, at_thr,
    )


def sbm_recovery_prediction(
    f: NonlinearFn,
    d: Distribution,
    d_bar: Distribution,
    c_lambda: float,
    alpha,
    tol: float = DEFAULT_INDEX_TOL,
    k_max: int = DEFAULT_K_MAX,
) -> RegimePrediction:
    """Community-recovery verdict for the transformed two-block model.

    Closed forms hold for the balanced case beta = 1/2, where the noise
    bulk is a semicircle of deviation sigma_f = sqrt((s^2 + sbar^2)/2);
    for other beta use sbm_numeric_outlier on the QVE. kappa =
    c^Js (gamma_Js + (-1)^(Js+1) gammabar_Js) / (2 Js!). The alignment
    limit uses the outlier-consistent form sqrt(1 - sigma_f^2/kappa^2).
    """
    j_s, j_c = signal_constant_index(f, d, d_bar, tol, k_max)
    s = sd_f_centered(f, d)
    sb = sd_f_centered(f, d_bar)
    sigma_f = math.sqrt(0.5 * (s**2 + sb**2))
    indices = {"J_s": float(j_s), "J_c": float(j_c)}
    if j_s == 0:
        which = 1 if j_s <= j_c else 2
        return RegimePrediction(
            "sbm", "trivially-recoverable", None, None, sigma_f,
            "diverges", 1.0, which, indices,
        )
    which = 2 if j_s > j_c else 1
    if math.isinf(j_s):
        return RegimePrediction(
            "sbm", "signal-unrecoverable", None, None, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    j_s = int(j_s)
    threshold = Fraction(j_s - 1, 2 * j_s)
    g = gamma_moment(f, j_s, d)
    gb = gamma_moment(f, j_s, d_bar)
    kappa = c_lambda**j_s * (g + (-1.0) ** (j_s + 1) * gb) / (2.0 * math.factorial(j_s))
    side = _compare_alpha(alpha, threshold)
    if side < 0:
        return RegimePrediction(
            "sbm", "subcritical", threshold, kappa, sigma_f,
            2.0 * sigma_f, 0.0, which, indices,
        )
    if side > 0:
        return RegimePrediction(
            "sbm", "supercritical", threshold, kappa, sigma_f,
            "diverges", 1.0, which, indices,
        )
    outlier, align, at_thr = _critical_limits(kappa, sigma_f)
    return RegimePrediction(
        "sbm", "critical", threshold, kappa, sigma_f,
        outlier, align, which, indices, at_thr,
    )


# ---------------------------------------------------------------------------
# Two-block quadratic vector equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QveSolution:
    z: complex
    m1: complex
    m2: complex
    iterations: int
    residual: float


def _qve_residuals(beta, s2, sb2, z, m1, m2):
    r1 = z * m1 + beta * s2 * m1 * m1 + (1.0 - beta) * sb2 * m1 * m2 + 1.0
    r2 = z * m2 + beta * sb2 * m1 * m2 + (1.0 - beta) * s2 * m2 * m2 + 1.0
    return r1, r2


def _picard_step(beta, s2, sb2, z, m1, m2, damping):
    t1 = -1.0 / (z + beta * s2 * m1 + (1.0 - beta) * sb2 * m2)
    t2 = -1.0 / (z + beta * sb2 * m1 + (1.0 - beta) * s2 * m2)
    return m1 + damping * (t1 - m1), m2 + damping * (t2 - m2)


def _solve_qve_grid(
    beta: float,
    s2: float,
    sb2: float,
    z: np.ndarray,
    max_iter: int,
    tol: float,
    damping: float,
    m_init: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Vectorized solver over a grid of spectral parameters.

    Damped Picard iteration (which preserves the upper half-plane) plus a
    Newton step that is accepted pointwise only when it stays Herglotz
    and strictly reduces the residual.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0.0):
        raise ParameterError("all spectral parameters need imag(z) > 0")
    if m_init is None:
        m1 = -1.0 / z
        m2 = m1.copy()
    else:
        m1 = np.asarray(m_init[0], dtype=complex).copy()
        m2 = np.asarray(m_init[1], dtype=complex).copy()
    iterations = 0
    for iterations in range(1, max_iter + 1):
        r1, r2 = _qve_residuals(beta, s2, sb2, z, m1, m2)
        res = np.maximum(np.abs(r1), np.abs(r2))
        if np.all(res <= tol):
            return m1, m2, iterations, res
        active = res > tol
        p1, p2 = _picard_step(beta, s2, sb2, z, m1, m2, damping)
        # Newton on F(m) = 0 with the 2x2 Jacobian, solved by Cramer.
        j11 = z + 2.0 * beta * s2 * m1 + (1.0 - beta) * sb2 * m2
        j12 = (1.0 - beta) * sb2 * m1
        j21 = beta * sb2 * m2
        j22 = z + beta * sb2 * m1 + 2.0 * (1.0 - beta) * s2 * m2
        det = j11 * j22 - j12 * j21
        ok = np.abs(det) > 1e-300
        safe_det = np.where(ok, det, 1.0)
        n1 = m1 - (r1 * j22 - r2 * j12) / safe_det
        n2 = m2 - (r2 * j11 - r1 * j21) / safe_det
        nr1, nr2 = _qve_residuals(beta, s2, sb2, z, n1, n2)
        nres = np.maximum(np.abs(nr1), np.abs(nr2))
        keep = ok & (n1.imag > 0.0) & (n2.imag > 0.0) & (nres < res)
        m1 = np.where(active, np.where(keep, n1, p1), m1)
        m2 = np.where(active, np.where(keep, n2, p2), m2)
        if np.any(m1.imag <= 0.0) or np.any(m2.imag <= 0.0):
            raise ConvergenceError("iterate left the upper half-plane", float(np.max(res)))
    r1, r2 = _qve_residuals(beta, s2, sb2, z, m1, m2)
    res = np.maximum(np.abs(r1), np.abs(r2))
    raise ConvergenceError(
        f"QVE did not reach tol={tol} in {max_iter} iterations", float(np.max(res))
    )


def _solve_qve_ladder(
    beta: float,
    s2: float,
    sb2: float,
    tau: np.ndarray,
    eta: float,
    max_iter: int,
    tol: float,
    damping: float = 0.5,
    m_init: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve at tau + i eta by continuation from a comfortable height.

    Close to the real axis the Picard map contracts at rate 1 - O(eta),
    so the solve starts at eta ~ bulk scale and warm-starts each tenfold
    reduction, where the Newton step does the work.
    """
    tau = np.asarray(tau, dtype=float)
    sigma_scale = math.sqrt(0.5 * (s2 + sb2))
    eta_start = max(eta, 0.25 * sigma_scale)
    etas = [eta_start]
    while etas[-1] > eta * (1.0 + 1e-12):
        etas.append(max(etas[-1] / 10.0, eta))
    m = m_init
    total = 0
    for stage_eta in etas:
        m1, m2, iters, _ = _solve_qve_grid(
            beta, s2, sb2, tau + 1j * stage_eta, max_iter, tol, damping, m_init=m
        )
        m = (m1, m2)
        total += iters
    return m[0], m[1], total


def solve_qve_two_block(
    beta: float,
    sigma: float,
    sigma_bar: float,
    z: complex,
    max_iter: int = 200_000,
    tol: float = 1e-12,
) -> QveSolution:
    """Solve the two-block QVE at a single upper-half-plane point."""
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if not (sigma > 0.0 and sigma_bar > 0.0):
        raise ParameterError("sigma and sigma_bar must be > 0")
    z = complex(z)
    if z.imag <= 0.0:
        raise ParameterError(f"need imag(z) > 0, got {z}")
    m1, m2, iterations = _solve_qve_ladder(
        beta, sigma**2, sigma_bar**2, np.array([z.real]), z.imag, max_iter, tol
    )
    r1, r2 = _qve_residuals(beta, sigma**2, sigma_bar**2, z, m1[0], m2[0])
    res = max(abs(r1), abs(r2))
    return QveSolution(z, complex(m1[0]), complex(m2[0]), iterations, float(res))


def spectral_density_from_qve(
    beta: float,
    sigma: float,
    sigma_bar: float,
    tau_grid,
    eta: float = 1e-3,
    max_iter: int = 200_000,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Limiting spectral density on tau_grid.

    The bulk density is (1/pi)(beta Im m1 + (1-beta) Im m2) evaluated at
    tau + i eta; a two-stage Richardson step over eta and eta/10
    extrapolates the O(eta) smoothing toward eta -> 0, and the result is
    clamped at 0.
    """
    if not eta > 0.0:
        raise ParameterError(f"eta must be > 0, got {eta}")
    tau = np.asarray(tau_grid, dtype=float)
    s2, sb2 = sigma**2, sigma_bar**2
    m1a, m2a, _ = _solve_qve_ladder(beta, s2, sb2, tau, eta, max_iter, tol)
    rho_a = (beta * m1a.imag + (1.0 - beta) * m2a.imag) / math.pi
    m1b, m2b, _, _ = _solve_qve_grid(
        beta, s2, sb2, tau + 1j * (eta / 10.0), max_iter, tol, 0.5, m_init=(m1a, m2a)
    )
    rho_b = (beta * m1b.imag + (1.0 - beta) * m2b.imag) / math.pi
    rho = (10.0 * rho_b - rho_a) / 9.0
    return tau, np.clip(rho, 0.0, None)


def qve_support_edge(
    beta: float, sigma: float, sigma_bar: float, tol: float = 1e-10
) -> float:
    """Rightmost point of the limiting bulk support, by bisection on the
    boundary density."""
    s2, sb2 = sigma**2, sigma_bar**2
    eta = 1e-9

    def in_support(tau: float) -> bool:
        m1, m2, _ = _solve_qve_ladder(beta, s2, sb2, np.array([tau]), eta, 200_000, 1e-13)
        dens = beta * m1[0].imag + (1.0 - beta) * m2[0].imag
        return dens > 1e-4

    lo = 0.0
    hi = 2.0 * max(sigma, sigma_bar) + 1.0
    while in_support(hi):
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if in_support(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sbm_numeric_outlier(
    beta: float, sigma: float, sigma_bar: float, kappa: float
) -> float | None:
    """Outlier location for a community spike of strength kappa over
    two-block noise at general beta.

    Solves beta m1(z) + (1-beta) m2(z) = -1/kappa on the real axis right
    of the bulk; returns None when the spike is too weak to detach.
    """
    if kappa <= 0.0:
        return None
    s2, sb2 = sigma**2, sigma_bar**2
    edge = qve_support_edge(beta, sigma, sigma_bar)
    eta = 1e-9

    def g(tau: float) -> float:
        m1, m2, _ = _solve_qve_ladder(beta, s2, sb2, np.array([tau]), eta, 200_000, 1e-13)
        return float(beta * m1[0].real + (1.0 - beta) * m2[0].real) + 1.0 / kappa

    lo = edge + max(1e-7, edge * 1e-9)
    if g(lo) >= 0.0:
        return None  # even just outside the bulk the transform is above -1/kappa
    hi = edge + 2.0 * kappa + 10.0
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-11 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
