"""Closed-form and QVE-based spectral predictions.

Conventions: every Stieltjes transform here satisfies m(z) ~ -1/z as
|z| -> infinity and maps the upper half-plane into itself (Herglotz).
The semicircle transform is the branch of the quadratic
sigma^2 m^2 + z m + 1 = 0 with that behaviour.

The two-block quadratic vector equation

    z m1 + beta sigma^2 m1^2 + (1-beta) sigma_bar^2 m1 m2 + 1 = 0
    z m2 + beta sigma_bar^2 m1 m2 + (1-beta) sigma^2 m2^2 + 1 = 0

is solved by Newton continuation in the height Im z, from m = -1/z at
the bulk's scale down to the axis; its one solution with Im m1, Im m2 > 0
is the Herglotz one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrixgen import alpha_fraction
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
    """-1/0/+1 for alpha, read by alpha_fraction, below/at/above threshold."""
    a = alpha_fraction(alpha)
    return (a > threshold) - (a < threshold)


def _classify(
    model: str,
    index: int | float,
    kappa: float | None,
    sigma_f: float,
    alpha,
    which: int,
    indices: dict[str, float],
) -> RegimePrediction:
    """The verdict both models share, from the first nonzero index I.

    No index (inf) leaves the signal unrecoverable and I = 0 makes it
    trivially recoverable. Otherwise alpha is compared with the critical
    exponent (I - 1)/(2I); at it, kappa against sigma_f gives the BBP
    limits, or the dead-zone flag when the two are within 1e-9.
    """
    threshold, outlier, align, at_thr = None, 2.0 * sigma_f, 0.0, False
    if math.isinf(index):
        regime = "sign-unrecoverable" if model == "wigner" else "signal-unrecoverable"
    elif index == 0:
        regime, outlier, align = "trivially-recoverable", "diverges", 1.0
    else:
        threshold = Fraction(index - 1, 2 * index)
        side = _compare_alpha(alpha, threshold)
        regime = ("subcritical", "critical", "supercritical")[side + 1]
        if side > 0:
            outlier, align = "diverges", 1.0
        elif side == 0:
            at_thr = abs(kappa - sigma_f) <= KAPPA_DEAD_ZONE
            if kappa > sigma_f and not at_thr:
                outlier = kappa + sigma_f**2 / kappa
                align = math.sqrt(1.0 - sigma_f**2 / kappa**2)
    return RegimePrediction(
        model, regime, threshold, kappa, sigma_f, outlier, align, which, indices, at_thr
    )


def signed_recovery_prediction(
    f: NonlinearFn, d: Distribution, c_lambda: float, alpha
) -> RegimePrediction:
    """Recovery verdict for a Rademacher-normalized signal under i.i.d.
    noise with entry law d.

    The signal-carrying eigenpair is the second one when the even index
    precedes the odd one (the constant spike outgrows the signal spike),
    else the first. kappa = c^Io mu_{f^(Io)} / Io! against
    sigma_f = SD(f(Z)).
    """
    i_e, i_o = even_odd_index(f, d)
    sigma_f = sd_f(f, d)
    kappa = None
    if math.isfinite(i_o):
        kappa = c_lambda**i_o / math.factorial(i_o) * derivative_moment(f, i_o, d)
    indices = {"I_e": float(i_e), "I_o": float(i_o)}
    return _classify("wigner", i_o, kappa, sigma_f, alpha, 2 if i_e < i_o else 1, indices)


def sbm_recovery_prediction(
    f: NonlinearFn, d: Distribution, d_bar: Distribution, c_lambda: float, alpha
) -> RegimePrediction:
    """Community-recovery verdict for the transformed two-block model.

    Closed forms hold for the balanced case beta = 1/2, where the noise
    bulk is a semicircle of deviation sigma_f = sqrt((s^2 + sbar^2)/2);
    for other beta use sbm_numeric_outlier on the QVE. kappa =
    c^Js (gamma_Js + (-1)^(Js+1) gammabar_Js) / (2 Js!). The alignment
    limit uses the outlier-consistent form sqrt(1 - sigma_f^2/kappa^2).
    """
    j_s, j_c = signal_constant_index(f, d, d_bar)
    s = sd_f_centered(f, d)
    sb = sd_f_centered(f, d_bar)
    sigma_f = math.sqrt(0.5 * (s**2 + sb**2))
    kappa = None
    if 0 < j_s < math.inf:
        g = gamma_moment(f, j_s, d)
        gb = gamma_moment(f, j_s, d_bar)
        kappa = c_lambda**j_s * (g + (-1.0) ** (j_s + 1) * gb) / (2.0 * math.factorial(j_s))
    indices = {"J_s": float(j_s), "J_c": float(j_c)}
    return _classify("sbm", j_s, kappa, sigma_f, alpha, 2 if j_s > j_c else 1, indices)


# ---------------------------------------------------------------------------
# Two-block quadratic vector equation
# ---------------------------------------------------------------------------


# The QVE's numerics: the Newton-step cap per height, the residual
# tolerance, and the height above the axis at which the density is read.
_QVE_MAX_ITER = 100
_QVE_TOL = 1e-12
_QVE_ETA = 1e-3


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


def _solve_qve(
    beta: float, s2: float, sb2: float, tau: np.ndarray, etas: tuple[float, ...]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """(m1, m2) on tau + i eta at each of the descending heights etas, and
    the number of Newton steps taken.

    Starts at max(etas[0], 0.25 sigma_scale) from m1 = m2 = -1/z and comes
    down tenfold to etas[0], then to each further height, each warm-started
    from the one above; a point stops at residual <= _QVE_TOL. A height not
    solved in _QVE_MAX_ITER steps, or solved outside the upper half-plane
    (the Herglotz solution is the only one there), is a ConvergenceError.
    """
    ladder = [max(etas[0], 0.25 * math.sqrt(0.5 * (s2 + sb2)))]
    while ladder[-1] > etas[0] * (1.0 + 1e-12):
        ladder.append(max(ladder[-1] / 10.0, etas[0]))
    ladder += etas[1:]
    m1 = m2 = -1.0 / (tau + 1j * ladder[0])
    solutions, steps = [], 0
    for eta in ladder:
        z = tau + 1j * eta
        for step in range(_QVE_MAX_ITER + 1):
            r1, r2 = _qve_residuals(beta, s2, sb2, z, m1, m2)
            res = np.maximum(np.abs(r1), np.abs(r2))
            active = ~(res <= _QVE_TOL)  # a NaN residual stays active
            if not active.any():
                break
            if step == _QVE_MAX_ITER:
                msg = f"QVE did not reach tol={_QVE_TOL} in {_QVE_MAX_ITER} Newton steps"
                raise ConvergenceError(msg, float(np.max(res)))
            # Newton on F(m) = 0 with the 2x2 Jacobian, solved by Cramer.
            j11 = z + 2.0 * beta * s2 * m1 + (1.0 - beta) * sb2 * m2
            j12 = (1.0 - beta) * sb2 * m1
            j21 = beta * sb2 * m2
            j22 = z + beta * sb2 * m1 + 2.0 * (1.0 - beta) * s2 * m2
            det = j11 * j22 - j12 * j21
            m1 = np.where(active, m1 - (r1 * j22 - r2 * j12) / det, m1)
            m2 = np.where(active, m2 - (r2 * j11 - r1 * j21) / det, m2)
        steps += step
        if np.any(m1.imag <= 0.0) or np.any(m2.imag <= 0.0):
            raise ConvergenceError("QVE solution left the upper half-plane", float(np.max(res)))
        solutions.append((m1, m2))
    return solutions[-len(etas) :], steps


def solve_qve_two_block(beta: float, sigma: float, sigma_bar: float, z: complex) -> QveSolution:
    """Solve the two-block QVE at a single upper-half-plane point."""
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if not (sigma > 0.0 and sigma_bar > 0.0):
        raise ParameterError("sigma and sigma_bar must be > 0")
    z = complex(z)
    if z.imag <= 0.0:
        raise ParameterError(f"need imag(z) > 0, got {z}")
    ((m1, m2),), steps = _solve_qve(beta, sigma**2, sigma_bar**2, np.array([z.real]), (z.imag,))
    r1, r2 = _qve_residuals(beta, sigma**2, sigma_bar**2, z, m1[0], m2[0])
    res = max(abs(r1), abs(r2))
    return QveSolution(z, complex(m1[0]), complex(m2[0]), steps, float(res))


def spectral_density_from_qve(beta: float, sigma: float, sigma_bar: float, tau_grid) -> np.ndarray:
    """Limiting spectral density on tau_grid.

    The bulk density is (1/pi)(beta Im m1 + (1-beta) Im m2) evaluated at
    tau + i eta with eta = _QVE_ETA; a two-stage Richardson step over eta
    and eta/10 extrapolates the O(eta) smoothing toward eta -> 0, and the
    result is clamped at 0.
    """
    tau = np.asarray(tau_grid, dtype=float)
    solutions, _ = _solve_qve(beta, sigma**2, sigma_bar**2, tau, (_QVE_ETA, _QVE_ETA / 10.0))
    rho_a, rho_b = ((beta * m1.imag + (1.0 - beta) * m2.imag) / math.pi for m1, m2 in solutions)
    return np.clip((10.0 * rho_b - rho_a) / 9.0, 0.0, None)


def _bulk_transform(beta: float, sigma: float, sigma_bar: float, tau: float) -> complex:
    """The whole bulk's transform beta m1 + (1-beta) m2 at tau + 1e-9 i,
    the height at which the edge and outlier searches probe the axis."""
    ((m1, m2),), _ = _solve_qve(beta, sigma**2, sigma_bar**2, np.array([tau]), (1e-9,))
    return beta * m1[0] + (1.0 - beta) * m2[0]


def qve_support_edge(beta: float, sigma: float, sigma_bar: float) -> float:
    """Rightmost point of the limiting bulk support, by bisection on the
    boundary density to a bracket of width 1e-10."""

    def in_support(tau: float) -> bool:
        return _bulk_transform(beta, sigma, sigma_bar, tau).imag > 1e-4

    lo = 0.0
    hi = 2.0 * max(sigma, sigma_bar) + 1.0
    while in_support(hi):
        hi *= 2.0
    while hi - lo > 1e-10:
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
    edge = qve_support_edge(beta, sigma, sigma_bar)

    def g(tau: float) -> float:
        return float(_bulk_transform(beta, sigma, sigma_bar, tau).real) + 1.0 / kappa

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
