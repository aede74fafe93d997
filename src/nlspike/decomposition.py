"""Signal-plus-noise approximation of the observed matrix.

The observation f(W + lambda sqrt(n) x x^T)/sqrt(n) is approximated by the
noise image f(W)/sqrt(n) plus Taylor spike terms

    H_k = (lambda^k n^{(k-1)/2} / k!) (E f^(k)(W)) o (x^ok x^ok^T),

for k = 1..ell(alpha), where ell is the order dictated by the strength
exponent alpha. For the supported ensembles E f^(k)(W) has rank <= 2
(constant for i.i.d. noise, two-block for the SBM), so every H_k splits
into at most two rank-one terms stored in factored (coefficient,
direction) form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import ParameterError
from .matrixgen import (
    SbmSpec,
    SignalVector,
    SpikeParams,
    community_signal,
    image_step,
    symmetrize_upper,
)
from .nonlinearity import NonlinearFn, apply_elementwise, derivative_moment, gamma_moment
from .spectral import operator_norm


def _as_fraction(alpha) -> Fraction:
    try:
        a = Fraction(alpha)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"alpha must be a real number or Fraction, got {alpha!r}") from exc
    return a


# Float alphas within this distance of a rational boundary snap onto it.
ALPHA_SNAP = Fraction(1, 10**12)


def ell_of_alpha(alpha) -> int:
    """Taylor order ell for a strength exponent alpha in [0, 1/2).

    ell is the unique positive integer with (ell-1)/(2 ell) <= alpha <
    ell/(2 ell + 2); equivalently the smallest integer strictly greater
    than 2 alpha / (1 - 2 alpha). The right end of each interval equals
    the left end of the next, so the intervals tile [0, 1/2) and every
    alpha in it has an order.

    Exact rational arithmetic is used throughout. Float inputs within
    ALPHA_SNAP (1e-12) of an interval boundary (a rational
    (ell-1)/(2 ell)) are snapped to that boundary so that e.g. alpha=1/3
    classifies on the closed left end it represents.
    """
    a = _as_fraction(alpha)
    if not (0 <= a < Fraction(1, 2)):
        raise ParameterError(f"alpha must lie in [0, 1/2), got {alpha}")
    t = 2 * a / (1 - 2 * a)
    ell = math.floor(t) + 1
    if isinstance(alpha, float):
        upper = Fraction(ell, 2 * ell + 2)  # left end of the (ell+1)-interval
        if abs(a - upper) <= ALPHA_SNAP:
            ell += 1
    return ell


@dataclass(frozen=True)
class WignerEnsemble:
    """i.i.d. noise with the given entry law."""

    entry_distribution: Distribution


@dataclass(frozen=True)
class SbmEnsemble:
    """Centered two-block noise A - E A for the given block spec."""

    spec: SbmSpec


Ensemble = WignerEnsemble | SbmEnsemble


@dataclass(frozen=True)
class BlockCoefficients:
    """E f^(k)(W) = ones * 11^T + community * uu^T."""

    ones: float
    community: float


def expected_derivative_matrix(f: NonlinearFn, k: int, ensemble: Ensemble) -> BlockCoefficients:
    """Structured form of E f^(k)(W) for the ensemble.

    For i.i.d. noise every entry has the same expectation mu_{f^(k)}, so
    the community coefficient is 0. For the SBM the centered noise has
    entries D - gamma on-block and Dbar - gamma_bar off-block, giving the
    half-sum on 11^T and the half-difference on uu^T.
    """
    if isinstance(ensemble, WignerEnsemble):
        return BlockCoefficients(derivative_moment(f, k, ensemble.entry_distribution), 0.0)
    g = gamma_moment(f, k, ensemble.spec.within)
    gb = gamma_moment(f, k, ensemble.spec.across)
    return BlockCoefficients(0.5 * (g + gb), 0.5 * (g - gb))


@dataclass(frozen=True, eq=False)
class SpikeTerm:
    """Rank-one term coefficient * direction direction^T with unit direction."""

    k: int
    coefficient: float
    direction: np.ndarray
    direction_kind: str  # ones | signal | hadamard

    def materialize(self) -> np.ndarray:
        return self.coefficient * np.outer(self.direction, self.direction)


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    ell: int
    spikes: tuple[SpikeTerm, ...]
    remainder_norm: float


def _dense_sum(noise: np.ndarray, spikes: tuple[SpikeTerm, ...], lo: int = 0) -> np.ndarray:
    """noise, which is rows lo: and columns lo: of the noise image, plus the
    same part of the spikes, added in spike order in place; returns noise."""
    for term in spikes:
        d = term.direction
        noise += term.coefficient * np.outer(d[lo : lo + len(noise)], d[lo:])
    return noise


def _direction_kind(x: SignalVector, parity_flip: int, k: int) -> str:
    """Resolve x^ok (plus an optional extra sign flip) for +-1/sqrt(n) signals."""
    if x.kind in ("rademacher-normalized", "community"):
        return "ones" if (k + parity_flip) % 2 == 0 else "signal"
    return "hadamard"


def signal_plus_noise(
    W: np.ndarray,
    f: NonlinearFn,
    sp: SpikeParams,
    x: SignalVector,
    ensemble: Ensemble,
) -> DecompositionReport:
    """Build the spike terms and measure the operator-norm remainder
    f(W + spike)/sqrt(n) - (f(W)/sqrt(n) + spikes), built in W's buffer:
    each row block's noise image and spikes are formed before the block
    becomes the observation, then subtracted from it. W is consumed, and
    only its upper triangle is read.

    The ensemble must describe how W was sampled; that consistency is the
    caller's responsibility.
    """
    n = sp.n
    if W.shape != (n, n) or x.n != n:
        raise ParameterError(f"dimension mismatch: W {W.shape}, x {x.n}, params n={n}")
    ell = ell_of_alpha(sp.alpha)
    lam = sp.signal_strength

    labels = None
    if isinstance(ensemble, SbmEnsemble):
        _, labels = community_signal(ensemble.spec.n, ensemble.spec.beta)

    spikes: list[SpikeTerm] = []
    for k in range(1, ell + 1):
        bc = expected_derivative_matrix(f, k, ensemble)
        scale = lam**k * float(n) ** ((k - 1) / 2.0) / math.factorial(k)
        xk = x.hadamard_power(k)
        norm_xk = np.linalg.norm(xk)
        if norm_xk > 0.0:
            spikes.append(
                SpikeTerm(
                    k,
                    scale * bc.ones * norm_xk**2,
                    xk / norm_xk,
                    _direction_kind(x, 0, k),
                )
            )
        if labels is not None:
            v = labels * xk
            norm_v = np.linalg.norm(v)
            if norm_v > 0.0:
                spikes.append(
                    SpikeTerm(
                        k,
                        scale * bc.community * norm_v**2,
                        v / norm_v,
                        _direction_kind(x, 1, k),
                    )
                )

    report_spikes = tuple(spikes)
    observe = image_step(f, n, x.entries, lam)
    root_n = np.sqrt(n)

    def step(lo: int, hi: int, B: np.ndarray) -> None:
        noise = _dense_sum(apply_elementwise(f, B) / root_n, report_spikes, lo)
        observe(lo, hi, B)
        B -= noise

    remainder = operator_norm(symmetrize_upper(W, step))
    return DecompositionReport(ell, report_spikes, remainder)


# ---------------------------------------------------------------------------
# Closed-form spike aggregates for +-1/sqrt(n) signals
# ---------------------------------------------------------------------------


class WignerSpikeTermValue(NamedTuple):
    k: int
    coefficient: float
    direction_kind: str  # ones | zeta


@dataclass(frozen=True)
class WignerSpikeCoefficients:
    """Finite-n aggregates multiplying the unit-norm zeta and ones directions.

    Each per-k coefficient is c^k n^{(alpha-1/2)k + 1/2} mu_{f^(k)} / k!;
    odd k accumulates on zeta zeta^T (total kappa_2), even k (k = 0
    included) on ones ones^T (total kappa_1).
    """

    terms: tuple[WignerSpikeTermValue, ...]
    ones_total: float
    zeta_total: float


def wigner_spike_coefficients(
    f: NonlinearFn, d: Distribution, sp: SpikeParams
) -> WignerSpikeCoefficients:
    """Aggregate spike strengths for a Rademacher-normalized signal."""
    ell = ell_of_alpha(sp.alpha)
    n = float(sp.n)
    terms = []
    ones_total = zeta_total = 0.0
    for k in range(ell + 1):
        mu = derivative_moment(f, k, d)
        coeff = (
            sp.c_lambda**k
            * n ** ((float(sp.alpha) - 0.5) * k + 0.5)
            * mu
            / math.factorial(k)
        )
        kind = "ones" if k % 2 == 0 else "zeta"
        terms.append(WignerSpikeTermValue(k, coeff, kind))
        if k % 2 == 0:
            ones_total += coeff
        else:
            zeta_total += coeff
    return WignerSpikeCoefficients(tuple(terms), ones_total, zeta_total)


class SbmSpikeTermValue(NamedTuple):
    k: int
    ones_coefficient: float
    community_coefficient: float


@dataclass(frozen=True)
class SbmSpikeCoefficients:
    """Finite-n aggregates on the unit-norm ones and community directions.

    Per k, the base weight c^k n^{(alpha-1/2)k + 1/2} / (2 k!) multiplies
    gamma_k + (-1)^k gammabar_k on ones (total kappa_c) and
    gamma_k + (-1)^{k+1} gammabar_k on the community direction (total
    kappa_s), which is the parity resolution of u^ok / u^o(k+1).
    """

    terms: tuple[SbmSpikeTermValue, ...]
    constant_total: float  # kappa_c
    signal_total: float  # kappa_s


def sbm_spike_coefficients(f: NonlinearFn, spec: SbmSpec, sp: SpikeParams) -> SbmSpikeCoefficients:
    gamma_sum = dist.mean(spec.within) + dist.mean(spec.across)
    if abs(gamma_sum) > 1e-12:
        raise ParameterError(
            f"block means must sum to zero (got {gamma_sum:.3e}); "
            "shift both laws by -(gamma + gamma_bar)/2 first"
        )
    ell = ell_of_alpha(sp.alpha)
    n = float(sp.n)
    terms = []
    kappa_c = kappa_s = 0.0
    for k in range(ell + 1):
        g = gamma_moment(f, k, spec.within)
        gb = gamma_moment(f, k, spec.across)
        base = (
            sp.c_lambda**k
            * n ** ((float(sp.alpha) - 0.5) * k + 0.5)
            / (2.0 * math.factorial(k))
        )
        ones_coeff = base * (g + (-1.0) ** k * gb)
        comm_coeff = base * (g + (-1.0) ** (k + 1) * gb)
        terms.append(SbmSpikeTermValue(k, ones_coeff, comm_coeff))
        kappa_c += ones_coeff
        kappa_s += comm_coeff
    return SbmSpikeCoefficients(tuple(terms), kappa_c, kappa_s)
