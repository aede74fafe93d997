"""Signal-plus-noise approximation of the observed matrix.

The observation f(W + lambda sqrt(n) x x^T)/sqrt(n) is approximated by the
noise image f(W)/sqrt(n) plus Taylor spike terms

    H_k = (lambda^k n^{(k-1)/2} / k!) (E f^(k)(W)) o (x^ok x^ok^T),

for k = 1..ell(alpha), where ell is the order dictated by the strength
exponent alpha. The signal must be +-1/sqrt(n) (Rademacher-normalized or a
community vector), so x^ok lies on the constant direction for even k and
on x for odd k, and E f^(k)(W) has rank <= 2 (constant for i.i.d. noise,
two-block for the SBM). Every H_k therefore splits into at most two
rank-one terms on the unit directions 1/sqrt(n) and x, and one table,
spike_coefficients, gives their weights for k = 0..ell. Both directions
have entries +-1/sqrt(n), so a term is one value times a constant or a
sign pattern: the remainder adds it to the noise image row run by row
run, with the IEEE ops of the dense outer product but without forming
one, and skips a term whose weight is 0.0 (He_2 + He_3 has E f' = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import ParameterError
from .matrixgen import SbmSpec, SignalVector, SpikeParams, UpperTriangle, alpha_fraction, form_upper, image_step
from .nonlinearity import NonlinearFn, apply_elementwise, derivative_moment, gamma_moment
from .spectral import operator_norm

def ell_of_alpha(alpha) -> int:
    """Taylor order ell for a strength exponent alpha in [0, 1/2).

    ell is the unique positive integer with (ell-1)/(2 ell) <= alpha <
    ell/(2 ell + 2); equivalently the smallest integer strictly greater
    than 2 alpha / (1 - 2 alpha). The right end of each interval equals
    the left end of the next, so the intervals tile [0, 1/2) and every
    alpha in it has an order. alpha is read by alpha_fraction.
    """
    a = alpha_fraction(alpha)
    return math.floor(2 * a / (1 - 2 * a)) + 1


@dataclass(frozen=True)
class WignerEnsemble:
    """i.i.d. noise with the given entry law."""

    entry_distribution: Distribution


@dataclass(frozen=True)
class SbmEnsemble:
    """Centered two-block noise A - E A for the given block spec."""

    spec: SbmSpec


Ensemble = WignerEnsemble | SbmEnsemble


class SpikeRow(NamedTuple):
    """Order-k spike weights on the unit constant direction and on the signal."""

    k: int
    ones: float
    signal: float


def spike_coefficients(f: NonlinearFn, sp: SpikeParams, ensemble: Ensemble) -> tuple[SpikeRow, ...]:
    """Rows k = 0..ell(alpha) of the spike weights for a +-1/sqrt(n) signal.

    Order k weighs c^k n^{(alpha-1/2)k + 1/2} / k!, which is
    lambda^k n^{(k-1)/2} / k! times ||x^ok||^2. Under i.i.d. noise it
    multiplies mu_{f^(k)} on the parity direction (constant for even k,
    signal for odd k). Under the block model, whose centered noise has
    entries D - gamma on-block and Dbar - gamma_bar off-block, it
    multiplies the half-sum (gamma_k + gammabar_k)/2 on the parity
    direction and the half-difference on the other one. The ones column
    sums to kappa_1 (kappa_c for the SBM), the signal column to kappa_2
    (kappa_s).
    """
    if isinstance(ensemble, SbmEnsemble):
        spec = ensemble.spec
        gamma_sum = dist.mean(spec.within) + dist.mean(spec.across)
        if abs(gamma_sum) > 1e-12:
            raise ParameterError(
                f"block means must sum to zero (got {gamma_sum:.3e}); "
                "shift both laws by -(gamma + gamma_bar)/2 first"
            )
    n, alpha = float(sp.n), float(sp.alpha)
    rows = []
    for k in range(ell_of_alpha(sp.alpha) + 1):
        weight = sp.c_lambda**k * n ** ((alpha - 0.5) * k + 0.5) / math.factorial(k)
        if isinstance(ensemble, WignerEnsemble):
            parity, other = weight * derivative_moment(f, k, ensemble.entry_distribution), 0.0
        else:
            g = gamma_moment(f, k, spec.within)
            gb = gamma_moment(f, k, spec.across)
            parity, other = 0.5 * weight * (g + gb), 0.5 * weight * (g - gb)
        rows.append(SpikeRow(k, parity, other) if k % 2 == 0 else SpikeRow(k, other, parity))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class SpikeTerm:
    """Rank-one term coefficient * direction direction^T with unit direction."""

    k: int
    coefficient: float
    direction: np.ndarray
    direction_kind: str  # ones | signal


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    ell: int
    spikes: tuple[SpikeTerm, ...]
    remainder_norm: float


def _dense_sum(noise: np.ndarray, spikes: tuple[SpikeTerm, ...], lo: int = 0) -> np.ndarray:
    """noise, which is rows lo: and columns lo: of the noise image, plus the
    same part of the spikes, added in spike order in place; returns noise.

    Each term keeps the IEEE ops of noise += (d d^T) * c without forming
    d d^T: every direction has entries +-s, so the term is the one value
    fl(fl(s s) c) times the sign pattern sigma_i sigma_j. Its row
    sigma_j fl(fl(s s) c) is added to each run of rows with sigma_i = +1 and
    subtracted from each run with sigma_i = -1 (x - y is x + (-y)); the
    constant direction is one run. A term with c = 0.0 only adds +-0.0 and
    is skipped."""
    for term in spikes:
        if term.coefficient == 0.0:
            continue
        d = term.direction
        value = (d[0] * d[0]) * term.coefficient
        row = np.where(d[lo:] > 0.0, value, -value)
        positive = d[lo : lo + len(noise)] > 0.0
        edges = [0, *(np.flatnonzero(positive[1:] != positive[:-1]) + 1), len(noise)]
        for a, b in zip(edges[:-1], edges[1:]):
            if positive[a]:
                noise[a:b] += row
            else:
                noise[a:b] -= row
    return noise


def signal_plus_noise(
    W: UpperTriangle,
    f: NonlinearFn,
    sp: SpikeParams,
    x: SignalVector,
    ensemble: Ensemble,
) -> DecompositionReport:
    """Build the spike terms and measure the operator-norm remainder
    f(W + spike)/sqrt(n) - (f(W)/sqrt(n) + spikes), built in W's buffer:
    each row block's noise image and spikes are formed before the block
    becomes the observation, then subtracted from it. W is consumed: the
    remainder is formed in its upper triangle and normed there.

    Each order k >= 1 gives one term on its parity direction under i.i.d.
    noise, and under the block model that term and one on the other
    direction. The ensemble must describe how W was sampled; that
    consistency is the caller's responsibility.
    """
    n = sp.n
    if W.matrix.shape != (n, n) or x.n != n:
        raise ParameterError(f"dimension mismatch: W {W.matrix.shape}, x {x.n}, params n={n}")
    if x.kind not in ("rademacher-normalized", "community"):
        raise ParameterError(f"the decomposition needs a +-1/sqrt(n) signal, got kind {x.kind!r}")
    rows = spike_coefficients(f, sp, ensemble)
    directions = {"ones": np.full(n, 1.0 / np.sqrt(n)), "signal": x.entries}
    per_order = 1 if isinstance(ensemble, WignerEnsemble) else 2  # i.i.d.: parity only
    spikes = tuple(
        SpikeTerm(row.k, getattr(row, kind), directions[kind], kind)
        for row in rows[1:]
        for kind in (("ones", "signal") if row.k % 2 == 0 else ("signal", "ones"))[:per_order]
    )
    observe = image_step(f, n, x.entries, sp.signal_strength)
    root_n = np.sqrt(n)

    def step(lo: int, hi: int, B: np.ndarray) -> None:
        noise = apply_elementwise(f, B)
        noise /= root_n
        _dense_sum(noise, spikes, lo)
        observe(lo, hi, B)
        B -= noise

    remainder = operator_norm(form_upper(W, step))
    return DecompositionReport(rows[-1].k, spikes, remainder)
