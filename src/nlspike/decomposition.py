"""Signal-plus-noise approximation of the observed matrix.

The observation f(W + lambda sqrt(n) x x^T)/sqrt(n) is approximated by the
noise image f(W)/sqrt(n) plus Taylor spike terms

    H_k = (lambda^k n^{(k-1)/2} / k!) (E f^(k)(W)) o (x^ok x^ok^T),

for k = 1..ell(alpha), where ell is the order dictated by the strength
exponent alpha. The signal is a plain array whose every entry is
+-1/sqrt(n), which signal_plus_noise checks, so x^ok lies on the constant
direction for even k and on x for odd k. The noise is given as what W
was drawn from: its entry law (i.i.d.), where E f^(k)(W) is constant, or
its SbmSpec (the block model), where it has two blocks. Every H_k
therefore splits into at most two rank-one terms on the unit directions
1/sqrt(n) and x, and one table, spike_coefficients, gives their weights
for k = 0..ell as SpikeRows. The remainder adds a signal term with
matrixgen.add_rank_one, as the observation adds its spike, and a constant
term, whose every entry is one value, as a scalar; it skips a weight of
0.0 (the off-parity weight under i.i.d. noise; He_2 + He_3 has E f' = 0)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import ParameterError
from .matrixgen import SbmSpec, SpikeParams, UpperTriangle, add_rank_one, alpha_fraction, form_upper, image_step
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


class SpikeRow(NamedTuple):
    """Order-k spike weights on the unit constant direction and on the signal."""

    k: int
    ones: float
    signal: float


def spike_coefficients(f: NonlinearFn, sp: SpikeParams, noise: Distribution | SbmSpec) -> tuple[SpikeRow, ...]:
    """Rows k = 0..ell(alpha) of the spike weights for a +-1/sqrt(n) signal.

    Order k weighs c^k n^{(alpha-1/2)k + 1/2} / k!, which is
    lambda^k n^{(k-1)/2} / k! times ||x^ok||^2. Under i.i.d. noise (noise
    is the entry law) it multiplies mu_{f^(k)} on the parity direction
    (constant for even k, signal for odd k) and the other weight is 0.0.
    Under the block model (noise is the SbmSpec), whose centered noise has
    entries D - gamma on-block and Dbar - gamma_bar off-block, it
    multiplies the half-sum (gamma_k + gammabar_k)/2 on the parity
    direction and the half-difference on the other one. The ones column
    sums to kappa_1 (kappa_c for the SBM), the signal column to kappa_2
    (kappa_s).
    """
    block = isinstance(noise, SbmSpec)
    if block:
        gamma_sum = dist.mean(noise.within) + dist.mean(noise.across)
        if abs(gamma_sum) > 1e-12:
            raise ParameterError(
                f"block means must sum to zero (got {gamma_sum:.3e}); "
                "shift both laws by -(gamma + gamma_bar)/2 first"
            )
    n, alpha = float(sp.n), float(sp.alpha)
    rows = []
    for k in range(ell_of_alpha(sp.alpha) + 1):
        weight = sp.c_lambda**k * n ** ((alpha - 0.5) * k + 0.5) / math.factorial(k)
        if block:
            g = gamma_moment(f, k, noise.within)
            gb = gamma_moment(f, k, noise.across)
            parity, other = 0.5 * weight * (g + gb), 0.5 * weight * (g - gb)
        else:
            parity, other = weight * derivative_moment(f, k, noise), 0.0
        rows.append(SpikeRow(k, parity, other) if k % 2 == 0 else SpikeRow(k, other, parity))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    ell: int
    spikes: tuple[SpikeRow, ...]  # spike_coefficients' rows k = 1..ell
    remainder_norm: float


def _dense_sum(noise: np.ndarray, spikes: tuple[SpikeRow, ...], x: np.ndarray, lo: int = 0) -> np.ndarray:
    """noise, rows lo: and columns lo: of the noise image, plus the same
    part of the spike terms, added in place in row order, each row's parity
    direction first; returns noise. A signal term goes through add_rank_one;
    a constant one, whose entries are all fl(fl(s s) w) with s = 1/sqrt(n),
    is added as that scalar. A weight of 0.0, which adds only +-0.0, is
    skipped."""
    s = 1.0 / np.sqrt(len(x))
    for row in spikes:
        for kind in ("ones", "signal") if row.k % 2 == 0 else ("signal", "ones"):
            weight = getattr(row, kind)
            if weight != 0.0 and kind == "ones":
                noise += s * s * weight
            elif weight != 0.0:
                add_rank_one(noise, lo, x, weight)
    return noise


def signal_plus_noise(
    W: UpperTriangle,
    f: NonlinearFn,
    sp: SpikeParams,
    x: np.ndarray,
    noise: Distribution | SbmSpec,
) -> DecompositionReport:
    """Build the spike terms and measure the operator-norm remainder
    f(W + spike)/sqrt(n) - (f(W)/sqrt(n) + spikes), built in W's buffer:
    each row block's noise image and spikes are formed before the block
    becomes the observation, then subtracted from it. W is consumed: the
    remainder is formed in its upper triangle and normed there.

    Every entry of x must be +-1/sqrt(n), exactly the s whose fl(s s) the
    spike terms are scaled by. Each order k >= 1 gives one term on its
    parity direction under i.i.d. noise, and under the block model that
    term and one on the other direction. noise must be what W was drawn
    from, its entry law or its SbmSpec; that consistency is the caller's
    responsibility.
    """
    n = sp.n
    x = np.asarray(x, dtype=float)
    if W.matrix.shape != (n, n) or x.shape != (n,):
        raise ParameterError(f"dimension mismatch: W {W.matrix.shape}, x {x.shape}, params n={n}")
    if not np.all(np.abs(x) == 1.0 / np.sqrt(n)):
        raise ParameterError("the decomposition needs a signal whose every entry is +-1/sqrt(n)")
    spikes = spike_coefficients(f, sp, noise)[1:]
    observe = image_step(f, n, x, sp.signal_strength)
    root_n = np.sqrt(n)

    def step(lo: int, hi: int, B: np.ndarray) -> None:
        noise_image = apply_elementwise(f, B)
        noise_image /= root_n
        _dense_sum(noise_image, spikes, x, lo)
        observe(lo, hi, B)
        B -= noise_image

    remainder = operator_norm(form_upper(W, step))
    return DecompositionReport(len(spikes), spikes, remainder)
