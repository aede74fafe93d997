"""Noise ensembles, signal vectors, and assembly of the observed matrix.

Matrices are dense, row-major float64 and exactly symmetric: the upper
triangle (diagonal included) is sampled and mirrored, so M[i, j] and
M[j, i] are the same bits. Desk scale tops out around n = 4000, where a
full matrix is 128 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import ParameterError
from .nonlinearity import NonlinearFn, apply_elementwise
from .rng import derive_seed


@dataclass(frozen=True)
class SpikeParams:
    """Signal strength c_lambda * n^alpha at matrix size n."""

    c_lambda: float
    alpha: float
    n: int

    def __post_init__(self):
        if not (0.0 <= float(self.alpha) < 0.5):
            raise ParameterError(f"alpha must lie in [0, 0.5), got {self.alpha}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")

    @property
    def signal_strength(self) -> float:
        """lambda = c_lambda * n^alpha; the single shared evaluation path."""
        return self.c_lambda * float(self.n) ** float(self.alpha)


@dataclass(frozen=True)
class SbmSpec:
    """Two-community weighted block model: `within` on-block, `across` off-block."""

    n: int
    beta: float
    within: Distribution
    across: Distribution

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.beta < 1.0):
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta}")
        split = self.beta * self.n
        if abs(split - round(split)) > 1e-9:
            raise ParameterError(f"beta * n must be an integer, got {split}")

    @property
    def n_plus(self) -> int:
        return round(self.beta * self.n)

    def delta(self) -> float:
        """gamma - gamma_bar, the community mean separation."""
        return dist.mean(self.within) - dist.mean(self.across)

    def centered_sum(self) -> "SbmSpec":
        """Shift both laws by -(gamma + gamma_bar)/2 so the means sum to zero."""
        shift = -0.5 * (dist.mean(self.within) + dist.mean(self.across))
        return SbmSpec(
            self.n,
            self.beta,
            dist.shifted(self.within, shift),
            dist.shifted(self.across, shift),
        )


@dataclass(frozen=True, eq=False)
class SignalVector:
    """Unit-norm signal; kind records how it was built."""

    entries: np.ndarray
    kind: str  # rademacher-normalized | community | custom

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return len(self.entries)

    def hadamard_power(self, k: int) -> np.ndarray:
        return self.entries**k


def rademacher_signal(n: int, seed: int) -> SignalVector:
    """x = zeta / sqrt(n) with i.i.d. +-1 entries; ||x|| = 1 exactly."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    zeta = dist.sample(dist.Rademacher(0.5), n, seed)
    return SignalVector(zeta / np.sqrt(n), "rademacher-normalized")


def community_signal(n: int, beta: float) -> tuple[SignalVector, np.ndarray]:
    """Block signal u/sqrt(n) and its +-1 labels; beta*n must be integral."""
    split = beta * n
    if abs(split - round(split)) > 1e-9:
        raise ParameterError(f"beta * n must be an integer, got {split}")
    n_plus = round(split)
    if not (0 < n_plus < n):
        raise ParameterError(f"split {n_plus} of {n} leaves an empty community")
    labels = np.concatenate([np.ones(n_plus), -np.ones(n - n_plus)])
    return SignalVector(labels / np.sqrt(n), "community"), labels


def _mirror_upper(n: int, upper_values: np.ndarray) -> np.ndarray:
    out = np.zeros((n, n))
    out[np.triu_indices(n)] = upper_values
    il = np.tril_indices(n, -1)
    out[il] = out.T[il]
    return out


def sample_wigner(n: int, d: Distribution, seed: int) -> np.ndarray:
    """Symmetric n x n matrix with i.i.d. entries on and above the diagonal."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return _mirror_upper(n, dist.sample(d, n * (n + 1) // 2, seed))


def sample_sbm_adjacency(spec: SbmSpec, seed: int) -> np.ndarray:
    """Weighted adjacency: within-block entries (diagonal included) from
    `within`, cross-block from `across`; symmetric by mirroring."""
    n, n_plus = spec.n, spec.n_plus
    iu, ju = np.triu_indices(n)
    is_within = (iu < n_plus) == (ju < n_plus)
    values = np.empty(len(iu))
    n_within = int(np.sum(is_within))
    if n_within:
        values[is_within] = dist.sample(spec.within, n_within, derive_seed(seed, 0))
    if n_within < len(iu):
        values[~is_within] = dist.sample(spec.across, len(iu) - n_within, derive_seed(seed, 1))
    return _mirror_upper(n, values)


def assemble_observation(
    W: np.ndarray, f: NonlinearFn, sp: SpikeParams, x: SignalVector | np.ndarray
) -> np.ndarray:
    """Y = f(W + lambda sqrt(n) x x^T) / sqrt(n)."""
    xv = x.entries if isinstance(x, SignalVector) else np.asarray(x, dtype=float)
    n = sp.n
    if W.shape != (n, n) or len(xv) != n:
        raise ParameterError(
            f"dimension mismatch: W {W.shape}, x {len(xv)}, params n={n}"
        )
    lam = sp.signal_strength
    perturbed = W + (lam * np.sqrt(n)) * np.outer(xv, xv)
    return apply_elementwise(f, perturbed) / np.sqrt(n)
