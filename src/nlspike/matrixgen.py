"""Noise ensembles, signal vectors, and assembly of the observed matrix.

Matrices are dense, row-major float64 and exactly symmetric: the upper
triangle (diagonal included) is sampled and mirrored, so M[i, j] and
M[j, i] are the same bits. Desk scale tops out around n = 4000, where a
full matrix is 128 MB and one signed trial peaks at about 2.25 such
buffers by tracemalloc: two matrices at a time (W and Y, then Y and the
eigensolver's copy of it) plus row blocks and workspace.

Each sample is built in one n x n buffer. Its upper triangle is filled row
by row from the value vector, and everything that touches the whole
matrix after that (mirroring, f) runs in row blocks of BLOCK_ROWS rows, so
no n^2-sized index array or temporary is made. Blocking changes no
element's IEEE operation, so the bits equal those of the whole-matrix form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import ParameterError
from .nonlinearity import NonlinearFn, apply_elementwise
from .rng import derive_seed

BLOCK_ROWS = 64  # 1 MB per block at n = 2000, so a block stays in L2 cache; 256 ran slower


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


def row_blocks(n: int):
    """(lo, hi) bounds of consecutive BLOCK_ROWS-row blocks covering n rows."""
    return ((lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS))


def _mirror_lower(out: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of `out` onto its lower triangle in place."""
    for lo, hi in row_blocks(out.shape[0]):
        out[lo:hi, :lo] = out[:lo, lo:hi].T
        diag = out[lo:hi, lo:hi]
        il = np.tril_indices(hi - lo, -1)
        diag[il] = diag.T[il]
    return out


def _mirror_upper(n: int, upper_values: np.ndarray) -> np.ndarray:
    """Symmetric matrix whose upper triangle, read row by row, is upper_values."""
    out = np.empty((n, n))
    start = 0
    for i in range(n):
        out[i, i:] = upper_values[start : start + n - i]
        start += n - i
    return _mirror_lower(out)


def sample_wigner(n: int, d: Distribution, seed: int) -> np.ndarray:
    """Symmetric n x n matrix with i.i.d. entries on and above the diagonal."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return _mirror_upper(n, dist.sample(d, n * (n + 1) // 2, seed))


def sample_sbm_adjacency(spec: SbmSpec, seed: int) -> np.ndarray:
    """Weighted adjacency: within-block entries (diagonal included) from
    `within`, cross-block from `across`; symmetric by mirroring.

    Each law's stream fills its upper-triangle entries in row-major order."""
    n, n_plus = spec.n, spec.n_plus
    n_minus = n - n_plus
    n_across = n_plus * n_minus
    n_within = n * (n + 1) // 2 - n_across
    within = dist.sample(spec.within, n_within, derive_seed(seed, 0))  # n_within >= n
    across = dist.sample(spec.across, n_across, derive_seed(seed, 1)) if n_across else None
    out = np.empty((n, n))
    w = a = 0  # cursors into the two streams
    for i in range(n):
        stop = n_plus if i < n_plus else n
        out[i, i:stop] = within[w : w + stop - i]
        w += stop - i
        if stop < n:
            out[i, stop:] = across[a : a + n_minus]
            a += n_minus
    return _mirror_lower(out)


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
    # the spike, the sum, f and the scaling all happen in Y; W is untouched
    Y = np.outer(xv, xv)
    Y *= lam * np.sqrt(n)
    Y += W
    for lo, hi in row_blocks(n):
        Y[lo:hi] = apply_elementwise(f, Y[lo:hi])
    Y /= np.sqrt(n)
    return Y
