"""Noise ensembles, signal vectors, and assembly of the observed matrix.

Matrices are dense, row-major float64 and exactly symmetric: the upper
triangle (diagonal included) is computed and mirrored, so M[i, j] and
M[j, i] are the same bits.

A trial builds its matrix in one n x n buffer. The noise is drawn row by
row into its upper triangle, the observation is formed there in place in
row blocks of BLOCK_ROWS rows, each from its diagonal on, and one mirror
fills the lower triangle. No index array, value vector or other n^2-sized
temporary is made, f runs on about half the entries, and every element
keeps its IEEE operation, so the bits equal those of the whole-matrix
form. A trial peaks at about 1.2 buffers by tracemalloc (n = 1024); at
n = 8000 one buffer is 512 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import ParameterError
from .nonlinearity import NonlinearFn, apply_elementwise
from .rng import derive_seed, generator

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


def symmetrize_upper(M: np.ndarray, step=None) -> np.ndarray:
    """Make M exactly symmetric from its upper triangle, the only part read,
    in place, by row blocks: mirror the diagonal square, let step(lo, hi, B)
    rewrite B = M[lo:hi, lo:] element-wise, then copy the rows' part left
    of the square from the finished rows above. Returns M."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.dtype != np.float64 or not M.flags.writeable:
        raise ParameterError(f"expected a writable square float64 matrix, got {M.dtype} {M.shape}")
    for lo, hi in row_blocks(M.shape[0]):
        square = M[lo:hi, lo:hi]
        np.copyto(square, square.T, where=np.tri(hi - lo, k=-1, dtype=bool))
        if step is not None:
            step(lo, hi, M[lo:hi, lo:])
        M[lo:hi, :lo] = M[:lo, lo:hi].T
    return M


def _draw_upper(n: int, n_plus: int, laws, gens) -> np.ndarray:
    """n x n buffer whose upper triangle holds draws of laws[0] within the
    blocks split at n_plus and of laws[1] across; each law's stream fills
    its entries in row-major order, as a boolean mask assigns them."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    out = np.empty((n, n))
    cols = np.arange(n)
    for lo, hi in row_blocks(n):
        rows = np.arange(lo, hi)[:, None]
        upper = cols >= rows
        within = upper & ((rows < n_plus) == (cols < n_plus))
        for mask, d, gen in ((within, laws[0], gens[0]), (upper & ~within, laws[1], gens[1])):
            values = np.empty(np.count_nonzero(mask))
            if values.size:
                dist.fill(d, gen, values)
                out[lo:hi][mask] = values
    return out


def wigner_upper(n: int, d: Distribution, seed: int) -> np.ndarray:
    """sample_wigner's upper triangle; the rest is left unwritten."""
    return _draw_upper(n, n, (d, d), (generator(seed), None))


def sample_wigner(n: int, d: Distribution, seed: int) -> np.ndarray:
    """Symmetric n x n matrix with i.i.d. entries on and above the diagonal."""
    return symmetrize_upper(wigner_upper(n, d, seed))


def sbm_upper(spec: SbmSpec, seed: int) -> np.ndarray:
    """sample_sbm_adjacency's upper triangle; the rest is left unwritten."""
    gens = generator(derive_seed(seed, 0)), generator(derive_seed(seed, 1))
    return _draw_upper(spec.n, spec.n_plus, (spec.within, spec.across), gens)


def sample_sbm_adjacency(spec: SbmSpec, seed: int) -> np.ndarray:
    """Weighted adjacency: within-block entries (diagonal included) from
    `within`, cross-block from `across`; symmetric by mirroring."""
    return symmetrize_upper(sbm_upper(spec, seed))


def image_step(f: NonlinearFn, n: int, xv: np.ndarray | None = None, strength: float = 0.0):
    """symmetrize_upper step turning W's block into that of f(W + strength
    sqrt(n) x x^T) / sqrt(n) (no spike without x), in whole-matrix IEEE ops."""
    root_n, spike = np.sqrt(n), strength * np.sqrt(n)

    def step(lo: int, hi: int, B: np.ndarray) -> None:
        if xv is not None:
            B += np.outer(xv[lo:hi], xv[lo:]) * spike
        B[...] = apply_elementwise(f, B)
        B /= root_n

    return step


def assemble_observation(
    W: np.ndarray, f: NonlinearFn, sp: SpikeParams, x: SignalVector | np.ndarray
) -> np.ndarray:
    """Y = f(W + lambda sqrt(n) x x^T) / sqrt(n), built in W's buffer and
    returned: W is consumed, and only its upper triangle is read."""
    xv = x.entries if isinstance(x, SignalVector) else np.asarray(x, dtype=float)
    n = sp.n
    if W.shape != (n, n) or len(xv) != n:
        raise ParameterError(
            f"dimension mismatch: W {W.shape}, x {len(xv)}, params n={n}"
        )
    return symmetrize_upper(W, image_step(f, n, xv, sp.signal_strength))
