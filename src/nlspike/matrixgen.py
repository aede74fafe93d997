"""Noise ensembles, signal vectors, and assembly of the observed matrix.

Matrices are dense, row-major float64, and every symmetric one is an
`UpperTriangle`: a buffer whose upper triangle, diagonal included, holds
the matrix. Nothing below the diagonal is read, so it is symmetric by
construction, and the solvers in `spectral` take it without a symmetry
check. `mirror_upper` fills the lower triangle where a full matrix is
wanted.

`sample_wigner` and `sample_sbm_adjacency` draw the noise row by row into
the upper triangle of a fresh n x n buffer, or of the caller's `out` (the
sweeps pass each trial a view of one reused buffer). Both buffers come
from `_matrix_pages`, a mapping on 4 KB pages, so the lower triangle that
nothing writes stays out of memory. The builders
(`assemble_observation`, `sbm.transform_and_embed`,
`decomposition.signal_plus_noise`) form their matrix there in place with
`form_upper`, in row blocks of BLOCK_ROWS rows, each from its diagonal on.
No index array, value vector or other n^2-sized temporary is made, f runs
on about half the entries, and every element keeps its IEEE operation, so
the bits equal those of the whole-matrix form. A trial holds that one
buffer and peaks at about 1.2 of them, its temporaries counted by
tracemalloc (n = 1024); at n = 8000 one buffer is 512 MB, of which a
trial makes 286 MB resident.
"""

from __future__ import annotations

import contextlib
import errno
import mmap
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import ParameterError
from .nonlinearity import NonlinearFn, apply_elementwise
from .rng import derive_seed, generator

BLOCK_ROWS = 64  # 1 MB per block at n = 2000, so a block stays in L2 cache; 256 ran slower


# Float alphas within this distance of a boundary (k-1)/(2k) snap onto it.
ALPHA_SNAP = Fraction(1, 10**12)


def alpha_fraction(alpha) -> Fraction:
    """alpha as an exact Fraction in [0, 1/2).

    The boundaries (k-1)/(2k) are both the Taylor-order interval ends and
    the critical exponents (I-1)/(2I), so a float alpha within ALPHA_SNAP
    of one (e.g. 1.0/3.0) is taken to be that rational. A "p/q" string
    is read as that Fraction, as the theory functions take it.
    """
    try:
        a = Fraction(alpha)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"alpha must be a finite real number, got {alpha!r}") from exc
    if not (0 <= a < Fraction(1, 2)):
        raise ParameterError(f"alpha must lie in [0, 0.5), got {alpha}")
    if isinstance(alpha, float):
        k = round(1 / (1 - 2 * a))  # the boundary nearest to alpha
        boundary = Fraction(k - 1, 2 * k)
        if abs(a - boundary) <= ALPHA_SNAP:
            return boundary
    return a


@dataclass(frozen=True)
class SpikeParams:
    """Signal strength c_lambda * n^alpha at matrix size n."""

    c_lambda: float
    alpha: float
    n: int

    def __post_init__(self):
        # signal_strength takes float(alpha), which no "p/q" string survives
        if isinstance(self.alpha, str):
            raise ParameterError(f"alpha must be a number or a Fraction, got {self.alpha!r}")
        alpha_fraction(self.alpha)
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


def rademacher_signal(n: int, seed: int) -> np.ndarray:
    """x = zeta / sqrt(n) with i.i.d. +-1 entries; ||x|| = 1 exactly."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    zeta = dist.sample(dist.Rademacher(0.5), n, seed)
    return zeta / np.sqrt(n)


def community_signal(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Block signal u/sqrt(n) and its +-1 labels; beta*n must be integral."""
    split = beta * n
    if abs(split - round(split)) > 1e-9:
        raise ParameterError(f"beta * n must be an integer, got {split}")
    n_plus = round(split)
    if not (0 < n_plus < n):
        raise ParameterError(f"split {n_plus} of {n} leaves an empty community")
    labels = np.concatenate([np.ones(n_plus), -np.ones(n - n_plus)])
    return labels / np.sqrt(n), labels


def row_blocks(n: int):
    """(lo, hi) bounds of consecutive BLOCK_ROWS-row blocks covering n rows."""
    return ((lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS))


@dataclass(frozen=True, eq=False)
class UpperTriangle:
    """The symmetric matrix held in the upper triangle, diagonal included,
    of a square float64 buffer: nothing below the diagonal is read, so it
    is symmetric by construction."""

    matrix: np.ndarray


def form_upper(T: UpperTriangle, step) -> UpperTriangle:
    """The block pass over T's upper triangle, in place: in each row block,
    mirror the diagonal square (so step sees no unset entry), then let
    step(lo, hi, B) rewrite B = M[lo:hi, lo:] element-wise. Nothing left of
    the diagonal squares is read or written. Returns T."""
    M = T.matrix
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.dtype != np.float64 or not M.flags.writeable:
        raise ParameterError(f"expected a writable square float64 matrix, got {M.dtype} {M.shape}")
    for lo, hi in row_blocks(M.shape[0]):
        square = M[lo:hi, lo:hi]
        np.copyto(square, square.T, where=np.tri(hi - lo, k=-1, dtype=bool))
        step(lo, hi, M[lo:hi, lo:])
    return T


def mirror_upper(M: np.ndarray) -> np.ndarray:
    """Copy M's upper triangle into its strict lower one, in place, making
    M the full symmetric matrix of an UpperTriangle's buffer. Returns M."""
    for lo, hi in row_blocks(M.shape[0]):  # rows lo:hi, columns j < i
        np.copyto(M[lo:hi, :hi], M[:hi, lo:hi].T, where=np.tri(hi - lo, hi, lo - 1, dtype=bool))
    return M


_PRIME_BYTES = 31 << 20  # a freed chunk of this size, header and page rounding included, stays under 32 MiB
_PRIMED = False


def _matrix_pages(n: int) -> np.ndarray:
    """A flat float64 array of n * n zeros for one n x n matrix, in an
    anonymous mapping of its own on 4 KB pages (MADV_NOHUGEPAGE where the
    platform has it). Only the pages a trial writes become resident: row i
    of a matrix built from its diagonal leaves about its first 8i // 4096
    pages untouched, where numpy's transparent huge pages of 2 MB each
    would take the lower triangle in with the upper. The array keeps the
    mapping alive and its last view unmaps it. A size this machine cannot
    map raises ParameterError, naming n and the GiB.

    The first mapping in a process primes glibc: a freed chunk of at most
    32 MiB raises glibc's mmap threshold for good to its size (and the trim
    threshold to twice that), so a trial's temporaries stay in the heap,
    not mapped and faulted in afresh every trial. The matrix's own mapping
    hides it from glibc, so a fixed chunk under the cap is freed instead,
    which primes at every n; one the size of the matrix passed the cap."""
    global _PRIMED
    size = 8 * n * n
    try:
        pages = mmap.mmap(-1, size)
    except (MemoryError, OverflowError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise ParameterError(
            f"n = {n} needs {size / 2**30:.1f} GiB for one n x n float64 matrix, more than can be allocated"
        ) from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    if not _PRIMED:
        _PRIMED = True
        with contextlib.suppress(MemoryError):  # the prime only saves page faults
            np.empty(_PRIME_BYTES // 8)
    return np.frombuffer(pages, dtype=np.float64)


def _draw_upper(n: int, n_plus: int, laws, gens, out: np.ndarray | None) -> UpperTriangle:
    """out (fresh pages from _matrix_pages if None), an n x n float64
    C-contiguous writeable array, whose upper triangle holds draws of
    laws[0] within the blocks split at n_plus and of laws[1] across; each
    law's stream fills its entries in row-major order. Row i's upper part
    is one run within, [i, n_plus) or [i, n), and above the split one run
    across, [n_plus, n); each block of rows draws each law's runs in one
    fill. Nothing below the diagonal is written."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if out is None:
        out = _matrix_pages(n).reshape(n, n)
    elif not (isinstance(out, np.ndarray) and out.shape == (n, n) and out.dtype == np.float64
              and out.flags.c_contiguous and out.flags.writeable):
        got = f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        raise ParameterError(f"out must be a writeable C-contiguous float64 ({n}, {n}) array, got {got}")
    for lo, hi in row_blocks(n):
        runs = (
            [(i, i, n_plus if i < n_plus else n) for i in range(lo, hi)],
            [(i, n_plus, n) for i in range(lo, min(hi, n_plus))],
        )
        for row_runs, d, gen in zip(runs, laws, gens):
            values = np.empty(sum(end - start for _, start, end in row_runs))
            if values.size:
                dist.fill(d, gen, values)
                at = 0
                for i, start, end in row_runs:
                    out[i, start:end] = values[at : at + end - start]
                    at += end - start
    return UpperTriangle(out)


def sample_wigner(n: int, d: Distribution, seed: int, out: np.ndarray | None = None) -> UpperTriangle:
    """Symmetric n x n matrix with i.i.d. entries on and above the diagonal,
    drawn into `out` if given (n x n, float64, C-contiguous, writeable)."""
    return _draw_upper(n, n, (d, d), (generator(seed), None), out)


def sample_sbm_adjacency(spec: SbmSpec, seed: int, out: np.ndarray | None = None) -> UpperTriangle:
    """Weighted adjacency: within-block entries (diagonal included) from
    `within`, cross-block from `across`; drawn into `out` as sample_wigner."""
    gens = generator(derive_seed(seed, 0)), generator(derive_seed(seed, 1))
    return _draw_upper(spec.n, spec.n_plus, (spec.within, spec.across), gens, out)


def add_rank_one(B: np.ndarray, lo: int, u: np.ndarray, weight: float) -> None:
    """B += weight u u^T, B being rows lo:lo + len(B) and columns lo: of the
    matrix: np.outer of u's two parts, scaled in place, so fl(fl(u_i u_j) weight)."""
    term = np.outer(u[lo : lo + len(B)], u[lo:])
    term *= weight
    B += term


def image_step(f: NonlinearFn, n: int, xv: np.ndarray | None = None, strength: float = 0.0):
    """form_upper step turning W's block into that of f(W + strength
    sqrt(n) x x^T) / sqrt(n) (no spike without x), in whole-matrix IEEE ops."""
    root_n, spike = np.sqrt(n), strength * np.sqrt(n)

    def step(lo: int, hi: int, B: np.ndarray) -> None:
        if xv is not None:
            add_rank_one(B, lo, xv, spike)
        np.divide(apply_elementwise(f, B), root_n, out=B)

    return step


def assemble_observation(
    W: UpperTriangle, f: NonlinearFn, sp: SpikeParams, x: np.ndarray
) -> UpperTriangle:
    """Y = f(W + lambda sqrt(n) x x^T) / sqrt(n), built in W's buffer: W is
    consumed and returned as Y."""
    xv = np.asarray(x, dtype=float)
    n = sp.n
    if W.matrix.shape != (n, n) or len(xv) != n:
        raise ParameterError(f"dimension mismatch: W {W.matrix.shape}, x {len(xv)}, params n={n}")
    return form_upper(W, image_step(f, n, xv, sp.signal_strength))
