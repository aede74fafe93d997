"""End-to-end transformed block-model pipeline.

Sample a weighted adjacency, transform it element-wise, embed spectrally,
read community labels off an eigenvector sign pattern, and score the
sign-invariant overlap against the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .matrixgen import SbmSpec, UpperTriangle, community_signal, form_upper, image_step, sample_sbm_adjacency
from .nonlinearity import NonlinearFn
from .spectral import _readable, sym_eig_top


def transform_and_embed(A: UpperTriangle, f: NonlinearFn) -> UpperTriangle:
    """f(A) / sqrt(n), element-wise, built in A's buffer: A is consumed and
    returned as the image."""
    return form_upper(A, image_step(f, A.matrix.shape[0]))


def _sign_labels(v: np.ndarray) -> np.ndarray:
    """+-1 labels from a sign pattern; zero entries map to +1."""
    return np.where(v >= 0.0, 1.0, -1.0)


def recover_communities(Y: np.ndarray | UpperTriangle, which: int) -> np.ndarray:
    """+-1 labels from the sign pattern of the `which`-th top eigenvector
    of Y, taken as sym_eig_top takes it.

    Zero entries map to +1; the global sign follows the eigensolver's
    deterministic convention.
    """
    if which not in (1, 2):
        raise ParameterError(f"which must be 1 or 2, got {which}")
    M = _readable(Y)
    if M.shape[0] < 2:
        raise ParameterError("need dimension >= 2 to recover two communities")
    pairs = sym_eig_top(UpperTriangle(M), which)
    return _sign_labels(pairs.vectors[:, which - 1])


def overlap(labels: np.ndarray, truth: np.ndarray) -> float:
    """|<labels, truth>| / n for +-1 sequences; invariant under global flip."""
    labels = np.asarray(labels, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if labels.shape != truth.shape:
        raise ParameterError(f"length mismatch: {labels.shape} vs {truth.shape}")
    return abs(float(labels @ truth)) / len(labels)


@dataclass(frozen=True)
class SbmTrialResult:
    top_eigenvalues: tuple[float, float, float, float]
    overlap_top: float
    overlap_second: float

    def __post_init__(self):
        if not (0.0 <= self.overlap_top <= 1.0 and 0.0 <= self.overlap_second <= 1.0):
            raise ParameterError("overlaps must lie in [0, 1]")


def run_sbm_trial(spec: SbmSpec, f: NonlinearFn, seed: int, out: np.ndarray | None = None) -> SbmTrialResult:
    """One generate -> transform -> embed -> recover -> score pass, in a
    fresh buffer or in `out` as sample_sbm_adjacency takes it.

    Both the top and second eigenvector recoveries are scored, from one
    top-4 eigensolve, so a misprediction of the signal-carrying pair
    remains observable. Which pair carries the signal is a property of
    f and the block laws, not of the trial: it is
    RegimePrediction.which_eigenpair of `sbm_recovery_prediction`.
    """
    Y = transform_and_embed(sample_sbm_adjacency(spec, seed, out), f)
    k = min(4, spec.n)
    pairs = sym_eig_top(Y, k)
    top4 = tuple(float(v) for v in pairs.values) + (float("nan"),) * (4 - k)

    _, truth = community_signal(spec.n, spec.beta)
    overlap1 = overlap(_sign_labels(pairs.vectors[:, 0]), truth)
    overlap2 = overlap(_sign_labels(pairs.vectors[:, 1]), truth) if k >= 2 else 0.0
    return SbmTrialResult(top4, overlap1, overlap2)
