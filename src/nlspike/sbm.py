"""End-to-end transformed block-model pipeline.

Sample a weighted adjacency, transform it element-wise, embed spectrally,
read community labels off an eigenvector sign pattern, and score the
sign-invariant overlap against the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .matrixgen import SbmSpec, community_signal, image_step, sbm_upper, symmetrize_upper
from .nonlinearity import NonlinearFn
from .spectral import sym_eig_top


def transform_and_embed(A: np.ndarray, f: NonlinearFn) -> np.ndarray:
    """f(A) / sqrt(n), element-wise, built in A's buffer and returned: A is
    consumed, and only its upper triangle is read."""
    return symmetrize_upper(A, image_step(f, A.shape[0]))


def _sign_labels(v: np.ndarray) -> np.ndarray:
    """+-1 labels from a sign pattern; zero entries map to +1."""
    return np.where(v >= 0.0, 1.0, -1.0)


def recover_communities(Y: np.ndarray, which: int) -> np.ndarray:
    """+-1 labels from the sign pattern of the `which`-th top eigenvector.

    Zero entries map to +1; the global sign follows the eigensolver's
    deterministic convention.
    """
    if which not in (1, 2):
        raise ParameterError(f"which must be 1 or 2, got {which}")
    if Y.shape[0] < 2:
        raise ParameterError("need dimension >= 2 to recover two communities")
    pairs = sym_eig_top(Y, which)
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


def run_sbm_trial(spec: SbmSpec, f: NonlinearFn, seed: int) -> SbmTrialResult:
    """One generate -> transform -> embed -> recover -> score pass.

    Both the top and second eigenvector recoveries are scored, from one
    top-4 eigensolve, so a misprediction of the signal-carrying pair
    remains observable. Which pair carries the signal is a property of
    f and the block laws, not of the trial: it is
    RegimePrediction.which_eigenpair of `sbm_recovery_prediction`.
    """
    Y = transform_and_embed(sbm_upper(spec, seed), f)
    k = min(4, spec.n)
    pairs = sym_eig_top(Y, k)
    top4 = tuple(float(v) for v in pairs.values) + (float("nan"),) * (4 - k)

    _, truth = community_signal(spec.n, spec.beta)
    overlap1 = overlap(_sign_labels(pairs.vectors[:, 0]), truth)
    overlap2 = overlap(_sign_labels(pairs.vectors[:, 1]), truth) if k >= 2 else 0.0
    return SbmTrialResult(top4, overlap1, overlap2)
