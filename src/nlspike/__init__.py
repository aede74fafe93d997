"""Numerical laboratory for nonlinear spiked random matrix models.

Builds observations Y = f(W + lambda sqrt(n) x x^T)/sqrt(n) over i.i.d. or
two-block noise, computes their signal-plus-noise decomposition and
phase-transition predictions, runs spectral recovery, and checks the
predictions against simulation at desk scale.
"""

__version__ = "0.1.0"

from .distributions import (
    Centered,
    Gaussian,
    Rademacher,
    Uniform,
    mean,
    mean_and_center,
    moment,
    sample,
    variance,
)
from .nonlinearity import (
    Named,
    Polynomial,
    apply_elementwise,
    derivative,
    derivative_moment,
    even_odd_index,
    gamma_moment,
    hermite_fn,
    moment_table,
    sd_f,
    sd_f_centered,
    signal_constant_index,
)
from .matrixgen import (
    SbmSpec,
    SpikeParams,
    UpperTriangle,
    assemble_observation,
    community_signal,
    mirror_upper,
    rademacher_signal,
    sample_sbm_adjacency,
    sample_wigner,
)
from .spectral import EigenPairs, alignment, esd_histogram, operator_norm, sym_eig_top
from .decomposition import (
    DecompositionReport,
    ell_of_alpha,
    signal_plus_noise,
    spike_coefficients,
)
from .theory import (
    QveSolution,
    RegimePrediction,
    bbp_prediction,
    sbm_numeric_outlier,
    sbm_recovery_prediction,
    semicircle_density,
    signed_recovery_prediction,
    solve_qve_two_block,
    spectral_density_from_qve,
    stieltjes_semicircle,
)
from .sbm import SbmTrialResult, overlap, recover_communities, run_sbm_trial, transform_and_embed
from .rng import derive_seed, generator
