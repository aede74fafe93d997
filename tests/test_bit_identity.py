"""The one-buffer builders against the whole-matrix formulas they replace.

The reference functions below are the earlier implementations, kept
verbatim: one whole-vector draw per law, fancy-index mirroring through
triu/tril index arrays, the `is_within` mask for the block model,
`W + s xx^T -> f -> / sqrt(n)` on whole matrices, and the remainder
against a dense `noise + sum of spikes`. The builders consume their input
matrix and read only its upper triangle, so they get a copy, or a copy
whose strict lower triangle is NaN. Every comparison is bit for bit
(`np.array_equal` or `==`), not approximate.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlspike import distributions as dist
from nlspike.decomposition import WignerEnsemble, _dense_sum, signal_plus_noise
from nlspike.matrixgen import (
    SbmSpec,
    SpikeParams,
    assemble_observation,
    rademacher_signal,
    sample_sbm_adjacency,
    sample_wigner,
)
from nlspike.nonlinearity import apply_elementwise, hermite_fn, named
from nlspike.rng import derive_seed, generator
from nlspike.sbm import transform_and_embed
from nlspike.spectral import operator_norm

LAWS = [
    dist.Gaussian(0.0, 1.0),
    dist.Uniform(-1.0, 2.0),
    dist.Rademacher(0.3),
    dist.Centered(dist.Uniform(0.2, 2.0)),
]
HE2_HE3 = hermite_fn({2: 1.0, 3: 1.0})
TANH = named("tanh")
ABS = named("abs")
SEEDS = st.integers(0, 2**64 - 1)
SIZES = st.integers(1, 600)


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def _old_draw(d, count, seed):
    if isinstance(d, dist.Gaussian):
        return d.mean + d.std * generator(seed).standard_normal(count)
    if isinstance(d, dist.Rademacher):
        return np.where(generator(seed).random(count) < d.p, 1.0, -1.0)
    if isinstance(d, dist.Uniform):
        return d.lo + (d.hi - d.lo) * generator(seed).random(count)
    return _old_draw(d.inner, count, seed) - dist.mean(d.inner)


def _old_mirror_upper(n, upper_values):
    out = np.zeros((n, n))
    out[np.triu_indices(n)] = upper_values
    il = np.tril_indices(n, -1)
    out[il] = out.T[il]
    return out


def _old_sample_wigner(n, d, seed):
    return _old_mirror_upper(n, dist.sample(d, n * (n + 1) // 2, seed))


def _old_sample_sbm_adjacency(spec, seed):
    n, n_plus = spec.n, spec.n_plus
    iu, ju = np.triu_indices(n)
    is_within = (iu < n_plus) == (ju < n_plus)
    values = np.empty(len(iu))
    n_within = int(np.sum(is_within))
    if n_within:
        values[is_within] = dist.sample(spec.within, n_within, derive_seed(seed, 0))
    if n_within < len(iu):
        values[~is_within] = dist.sample(spec.across, len(iu) - n_within, derive_seed(seed, 1))
    return _old_mirror_upper(n, values)


def _old_assemble_observation(W, f, sp, x):
    n = sp.n
    perturbed = W + (sp.signal_strength * np.sqrt(n)) * np.outer(x.entries, x.entries)
    return apply_elementwise(f, perturbed) / np.sqrt(n)


def _old_transform_and_embed(A, f):
    Y = apply_elementwise(f, A)
    Y /= np.sqrt(Y.shape[0])
    return Y


def _old_dense_sum(noise_part, spikes):
    out = noise_part.copy()
    for term in spikes:
        out += term.materialize()
    return out


def _nan_below(M):
    """Copy of M whose strict lower triangle is NaN, the part no builder reads."""
    out = M.copy()
    out[np.tril_indices(len(M), -1)] = np.nan
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@given(st.sampled_from(LAWS), SEEDS, st.lists(st.integers(1, 130), min_size=1, max_size=8))
@example(LAWS[0], 1, [1])
@example(LAWS[1], 2, [1, 1, 1])
@example(LAWS[2], 3, [63, 64, 65])
@example(LAWS[3], 4, [65, 1, 64, 63])
@settings(max_examples=60, deadline=None)
def test_chunked_fill_matches_single_draw(d, seed, chunks):
    """Chunks drawn one at a time from one running generator, as the
    matrix builders draw each row block, equal one whole-vector draw."""
    total = sum(chunks)
    z = np.empty(total)
    gen = generator(seed)
    start = 0
    for length in chunks:
        dist.fill(d, gen, z[start : start + length])
        start += length
    assert np.array_equal(z, _old_draw(d, total, seed))
    assert np.array_equal(dist.sample(d, total, seed), z)


@given(SIZES, st.sampled_from(LAWS), SEEDS)
@example(255, LAWS[0], 1)
@example(256, LAWS[1], 2)
@example(257, LAWS[2], 3)
@example(512, LAWS[3], 4)
@example(513, LAWS[0], 5)
@settings(max_examples=30, deadline=None)
def test_sample_wigner_matches_fancy_index_mirror(n, d, seed):
    assert np.array_equal(sample_wigner(n, d, seed), _old_sample_wigner(n, d, seed))


@given(st.integers(2, 600), st.integers(0, 10**6), SEEDS)
@example(255, 0, 1)
@example(256, 63, 2)
@example(257, 127, 3)
@example(512, 200, 4)
@example(513, 255, 5)
@settings(max_examples=30, deadline=None)
def test_sample_sbm_adjacency_matches_masked_fill(n, k, seed):
    n_plus = 1 + 2 * (k % (n // 2))  # odd, in [1, n - 1]
    spec = SbmSpec(n, n_plus / n, dist.Gaussian(0.3, 1.0), dist.Uniform(-1.0, 0.4))
    assert spec.n_plus == n_plus
    assert np.array_equal(sample_sbm_adjacency(spec, seed), _old_sample_sbm_adjacency(spec, seed))


# ---------------------------------------------------------------------------
# assembly and the decomposition remainder
# ---------------------------------------------------------------------------


@given(
    SIZES,
    st.sampled_from([HE2_HE3, TANH, ABS]),
    st.floats(0.0, 6.0),
    st.sampled_from([0.0, 0.25, 1 / 3, 0.4]),
    SEEDS,
)
@example(255, HE2_HE3, 2.6, 0.25, 1)
@example(256, TANH, 1.4, 1 / 3, 2)
@example(257, ABS, 5.0, 0.4, 3)
@example(512, HE2_HE3, 0.8, 0.25, 4)
@example(513, TANH, 2.0, 0.0, 5)
@settings(max_examples=30, deadline=None)
def test_assemble_observation_matches_whole_matrix_form(n, f, c, alpha, seed):
    W = sample_wigner(n, dist.Gaussian(0.0, 1.0), derive_seed(seed, 0))
    x = rademacher_signal(n, derive_seed(seed, 1))
    sp = SpikeParams(c, alpha, n)
    buffer = _nan_below(W)
    Y = assemble_observation(buffer, f, sp, x)
    assert Y is buffer
    assert np.array_equal(Y, _old_assemble_observation(W, f, sp, x))


@given(st.integers(2, 600), st.sampled_from([HE2_HE3, TANH, ABS]), SEEDS)
@example(256, HE2_HE3, 1)
@example(257, TANH, 2)
@example(513, ABS, 3)
@settings(max_examples=20, deadline=None)
def test_transform_and_embed_matches_whole_matrix_form(n, f, seed):
    spec = SbmSpec(n, (n // 2) / n, dist.Gaussian(0.3, 1.0), dist.Uniform(-1.0, 0.4))
    A = sample_sbm_adjacency(spec, seed)
    buffer = _nan_below(A)
    Y = transform_and_embed(buffer, f)
    assert Y is buffer
    assert np.array_equal(Y, _old_transform_and_embed(A, f))


@given(
    st.integers(1, 300),
    st.sampled_from([HE2_HE3, TANH]),
    st.floats(0.0, 4.0),
    st.sampled_from([0.25, 1 / 3]),
    SEEDS,
)
@example(255, HE2_HE3, 1.0, 0.25, 1)
@example(256, TANH, 2.0, 1 / 3, 2)
@example(257, HE2_HE3, 3.0, 1 / 3, 3)
@settings(max_examples=15, deadline=None)
def test_remainder_norm_matches_dense_sum(n, f, c, alpha, seed):
    law = dist.Gaussian(0.0, 1.0)
    W = sample_wigner(n, law, derive_seed(seed, 0))
    x = rademacher_signal(n, derive_seed(seed, 1))
    sp = SpikeParams(c, alpha, n)
    report = signal_plus_noise(_nan_below(W), f, sp, x, WignerEnsemble(law))
    old_noise = apply_elementwise(f, W) / np.sqrt(n)
    Y = _old_assemble_observation(W, f, sp, x)
    Y -= _old_dense_sum(old_noise, report.spikes)
    assert report.remainder_norm == operator_norm(Y)
    expected = _old_dense_sum(old_noise, report.spikes)
    assert np.array_equal(_dense_sum(old_noise, report.spikes), expected)
