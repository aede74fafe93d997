"""The one-buffer builders against the whole-matrix formulas they replace.

The reference functions below are the earlier implementations, kept
verbatim: one whole-vector draw per law, fancy-index mirroring through
triu/tril index arrays, the `is_within` mask for the block model,
`W + s xx^T -> f -> / sqrt(n)` on whole matrices, the remainder against
a dense `noise + sum of spikes`, and Horner's rule from zeros. The builders
return an `UpperTriangle`, whose full matrix `mirror_upper` gives, and
consume one, reading only its upper triangle, so they get a copy whose
strict lower triangle is NaN. Every comparison is bit for bit
(`np.array_equal` or `==`), not approximate.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlspike import distributions as dist
from nlspike import nonlinearity as nlfn
from nlspike.decomposition import _dense_sum, signal_plus_noise
from nlspike.matrixgen import (
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
from nlspike.nonlinearity import Named, Polynomial, apply_elementwise, hermite_fn
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
TANH = Named("tanh")
ABS = Named("abs")
LINEAR_CUBIC = Polynomial([0.0, 1.0, 0.5, 0.25])  # x + x^2/2 + x^3/4, with E f' != 0
SBM_CENTERED_LAWS = (dist.Gaussian(0.3, 1.0), dist.Uniform(-1.3, 0.7))  # block means sum to 0
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
    perturbed = W + (sp.signal_strength * np.sqrt(n)) * np.outer(x, x)
    return apply_elementwise(f, perturbed) / np.sqrt(n)


def _old_transform_and_embed(A, f):
    Y = apply_elementwise(f, A)
    Y /= np.sqrt(Y.shape[0])
    return Y


def _old_dense_sum(noise_part, spikes, x):
    # each row's two terms, parity direction first; a 0.0 weight adds only +-0.0
    directions = {"ones": np.full(len(x), 1.0 / np.sqrt(len(x))), "signal": x}
    out = noise_part.copy()
    for row in spikes:
        for kind in ("ones", "signal") if row.k % 2 == 0 else ("signal", "ones"):
            out += getattr(row, kind) * np.outer(directions[kind], directions[kind])
    return out


def _old_horner(coeffs, x):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out *= x
        out += c
    return out[()]


def _nan_below(M):
    """Copy of M whose strict lower triangle is NaN, the part no builder
    reads, as an UpperTriangle."""
    out = M.copy()
    out[np.tril_indices(len(M), -1)] = np.nan
    return UpperTriangle(out)


def _dense(T):
    """The full symmetric matrix of an UpperTriangle, mirrored in its buffer."""
    return mirror_upper(T.matrix)


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
    assert np.array_equal(_dense(sample_wigner(n, d, seed)), _old_sample_wigner(n, d, seed))


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
    assert np.array_equal(_dense(sample_sbm_adjacency(spec, seed)), _old_sample_sbm_adjacency(spec, seed))


# ---------------------------------------------------------------------------
# the element-wise kernel
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
ZEROS = st.sampled_from([0.0, -0.0])


@given(
    st.lists(FINITE, min_size=1, max_size=8),
    st.booleans(),
    st.integers(0, 3),
    st.lists(st.one_of(FINITE, ZEROS), min_size=1, max_size=40),
)
@example([-1.0, -3.0, 1.0, 1.0], False, 0, [0.0, -0.0, 1.0, -2.5, 1e300])  # He2 + He3
@example([-0.0], False, 0, [0.0, -0.0, 3.0, -3.0])  # a constant -0.0
@example([2.0, -0.0], False, 2, [0.0, -0.0, 3.0, -3.0])
@example([-0.0], True, 0, [0.0, -0.0, 3.0, -3.0])  # x - 0.0, from x + c_next
@example([0.0], True, 0, [0.0, -0.0, 1e308, -1e308])  # x + 0.0 turns -0.0 into +0.0
@settings(max_examples=200, deadline=None)
def test_horner_matches_the_form_from_zeros(coeffs, monic, top_zeros, xs):
    """Zero top coefficients too: evaluate never passes them (Polynomial
    trims them), but the two forms agree on them for finite x. A top -0.0
    is the one exception, (0 * x - 0.0) * x = +0.0 against x * -0.0. A top
    coefficient of exactly 1.0 (monic, when no zeros follow it) starts
    from x + c_next."""
    coeffs = tuple(coeffs) + (1.0,) * monic + (0.0,) * top_zeros
    assume(math.copysign(1.0, coeffs[-1]) > 0.0 or len(coeffs) == 1)
    x = np.array(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        assert nlfn._horner(coeffs, x).tobytes() == _old_horner(coeffs, x).tobytes()
        for v in map(np.asarray, xs[:3]):  # 0-d input gives a scalar
            got, want = nlfn._horner(coeffs, v), _old_horner(coeffs, v)
            assert np.isscalar(got) and np.array(got).tobytes() == np.array(want).tobytes()


@given(st.integers(0, nlfn.K_MAX), st.lists(st.one_of(FINITE, ZEROS), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_tanh_derivatives_match_the_form_from_zeros(order, xs):
    t = np.tanh(np.array(xs))
    got = nlfn.evaluate(Named("tanh", order), np.array(xs))
    assert got.tobytes() == _old_horner(nlfn._tanh_deriv_tcoeffs(order), t).tobytes()


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
    W = _dense(sample_wigner(n, dist.Gaussian(0.0, 1.0), derive_seed(seed, 0)))
    x = rademacher_signal(n, derive_seed(seed, 1))
    sp = SpikeParams(c, alpha, n)
    buffer = _nan_below(W)
    Y = assemble_observation(buffer, f, sp, x)
    assert Y is buffer
    assert np.array_equal(_dense(Y), _old_assemble_observation(W, f, sp, x))


@given(st.integers(2, 600), st.sampled_from([HE2_HE3, TANH, ABS]), SEEDS)
@example(256, HE2_HE3, 1)
@example(257, TANH, 2)
@example(513, ABS, 3)
@settings(max_examples=20, deadline=None)
def test_transform_and_embed_matches_whole_matrix_form(n, f, seed):
    spec = SbmSpec(n, (n // 2) / n, dist.Gaussian(0.3, 1.0), dist.Uniform(-1.0, 0.4))
    A = _dense(sample_sbm_adjacency(spec, seed))
    buffer = _nan_below(A)
    Y = transform_and_embed(buffer, f)
    assert Y is buffer
    assert np.array_equal(_dense(Y), _old_transform_and_embed(A, f))


@given(
    st.integers(1, 300),
    st.sampled_from([HE2_HE3, TANH, LINEAR_CUBIC]),
    st.floats(0.0, 4.0),
    st.sampled_from([0.25, 1 / 3]),
    SEEDS,
    st.sampled_from(["wigner", "sbm-equal-laws", "sbm"]),
)
@example(255, HE2_HE3, 1.0, 0.25, 1, "wigner")
@example(256, TANH, 2.0, 1 / 3, 2, "wigner")
@example(257, HE2_HE3, 3.0, 1 / 3, 3, "wigner")
@example(200, LINEAR_CUBIC, 1.5, 1 / 3, 4, "wigner")  # a nonzero k = 1 term
@example(130, LINEAR_CUBIC, 2.0, 1 / 3, 5, "sbm-equal-laws")  # two terms per order, one of them 0.0
@example(131, TANH, 1.0, 0.25, 6, "sbm")
@example(517, HE2_HE3, 1.0, 0.25, 7, "wigner")  # n >= 500, not a multiple of 64: the Lanczos norm
@settings(max_examples=15, deadline=None)
def test_remainder_norm_matches_dense_sum(n, f, c, alpha, seed, model):
    if model == "wigner":
        law = dist.Gaussian(0.0, 1.0)
        W = _dense(sample_wigner(n, law, derive_seed(seed, 0)))
        x = rademacher_signal(n, derive_seed(seed, 1))
        noise = law
    else:
        assume(n >= 2)
        laws = (dist.Gaussian(0.0, 1.0),) * 2 if model == "sbm-equal-laws" else SBM_CENTERED_LAWS
        spec = SbmSpec(n, (n // 2) / n, *laws)
        W = _dense(sample_sbm_adjacency(spec, seed))
        x, _ = community_signal(n, spec.beta)
        noise = spec
    sp = SpikeParams(c, alpha, n)
    report = signal_plus_noise(_nan_below(W), f, sp, x, noise)
    old_noise = apply_elementwise(f, W) / np.sqrt(n)
    Y = _old_assemble_observation(W, f, sp, x)
    Y -= _old_dense_sum(old_noise, report.spikes, x)
    assert report.remainder_norm == operator_norm(Y)
    expected = _old_dense_sum(old_noise, report.spikes, x)
    assert np.array_equal(_dense_sum(old_noise, report.spikes, x), expected)
