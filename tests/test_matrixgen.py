import errno
import math
import mmap
from fractions import Fraction

import numpy as np
import pytest

from nlspike import matrixgen as mg
from nlspike.decomposition import ell_of_alpha
from nlspike.distributions import Gaussian, Rademacher
from nlspike.errors import ParameterError
from nlspike.harness import parse_config
from nlspike.matrixgen import SbmSpec, SpikeParams, UpperTriangle, mirror_upper, row_blocks
from nlspike.nonlinearity import Polynomial
from nlspike.spectral import operator_norm

IDENTITY = Polynomial([0.0, 1.0])
SQUARE = Polynomial([0.0, 0.0, 1.0])


def _dense(T):
    """The full symmetric matrix of an UpperTriangle, mirrored in its buffer."""
    return mirror_upper(T.matrix)


def test_spike_params_validation():
    with pytest.raises(ParameterError):
        SpikeParams(1.0, 0.5, 100)
    with pytest.raises(ParameterError):
        SpikeParams(1.0, -0.1, 100)
    with pytest.raises(ParameterError):
        SpikeParams(1.0, 0.25, 0)
    sp = SpikeParams(2.0, 0.25, 16)
    assert sp.signal_strength == pytest.approx(2.0 * 2.0)  # 16^(1/4) = 2


def test_spike_params_read_alpha_by_the_one_rule():
    # below 1/2 exactly, though its float rounds to 0.5: the parameters and
    # the Taylor order must accept the same alphas
    alpha = Fraction(10**20 - 1, 2 * 10**20)
    assert float(alpha) == 0.5
    assert SpikeParams(1.0, alpha, 10).alpha == alpha
    assert ell_of_alpha(alpha) == 10**20
    for bad in (float("nan"), float("inf"), 0.5, None):
        with pytest.raises(ParameterError):
            SpikeParams(1.0, bad, 10)


def test_spike_params_reject_a_string_alpha():
    # Fraction("1/3") parses, so a string alpha used to construct and then
    # fail in signal_strength with a bare ValueError
    for bad in ("1/3", "0.25", ""):
        with pytest.raises(ParameterError, match="a number or a Fraction"):
            SpikeParams(1.0, bad, 10)
    # a config's "p/q" string still parses: it becomes a Fraction first
    cfg = parse_config(
        {
            "experiment": "signed-sweep",
            "n_list": [40],
            "c_grid": [1.0],
            "alpha": "1/3",
            "trials_per_point": 1,
            "base_seed": 1,
            "f": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
            "noise": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        }
    )
    assert cfg.alpha == Fraction(1, 3)
    assert SpikeParams(1.0, cfg.alpha, 27).signal_strength == pytest.approx(3.0)


def test_wigner_symmetric_and_support():
    M = _dense(mg.sample_wigner(6, Rademacher(0.5), seed=1))
    assert np.array_equal(M, M.T)
    assert set(np.unique(M)) <= {-1.0, 1.0}


def test_wigner_determinism():
    a = _dense(mg.sample_wigner(50, Gaussian(0, 1), seed=9))
    b = _dense(mg.sample_wigner(50, Gaussian(0, 1), seed=9))
    assert np.array_equal(a, b)
    c = _dense(mg.sample_wigner(50, Gaussian(0, 1), seed=10))
    assert not np.array_equal(a, c)


def test_wigner_operator_norm_near_semicircle_edge():
    # finite-n oracle by direct eigensolve: edge 2 sigma_w sqrt(n)
    n = 1000
    M = mg.sample_wigner(n, Gaussian(0, 1), seed=3)
    assert 1.9 <= operator_norm(M) / math.sqrt(n) <= 2.1


def test_wigner_rejects_empty():
    with pytest.raises(ParameterError):
        mg.sample_wigner(0, Gaussian(0, 1), seed=0)


def test_draws_into_out_equal_fresh_draws():
    """out= returns the UpperTriangle wrapping out, and its upper triangle
    holds the bits of a fresh draw whatever out held before."""
    n = 70
    spec = SbmSpec(n, 0.5, Gaussian(0.5, 1.0), Gaussian(-0.5, 2.0))
    upper = np.triu_indices(n)
    for draw in (lambda **kw: mg.sample_wigner(n, Gaussian(0, 1), 4, **kw),
                 lambda **kw: mg.sample_sbm_adjacency(spec, 4, **kw)):
        out = np.full((n, n), np.nan)
        T = draw(out=out)
        assert T.matrix is out
        assert np.array_equal(out[upper], draw().matrix[upper])


@pytest.mark.parametrize(
    "out",
    [
        np.empty((5, 6)),
        np.empty((6, 6), dtype=np.float32),
        np.empty((6, 6), order="F"),
        np.empty((6, 12))[:, ::2],
        np.broadcast_to(0.0, (6, 6)),
        [[0.0] * 6] * 6,
    ],
    ids=["shape", "dtype", "fortran", "strided", "read-only", "list"],
)
def test_draws_reject_an_unfit_out(out):
    spec = SbmSpec(6, 0.5, Gaussian(0, 1), Gaussian(0, 1))
    with pytest.raises(ParameterError, match="out must be"):
        mg.sample_wigner(6, Gaussian(0, 1), 1, out=out)
    with pytest.raises(ParameterError, match="out must be"):
        mg.sample_sbm_adjacency(spec, 1, out=out)


def test_matrix_pages_are_zeros_on_a_mapping_of_their_own():
    a = mg._matrix_pages(5)
    assert a.shape == (25,) and a.dtype == np.float64 and a.flags.writeable and not a.any()
    assert isinstance(a.base.obj, mmap.mmap)


@pytest.mark.parametrize(
    "exc,expected",
    [
        (MemoryError(), ParameterError),
        (OverflowError("Python int too large to convert to C ssize_t"), ParameterError),
        (OSError(errno.ENOMEM, "Cannot allocate memory"), ParameterError),
        (OSError(errno.EACCES, "Permission denied"), OSError),
    ],
    ids=["memory", "overflow", "enomem", "other-os-error"],
)
def test_matrix_pages_that_cannot_be_mapped(monkeypatch, exc, expected):
    """Running out of memory or address space is one ParameterError naming
    n and the GiB; no pages are really asked for. Other OS errors pass."""
    def refuse(fileno, length):
        raise exc

    monkeypatch.setattr(mg.mmap, "mmap", refuse)
    with pytest.raises(expected) as info:
        mg._matrix_pages(200_000)
    if expected is ParameterError:
        assert str(info.value) == (
            "n = 200000 needs 298.0 GiB for one n x n float64 matrix, more than can be allocated"
        )
    else:
        assert info.value is exc


def test_rademacher_signal():
    x = mg.rademacher_signal(4, seed=5)
    assert set(np.unique(np.abs(x))) == {0.5}
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
    zeta = x * 2.0
    assert np.array_equal(zeta**2, np.ones(4))
    assert np.array_equal(zeta**3, zeta)


def test_community_signal_examples():
    u, labels = mg.community_signal(4, 0.5)
    assert np.array_equal(u, [0.5, 0.5, -0.5, -0.5])
    assert np.array_equal(labels, [1, 1, -1, -1])

    u6, labels6 = mg.community_signal(6, 1.0 / 3.0)
    assert int(np.sum(labels6 == 1)) == 2
    assert int(np.sum(labels6 == -1)) == 4

    with pytest.raises(ParameterError):
        mg.community_signal(5, 0.5)


def test_assemble_observation_hand_example():
    # perturbation adds sqrt(2)/2 = 0.707107 to every entry, square, / sqrt(2)
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    sp = SpikeParams(1.0, 0.0, 2)
    Y = _dense(mg.assemble_observation(UpperTriangle(W), SQUARE, sp, x))
    s = math.sqrt(2.0) * 0.5
    expected = np.array(
        [
            [s**2, (1.0 + s) ** 2],
            [(1.0 + s) ** 2, s**2],
        ]
    ) / math.sqrt(2.0)
    assert np.allclose(Y, expected, atol=1e-12)
    assert Y[0, 0] == pytest.approx(0.353553, abs=1e-6)
    assert Y[0, 1] == pytest.approx(2.060660, abs=1e-6)


def test_assemble_observation_degenerate_cases():
    n = 30
    W = _dense(mg.sample_wigner(n, Gaussian(0, 1), seed=4))
    x = mg.rademacher_signal(n, seed=5)
    zero_lam = _dense(mg.assemble_observation(UpperTriangle(W.copy()), IDENTITY, SpikeParams(0.0, 0.25, n), x))
    assert np.array_equal(zero_lam, W / math.sqrt(n))

    zero_x = np.zeros(n)
    noise_only = _dense(mg.assemble_observation(UpperTriangle(W.copy()), SQUARE, SpikeParams(3.0, 0.25, n), zero_x))
    assert np.array_equal(noise_only, W**2 / math.sqrt(n))


def test_assemble_observation_dimension_mismatch():
    W = np.zeros((4, 4))
    x = np.zeros(3)
    with pytest.raises(ParameterError):
        mg.assemble_observation(UpperTriangle(W), IDENTITY, SpikeParams(1.0, 0.0, 4), x)


def test_identity_f_reproduces_linear_model():
    n = 50
    W = _dense(mg.sample_wigner(n, Gaussian(0, 1), seed=8))
    x = mg.rademacher_signal(n, seed=9)
    for c, alpha in ((0.7, 0.0), (2.0, 0.25), (1.3, 1.0 / 3.0)):
        sp = SpikeParams(c, alpha, n)
        Y = _dense(mg.assemble_observation(UpperTriangle(W.copy()), IDENTITY, sp, x))
        linear = W / math.sqrt(n) + sp.signal_strength * np.outer(x, x)
        assert np.max(np.abs(Y - linear)) <= 1e-12


def test_assemble_observation_symmetric_bit_exact():
    # the block pass transforms both halves of each diagonal square alike
    n = 150
    W = mg.sample_wigner(n, Gaussian(0, 1), seed=12)
    x = mg.rademacher_signal(n, seed=13)
    Y = mg.assemble_observation(W, Polynomial([-1.0, -3.0, 1.0, 1.0]), SpikeParams(1.5, 0.3, n), x)
    for lo, hi in row_blocks(n):
        square = Y.matrix[lo:hi, lo:hi]
        assert np.array_equal(square, square.T)
    Y = _dense(Y)
    assert np.array_equal(Y, Y.T)


def test_sbm_spec_validation():
    with pytest.raises(ParameterError):
        SbmSpec(10, 0.25001, Gaussian(0, 1), Gaussian(0, 1))
    with pytest.raises(ParameterError):
        SbmSpec(10, 0.0, Gaussian(0, 1), Gaussian(0, 1))


def test_sbm_zero_noise_point_masses():
    spec = SbmSpec(2, 0.5, Gaussian(1.0, 0.0), Gaussian(-1.0, 0.0))
    A = _dense(mg.sample_sbm_adjacency(spec, seed=0))
    assert np.array_equal(A, [[1.0, -1.0], [-1.0, 1.0]])


def test_sbm_block_means_clt():
    delta = 0.2
    spec = SbmSpec(2000, 0.5, Gaussian(delta / 2, 1.0), Gaussian(-delta / 2, 1.0))
    A = _dense(mg.sample_sbm_adjacency(spec, seed=21))
    assert np.array_equal(A, A.T)
    n_plus = spec.n_plus
    within_block = A[:n_plus, :n_plus]
    cross_block = A[:n_plus, n_plus:]
    assert float(np.mean(within_block)) == pytest.approx(delta / 2, abs=0.01)
    assert float(np.mean(cross_block)) == pytest.approx(-delta / 2, abs=0.01)


def test_sbm_mean_structure_rank_one():
    # E A = ((gamma - gamma_bar)/2) u u^T when the means sum to zero:
    # CLT oracle over repeated small samples
    n, delta = 40, 1.0
    spec = SbmSpec(n, 0.5, Gaussian(delta / 2, 1.0), Gaussian(-delta / 2, 1.0))
    acc = np.zeros((n, n))
    reps = 400
    for t in range(reps):
        acc += _dense(mg.sample_sbm_adjacency(spec, seed=1000 + t))
    acc /= reps
    _, labels = mg.community_signal(n, 0.5)
    expected = (delta / 2.0) * np.outer(labels, labels)
    assert np.max(np.abs(acc - expected)) <= 5.0 / math.sqrt(reps)
