"""Element-wise nonlinearities with exact derivatives and derivative moments.

A function is either a Polynomial (monomial basis, ascending coefficients)
or a Named analytic function (abs, relu, tanh). Derivatives are symbolic:
polynomial calculus for polynomials, sign/step conventions for abs and relu
(value 0 at the kink), and a closed recursion in t = tanh(x) for tanh.

Derivative moments mu_k = E f^(k)(Z) resolve to the cheapest exact path
available (closed-form moments for polynomials, atom sums for finitely
supported laws), then Gauss-Hermite quadrature for named x Gaussian, then
a Monte Carlo fallback with a reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import distributions as dist
from .distributions import Distribution
from .errors import CapabilityError, ParameterError

MAX_POLY_DEGREE = 32
DEFAULT_GH_NODES = 64
DEFAULT_MC_SAMPLES = 1_000_000
DEFAULT_INDEX_TOL = 1e-9
DEFAULT_K_MAX = 16


@dataclass(frozen=True)
class Polynomial:
    """sum_j coeffs[j] * x^j with trailing zeros trimmed."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0.0,)
        if len(coeffs) - 1 > MAX_POLY_DEGREE:
            raise ParameterError(
                f"polynomial degree {len(coeffs) - 1} exceeds the cap {MAX_POLY_DEGREE}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)


@dataclass(frozen=True)
class Named:
    """Named analytic function after `order` symbolic differentiations."""

    tag: str
    order: int = 0

    def __post_init__(self):
        if self.tag not in ("abs", "relu", "tanh"):
            raise ParameterError(f"unknown function tag {self.tag!r}")


NonlinearFn = Polynomial | Named


def polynomial(coeffs) -> Polynomial:
    return Polynomial(coeffs)


def named(tag: str) -> Named:
    return Named(tag, 0)


@lru_cache(maxsize=None)
def hermite_coeffs(k: int) -> tuple[float, ...]:
    """Monomial coefficients of the probabilist Hermite polynomial He_k."""
    if k == 0:
        return (1.0,)
    if k == 1:
        return (0.0, 1.0)
    prev2, prev = hermite_coeffs(k - 2), hermite_coeffs(k - 1)
    out = [0.0] * (k + 1)
    for j, c in enumerate(prev):
        out[j + 1] += c
    for j, c in enumerate(prev2):
        out[j] -= (k - 1) * c
    return tuple(out)


def hermite_fn(weights: dict[int, float]) -> Polynomial:
    """Polynomial sum_k weights[k] * He_k(x)."""
    deg = max(weights) if weights else 0
    out = [0.0] * (deg + 1)
    for k, w in weights.items():
        for j, c in enumerate(hermite_coeffs(k)):
            out[j] += w * c
    return Polynomial(out)


@lru_cache(maxsize=None)
def _tanh_deriv_tcoeffs(order: int) -> tuple[float, ...]:
    """tanh^(order)(x) as a polynomial in t = tanh(x).

    d/dx p(t) = p'(t) (1 - t^2), starting from p(t) = t.
    """
    if order == 0:
        return (0.0, 1.0)
    p = _tanh_deriv_tcoeffs(order - 1)
    dp = tuple((j + 1) * p[j + 1] for j in range(len(p) - 1)) or (0.0,)
    out = [0.0] * (len(dp) + 2)
    for j, c in enumerate(dp):
        out[j] += c
        out[j + 2] -= c
    return tuple(out)


def derivative(f: NonlinearFn, k: int) -> NonlinearFn:
    """Exact k-th symbolic derivative; derivative(f, 0) is f itself."""
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")
    if k == 0:
        return f
    if isinstance(f, Polynomial):
        coeffs = f.coeffs
        for _ in range(k):
            coeffs = tuple((j + 1) * coeffs[j + 1] for j in range(len(coeffs) - 1)) or (0.0,)
            if coeffs == (0.0,) or not coeffs:
                return Polynomial((0.0,))
        return Polynomial(coeffs)
    total = f.order + k
    if f.tag in ("abs", "relu") and total > 1:
        raise CapabilityError(f"{f.tag} supports at most one derivative, requested order {total}")
    return Named(f.tag, total)


def evaluate(f: NonlinearFn, x):
    """f applied to a scalar or ndarray."""
    x = np.asarray(x, dtype=float)
    if isinstance(f, Polynomial):
        out = np.zeros_like(x)
        for c in reversed(f.coeffs):
            out = out * x + c
        return out
    if f.tag == "tanh":
        t = np.tanh(x)
        out = np.zeros_like(t)
        for c in reversed(_tanh_deriv_tcoeffs(f.order)):
            out = out * t + c
        return out
    if f.tag == "abs":
        return np.abs(x) if f.order == 0 else np.sign(x)
    # relu; derivative takes the value 0 at the kink.
    return np.maximum(x, 0.0) if f.order == 0 else np.where(x > 0.0, 1.0, 0.0)


def apply_elementwise(f: NonlinearFn, M: np.ndarray) -> np.ndarray:
    """Element-wise image of M; symmetry of M is preserved exactly."""
    return evaluate(f, np.asarray(M, dtype=float))


# ---------------------------------------------------------------------------
# Derivative moments
# ---------------------------------------------------------------------------


def _poly_expectation(p: Polynomial, d: Distribution) -> float:
    return sum(c * dist.moment(d, j) for j, c in enumerate(p.coeffs) if c != 0.0)


def _atom_expectation(f: NonlinearFn, d: Distribution) -> float:
    pts = dist.atoms(d)
    return sum(w * float(evaluate(f, v)) for v, w in pts)


def _gauss_hermite_expectation(f, d: Distribution, nodes: int) -> float:
    """E f(Z) for Gaussian-family Z by probabilist Gauss-Hermite quadrature.

    `f` may be a NonlinearFn or a plain callable on ndarrays.
    """
    m, s = dist.gaussian_params(d)
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    vals = evaluate(f, m + s * x) if isinstance(f, (Polynomial, Named)) else f(m + s * x)
    return float(np.dot(w, vals) / math.sqrt(2.0 * math.pi))


def _mc_expectation(f, d: Distribution, samples: int, seed: int) -> tuple[float, float]:
    """(mean, standard error) of f(Z) over `samples` draws."""
    if samples < 2:
        raise ParameterError(f"Monte Carlo needs at least 2 samples, got {samples}")
    z = dist.sample(d, samples, seed)
    vals = evaluate(f, z) if isinstance(f, (Polynomial, Named)) else f(z)
    return float(np.mean(vals)), float(np.std(vals) / math.sqrt(samples))


def expectation(
    f: NonlinearFn,
    d: Distribution,
    method: str = "auto",
    gh_nodes: int = DEFAULT_GH_NODES,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed: int = 0,
) -> tuple[float, float, str]:
    """E f(Z) with Z ~ d.

    Returns (value, standard_error, method_used); the error is 0 on the
    exact and quadrature paths. `method` is one of auto, closed-form,
    gauss-hermite, monte-carlo.
    """
    if method not in ("auto", "closed-form", "gauss-hermite", "monte-carlo"):
        raise ParameterError(f"unknown moment method {method!r}")
    if method in ("auto", "closed-form"):
        if isinstance(f, Polynomial):
            return _poly_expectation(f, d), 0.0, "closed-form"
        if dist.atoms(d) is not None:
            return _atom_expectation(f, d), 0.0, "closed-form"
        if method == "closed-form":
            raise CapabilityError(
                f"no closed form for {f!r} under {type(d).__name__}; "
                "use gauss-hermite or monte-carlo"
            )
    if method in ("auto", "gauss-hermite"):
        if dist.is_gaussian_family(d):
            return _gauss_hermite_expectation(f, d, gh_nodes), 0.0, f"gauss-hermite({gh_nodes})"
        if method == "gauss-hermite":
            raise CapabilityError("gauss-hermite requires a Gaussian-family law")
    if mc_samples < 2:
        raise CapabilityError(
            f"no exact path for {f!r} under {type(d).__name__} and no Monte Carlo budget"
        )
    value, err = _mc_expectation(f, d, mc_samples, mc_seed)
    return value, err, f"monte-carlo({mc_samples}, seed={mc_seed})"


def derivative_moment(
    f: NonlinearFn,
    k: int,
    d: Distribution,
    method: str = "auto",
    gh_nodes: int = DEFAULT_GH_NODES,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed: int = 0,
) -> float:
    """mu_{f^(k)} = E f^(k)(Z) with Z ~ d."""
    value, _, _ = expectation(derivative(f, k), d, method, gh_nodes, mc_samples, mc_seed)
    return value


@dataclass(frozen=True)
class MomentTable:
    """Derivative moments k -> mu_{f^(k)} with the method that produced them."""

    values: dict[int, float]
    stderr: dict[int, float]
    method: str

    def __getitem__(self, k: int) -> float:
        return self.values[k]


def moment_table(
    f: NonlinearFn,
    d: Distribution,
    k_max: int,
    method: str = "auto",
    gh_nodes: int = DEFAULT_GH_NODES,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed: int = 0,
) -> MomentTable:
    """Tabulate mu_{f^(k)} for k = 0..k_max.

    For polynomial f, entries past the degree are exact zeros.
    """
    values, errs, methods = {}, {}, set()
    for k in range(k_max + 1):
        v, e, m = expectation(derivative(f, k), d, method, gh_nodes, mc_samples, mc_seed)
        values[k], errs[k] = v, e
        methods.add(m)
    return MomentTable(values, errs, " + ".join(sorted(methods)))


def sd_f(
    f: NonlinearFn,
    d: Distribution,
    method: str = "auto",
    gh_nodes: int = DEFAULT_GH_NODES,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed: int = 0,
) -> float:
    """Standard deviation of f(Z) with Z ~ d."""
    if isinstance(f, Polynomial) and method in ("auto", "closed-form"):
        sq = np.convolve(f.coeffs, f.coeffs)
        mean_sq = sum(c * dist.moment(d, j) for j, c in enumerate(sq) if c != 0.0)
        mean_f = _poly_expectation(f, d)
        return math.sqrt(max(mean_sq - mean_f**2, 0.0))
    mean_f, _, _ = expectation(f, d, method, gh_nodes, mc_samples, mc_seed)
    sq_fn = (lambda x: (evaluate(f, x) - mean_f) ** 2)
    if dist.atoms(d) is not None and method in ("auto", "closed-form"):
        var = sum(w * float(sq_fn(np.asarray(v))) for v, w in dist.atoms(d))
    elif dist.is_gaussian_family(d) and method in ("auto", "gauss-hermite"):
        var = _gauss_hermite_expectation(sq_fn, d, gh_nodes)
    else:
        if mc_samples < 2:
            raise CapabilityError("no exact path for sd_f and no Monte Carlo budget")
        var, _ = _mc_expectation(sq_fn, d, mc_samples, mc_seed)
    return math.sqrt(max(var, 0.0))


def gamma_moment(
    f: NonlinearFn,
    k: int,
    d: Distribution,
    method: str = "auto",
    gh_nodes: int = DEFAULT_GH_NODES,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed: int = 0,
) -> float:
    """E f^(k)(Z - E Z): the derivative moment of the centered law."""
    _, centered = dist.mean_and_center(d)
    return derivative_moment(f, k, centered, method, gh_nodes, mc_samples, mc_seed)


def sd_f_centered(f: NonlinearFn, d: Distribution, **kwargs) -> float:
    """SD of f(Z - E Z)."""
    _, centered = dist.mean_and_center(d)
    return sd_f(f, centered, **kwargs)


# ---------------------------------------------------------------------------
# Index quantities
# ---------------------------------------------------------------------------


def _effective_k_max(f: NonlinearFn, k_max: int) -> int:
    """Clamp the scan range for polynomials, where the tail is exactly zero."""
    if isinstance(f, Polynomial):
        return min(k_max, f.degree)
    return k_max


def _scan_index(k_values, magnitude, tol: float) -> int | float:
    for k in k_values:
        value, err = magnitude(k)
        threshold = max(tol, 5.0 * err) if err > 0.0 else tol
        if abs(value) > threshold:
            return k
    return math.inf


def even_odd_index(
    f: NonlinearFn,
    d: Distribution,
    tol: float = DEFAULT_INDEX_TOL,
    k_max: int = DEFAULT_K_MAX,
    **kwargs,
) -> tuple[int | float, int | float]:
    """(I_e, I_o): smallest even / odd k with mu_{f^(k)} != 0, else inf.

    The infinity verdict is exact for polynomials (k_max clamps to the
    degree); on Monte Carlo paths the detection threshold widens to five
    standard errors.
    """
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    k_hi = _effective_k_max(f, k_max)

    def mag(k):
        value, err, _ = expectation(derivative(f, k), d, **kwargs)
        return value, err

    i_e = _scan_index(range(0, k_hi + 1, 2), mag, tol)
    i_o = _scan_index(range(1, k_hi + 1, 2), mag, tol)
    return i_e, i_o


def signal_constant_index(
    f: NonlinearFn,
    d: Distribution,
    d_bar: Distribution,
    tol: float = DEFAULT_INDEX_TOL,
    k_max: int = DEFAULT_K_MAX,
    **kwargs,
) -> tuple[int | float, int | float]:
    """(J_s, J_c) for the pair of community laws (d, d_bar).

    J_s is the smallest k with gamma_k + (-1)^(k+1) gamma_bar_k != 0 and
    J_c the smallest with the (-1)^k sign, both scanned up to k_max
    (clamped to the degree for polynomials, making inf exact).
    """
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    k_hi = _effective_k_max(f, k_max)
    _, cd = dist.mean_and_center(d)
    _, cdb = dist.mean_and_center(d_bar)

    def combo(sign_exponent):
        def mag(k):
            g, eg, _ = expectation(derivative(f, k), cd, **kwargs)
            gb, eb, _ = expectation(derivative(f, k), cdb, **kwargs)
            return g + (-1.0) ** (k + sign_exponent) * gb, math.hypot(eg, eb)

        return mag

    j_s = _scan_index(range(k_hi + 1), combo(1), tol)
    j_c = _scan_index(range(k_hi + 1), combo(0), tol)
    return j_s, j_c


def to_json(f: NonlinearFn) -> dict:
    if isinstance(f, Polynomial):
        return {"kind": "polynomial", "coeffs": list(f.coeffs)}
    if f.order != 0:
        raise CapabilityError("only underived named functions serialize")
    return {"kind": "named", "tag": f.tag}


def from_json(obj: dict) -> NonlinearFn:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParameterError(f"not a function object: {obj!r}")
    if obj["kind"] == "polynomial":
        return Polynomial(obj["coeffs"])
    if obj["kind"] == "named":
        return Named(obj["tag"], 0)
    raise ParameterError(f"unknown function kind {obj['kind']!r}")
