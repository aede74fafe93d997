"""Scalar probability laws with deterministic sampling and exact moments.

Four kinds are supported: Gaussian, Rademacher, Uniform, and a Centered
wrapper that shifts any law to mean zero. All four have closed-form raw
moments, so the expectation of a polynomial against any of them is exact.
Sampling is pure in (distribution, count, seed); the same triple always
reproduces the same values bit for bit. `fill` continues a running
generator, so a matrix can be drawn row by row into its own buffer with
the bits of one whole draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch

import numpy as np

from .errors import CapabilityError, ParameterError
from .rng import generator


@dataclass(frozen=True)
class Gaussian:
    """Normal law N(mean, std^2); std = 0 degenerates to a point mass."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if not (self.std >= 0.0):
            raise ParameterError(f"Gaussian std must be >= 0, got {self.std}")


@dataclass(frozen=True)
class Rademacher:
    """Law on {-1, +1} with P(+1) = p."""

    p: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ParameterError(f"Rademacher p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ParameterError(f"Uniform requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Centered:
    """inner shifted by -E[inner]; the mean is exactly 0 by construction."""

    inner: "Distribution"


Distribution = Gaussian | Rademacher | Uniform | Centered


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


@singledispatch
def mean(d) -> float:
    """E Z, analytically."""
    raise ParameterError(f"not a distribution: {d!r}")


@mean.register
def _(d: Gaussian) -> float:
    return d.mean


@mean.register
def _(d: Rademacher) -> float:
    return 2.0 * d.p - 1.0


@mean.register
def _(d: Uniform) -> float:
    return 0.5 * (d.lo + d.hi)


@mean.register
def _(d: Centered) -> float:
    return 0.0


@singledispatch
def _raw_moment(d, k: int) -> float:
    raise ParameterError(f"not a distribution: {d!r}")


@_raw_moment.register
def _(d: Gaussian, k: int) -> float:
    # E (m + s X)^k by binomial expansion; E X^j = (j-1)!! for even j, 0 odd.
    total = 0.0
    for j in range(0, k + 1, 2):
        total += math.comb(k, j) * _double_factorial(j - 1) * d.std**j * d.mean ** (k - j)
    return total


@_raw_moment.register
def _(d: Rademacher, k: int) -> float:
    return d.p + (1.0 - d.p) * (-1.0) ** k


@_raw_moment.register
def _(d: Uniform, k: int) -> float:
    return (d.hi ** (k + 1) - d.lo ** (k + 1)) / ((k + 1) * (d.hi - d.lo))


@_raw_moment.register
def _(d: Centered, k: int) -> float:
    if k == 1:
        return 0.0
    m = mean(d.inner)
    return sum(math.comb(k, j) * _raw_moment(d.inner, j) * (-m) ** (k - j) for j in range(k + 1))


def moment(d: Distribution, k: int) -> float:
    """Raw moment E Z^k in closed form."""
    if k < 0:
        raise ParameterError(f"moment order must be >= 0, got {k}")
    return _raw_moment(d, k)


def variance(d: Distribution) -> float:
    return moment(d, 2) - mean(d) ** 2


@singledispatch
def fill(d, gen: np.random.Generator, z: np.ndarray) -> None:
    """Overwrite the 1-D array z with i.i.d. draws of d, continuing gen's
    stream; filling consecutive chunks equals one draw of their total."""
    raise ParameterError(f"not a distribution: {d!r}")


@fill.register
def _(d: Gaussian, gen: np.random.Generator, z: np.ndarray) -> None:
    gen.standard_normal(out=z)
    z *= d.std
    z += d.mean


@fill.register
def _(d: Rademacher, gen: np.random.Generator, z: np.ndarray) -> None:
    z[:] = np.where(gen.random(out=z) < d.p, 1.0, -1.0)


@fill.register
def _(d: Uniform, gen: np.random.Generator, z: np.ndarray) -> None:
    gen.random(out=z)
    z *= d.hi - d.lo
    z += d.lo


@fill.register
def _(d: Centered, gen: np.random.Generator, z: np.ndarray) -> None:
    fill(d.inner, gen, z)
    z -= mean(d.inner)


def sample(d: Distribution, count: int, seed: int) -> np.ndarray:
    """Draw `count` i.i.d. values, deterministic in (d, count, seed)."""
    if count < 1:
        raise ParameterError(f"sample count must be >= 1, got {count}")
    z = np.empty(count)
    fill(d, generator(seed), z)
    return z


def atoms(d: Distribution) -> tuple[tuple[float, float], ...] | None:
    """(value, weight) support points for finitely supported laws, else None."""
    if isinstance(d, Rademacher):
        return ((1.0, d.p), (-1.0, 1.0 - d.p))
    if isinstance(d, Gaussian) and d.std == 0.0:
        return ((d.mean, 1.0),)
    if isinstance(d, Centered):
        inner = atoms(d.inner)
        if inner is None:
            return None
        m = mean(d.inner)
        return tuple((v - m, w) for v, w in inner)
    return None


def mean_and_center(d: Distribution) -> tuple[float, Distribution]:
    """Split d into its mean and a mean-zero law.

    Gaussian recenters in place; laws already at mean 0 come back unchanged;
    anything else is wrapped in Centered.
    """
    m = mean(d)
    if m == 0.0:
        return 0.0, d
    if isinstance(d, Gaussian):
        return m, Gaussian(0.0, d.std)
    return m, Centered(d)


def shifted(d: Distribution, delta: float) -> Distribution:
    """Translate d by +delta, staying within the supported kinds."""
    if delta == 0.0:
        return d
    if isinstance(d, Gaussian):
        return Gaussian(d.mean + delta, d.std)
    if isinstance(d, Uniform):
        return Uniform(d.lo + delta, d.hi + delta)
    raise CapabilityError(f"cannot shift a {type(d).__name__} law by a constant")


def to_json(d: Distribution) -> dict:
    if isinstance(d, Gaussian):
        return {"kind": "gaussian", "mean": d.mean, "std": d.std}
    if isinstance(d, Rademacher):
        return {"kind": "rademacher", "p": d.p}
    if isinstance(d, Uniform):
        return {"kind": "uniform", "lo": d.lo, "hi": d.hi}
    if isinstance(d, Centered):
        return {"kind": "centered", "inner": to_json(d.inner)}
    raise ParameterError(f"not a distribution: {d!r}")


def from_json(obj: dict) -> Distribution:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParameterError(f"not a distribution object: {obj!r}")
    kind = obj["kind"]
    if kind == "gaussian":
        return Gaussian(float(obj["mean"]), float(obj["std"]))
    if kind == "rademacher":
        return Rademacher(float(obj["p"]))
    if kind == "uniform":
        return Uniform(float(obj["lo"]), float(obj["hi"]))
    if kind == "centered":
        return Centered(from_json(obj["inner"]))
    raise ParameterError(f"unknown distribution kind {kind!r}")
