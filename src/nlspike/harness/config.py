"""Experiment configuration: a single strict JSON document.

Unknown keys are rejected rather than ignored, so a typo in a sweep
config fails fast instead of silently running the wrong experiment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .. import distributions as dist
from .. import nonlinearity as nlfn
from ..matrixgen import alpha_fraction
from ..distributions import Distribution
from ..errors import ConfigError
from ..nonlinearity import NonlinearFn

EXPERIMENTS = ("signed-sweep", "sbm-sweep", "esd", "decompose-check", "predict")

_COMMON_KEYS = {"experiment", "base_seed", "output_dir"}
_ALLOWED_KEYS = {
    "signed-sweep": _COMMON_KEYS | {"n_list", "c_grid", "alpha", "trials_per_point", "f", "noise"},
    "sbm-sweep": _COMMON_KEYS
    | {"n_list", "c_grid", "alpha", "trials_per_point", "f", "within", "across", "beta"},
    "decompose-check": _COMMON_KEYS
    | {"n_list", "c_grid", "alpha", "trials_per_point", "f", "noise"},
    "esd": _COMMON_KEYS
    | {"n_list", "c_grid", "alpha", "f", "model", "noise", "within", "across", "beta"}
    | {"bins", "range"},
    "predict": _COMMON_KEYS | {"c_grid", "alpha", "f", "model", "noise", "within", "across"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    base_seed: int = 0
    output_dir: str = "."
    n_list: tuple[int, ...] = ()
    c_grid: tuple[float, ...] = ()
    alpha: float | Fraction = 0.0
    trials_per_point: int = 8
    f: NonlinearFn | None = None
    noise: Distribution | None = None
    within: Distribution | None = None
    across: Distribution | None = None
    beta: float = 0.5
    model: str = "wigner"
    bins: int = 40
    hist_range: tuple[float, float] | None = None
    config_hash: str = ""
    raw: dict = field(default_factory=dict, repr=False)


def _parse_alpha(value) -> float | Fraction:
    """alpha as written, a float or an exact 'p/q' Fraction; alpha_fraction
    rejects a non-finite value or one outside [0, 1/2) with a ValueError."""
    if isinstance(value, str):
        try:
            alpha = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse alpha {value!r} as a fraction") from exc
    elif isinstance(value, (int, float)):
        alpha = float(value)
    else:
        raise ConfigError(f"alpha must be a number or 'p/q' string, got {value!r}")
    alpha_fraction(alpha)
    return alpha


def _integer(value, key: str, experiment: str) -> int:
    """An integral JSON number as an int; a bool, a string, a fraction or
    a non-finite number (json reads Infinity) is a ConfigError."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ConfigError(f"{experiment}: {key} must be integral, got {value!r}")
    return int(value)


def _require(obj: dict, key: str, experiment: str):
    if key not in obj:
        raise ConfigError(f"{experiment}: missing required key {key!r}")
    return obj[key]


def _parse_spec(raw: dict, key: str, experiment: str, from_json):
    """from_json of a required law or function; its failure is a
    ConfigError naming experiment.key."""
    obj = _require(raw, key, experiment)
    try:
        return from_json(obj)
    except Exception as exc:
        raise ConfigError(f"{experiment}.{key}: {exc}") from exc


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    unknown = set(raw) - _ALLOWED_KEYS[experiment]
    if unknown:
        raise ConfigError(f"{experiment}: unknown config keys {sorted(unknown)}")
    try:
        kwargs = _coerce(raw, experiment)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{experiment}: malformed config value ({exc})") from exc
    return ExperimentConfig(experiment=experiment, config_hash=config_hash(raw), raw=raw, **kwargs)


def _coerce(raw: dict, experiment: str) -> dict:
    """ExperimentConfig fields from the JSON values; a value of the wrong
    type or shape raises TypeError or ValueError."""
    kwargs: dict = {
        "base_seed": _integer(raw.get("base_seed", 0), "base_seed", experiment),
        "output_dir": str(raw.get("output_dir", ".")),
    }

    if experiment != "predict":
        n_list = tuple(_integer(n, "n_list entries", experiment) for n in _require(raw, "n_list", experiment))
        if not n_list:
            raise ConfigError(f"{experiment}: n_list must be nonempty")
        if any(n < 1 for n in n_list):
            raise ConfigError(f"{experiment}: n_list entries must be >= 1")
        kwargs["n_list"] = n_list

    c_grid = tuple(float(c) for c in _require(raw, "c_grid", experiment))
    if not c_grid:
        raise ConfigError(f"{experiment}: c_grid must be nonempty")
    if any(b <= a for a, b in zip(c_grid, c_grid[1:])):
        raise ConfigError(f"{experiment}: c_grid must be strictly increasing")
    kwargs["c_grid"] = c_grid

    kwargs["alpha"] = _parse_alpha(_require(raw, "alpha", experiment))
    kwargs["f"] = _parse_spec(raw, "f", experiment, nlfn.from_json)

    if experiment in ("signed-sweep", "sbm-sweep", "decompose-check"):
        trials = _integer(_require(raw, "trials_per_point", experiment), "trials_per_point", experiment)
        if trials < 1:
            raise ConfigError(f"{experiment}: trials_per_point must be >= 1, got {trials}")
        kwargs["trials_per_point"] = trials
    if experiment in ("esd", "predict"):
        kwargs["model"] = raw.get("model", "wigner")
        if kwargs["model"] not in ("wigner", "sbm"):
            raise ConfigError(f"{experiment}.model must be wigner or sbm, got {kwargs['model']!r}")

    if experiment in ("signed-sweep", "decompose-check") or kwargs.get("model") == "wigner":
        kwargs["noise"] = _parse_spec(raw, "noise", experiment, dist.from_json)
    else:
        for name in ("within", "across"):
            kwargs[name] = _parse_spec(raw, name, experiment, dist.from_json)
        if experiment != "predict":
            kwargs["beta"] = float(_require(raw, "beta", experiment))

    if experiment == "sbm-sweep":
        for name in ("within", "across"):
            if abs(dist.mean(kwargs[name])) > 1e-12:
                raise ConfigError(
                    f"sbm-sweep.{name} must have mean 0; the sweep sets the "
                    "community separation from c"
                )
    elif experiment == "esd":
        if len(kwargs["n_list"]) > 1 or len(c_grid) > 1:
            raise ConfigError("esd: one observation per run; n_list and c_grid take one entry each")
        kwargs["bins"] = _integer(raw.get("bins", 40), "bins", experiment)
        if kwargs["bins"] < 1:
            raise ConfigError(f"esd.bins must be >= 1, got {kwargs['bins']}")
        if "range" in raw:
            lo, hi = (float(v) for v in raw["range"])
            if not lo < hi:
                raise ConfigError(f"esd.range must be increasing, got {raw['range']}")
            kwargs["hist_range"] = (lo, hi)
    return kwargs


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)
