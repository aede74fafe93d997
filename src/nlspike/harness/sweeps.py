"""Sweep runners: deterministic Monte Carlo over (n, c, trial) tuples.

Each tuple gets its seed from (base_seed, tuple index) through the
splitmix64 finalizer, and results are collected in tuple-index order
before writing, so serial and parallel runs produce identical bytes at
the same BLAS thread count. CSV cells are formatted with repr(), the
shortest round-trip form.

threads = 1 runs the trials on the calling thread; k > 1 runs them on k
worker processes, because scipy's BLAS and LAPACK wrappers hold the GIL
and threads would not overlap. The pool is spawned (forking after OpenBLAS
has started its threads is unsafe) on the first parallel sweep and kept
for later sweeps at the same count; its workers inherit the caller's
environment, BLAS thread variables included, and are joined at
interpreter exit.

Every thread that runs trials, each worker's included, draws them into
one float64 buffer of its own, made at its first trial for the largest
n of the sweep and replaced only by a sweep that needs more; it lives as
long as its thread. The buffer is an anonymous mapping on 4 KB pages
(matrixgen._matrix_pages), so only the pages of the upper triangle the
trials write become resident, and a replaced buffer is unmapped.
"""

from __future__ import annotations

import atexit
import json
import math
import threading
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .. import __version__
from .. import distributions as dist
from ..decomposition import signal_plus_noise
from ..errors import ConfigError, NlspikeError
from ..matrixgen import (
    SbmSpec,
    SpikeParams,
    _matrix_pages,
    assemble_observation,
    rademacher_signal,
    sample_sbm_adjacency,
    sample_wigner,
)
from ..nonlinearity import sd_f, sd_f_centered
from ..rng import derive_seed
from ..sbm import run_sbm_trial, transform_and_embed
from ..spectral import alignment, esd_histogram, sym_eig_top
from ..theory import (
    sbm_numeric_outlier,
    sbm_recovery_prediction,
    signed_recovery_prediction,
    spectral_density_from_qve,
)
from .config import ExperimentConfig
from .svgplot import emit_plot


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, cfg: ExperimentConfig, header: tuple, rows: list[tuple]) -> None:
    lines = [f"# config={cfg.config_hash} version={__version__}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, entries: list[dict]) -> Path:
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return path


def _shifted_spec(cfg: ExperimentConfig, n: int, c: float) -> SbmSpec:
    """Block laws pulled apart to mean separation 2 c n^(alpha - 1/2)."""
    delta = 2.0 * c * float(n) ** (float(cfg.alpha) - 0.5)
    return SbmSpec(
        n,
        cfg.beta,
        dist.shifted(cfg.within, +0.5 * delta),
        dist.shifted(cfg.across, -0.5 * delta),
    )


# ---------------------------------------------------------------------------
# Trial kernels and per-c theory: (cfg, n, c, trial, seed) -> row, (cfg, c) -> dict
# ---------------------------------------------------------------------------

_BUFFER = threading.local()  # .array: this thread's flat trial buffer


def _trial_buffer(cfg: ExperimentConfig, n: int) -> np.ndarray:
    """An n x n C-contiguous view of this thread's trial buffer, which is
    made by matrixgen._matrix_pages for max(cfg.n_list) and replaced only
    when a sweep needs more. The view's lower triangle holds what the last
    trial left; nothing reads it."""
    largest = max(cfg.n_list)
    buf = getattr(_BUFFER, "array", None)
    if buf is None or buf.size < largest**2:
        # drop the smaller buffer before making the larger; a failed
        # allocation then leaves this thread with none, not a stale one
        del buf
        vars(_BUFFER).pop("array", None)
        _BUFFER.array = _matrix_pages(largest)
    return _BUFFER.array[: n * n].reshape(n, n)


def _signed_trial(cfg: ExperimentConfig, n: int, c: float, trial: int, seed: int) -> tuple:
    """Top two eigenvalues of the observation and the correlations of the
    top pair with the constant direction and of the second with the signal."""
    W = sample_wigner(n, cfg.noise, derive_seed(seed, 0), out=_trial_buffer(cfg, n))
    x = rademacher_signal(n, derive_seed(seed, 1))
    Y = assemble_observation(W, cfg.f, SpikeParams(c, cfg.alpha, n), x)
    pairs = sym_eig_top(Y, 2)
    ones = np.full(n, 1.0 / math.sqrt(n))
    corr1 = alignment(pairs.vectors[:, 0], ones)
    corr2 = alignment(pairs.vectors[:, 1], x)
    return (n, c, trial, seed, float(pairs.values[0]), float(pairs.values[1]), corr1, corr2)


def _signed_theory(cfg: ExperimentConfig, c: float) -> dict:
    return signed_recovery_prediction(cfg.f, cfg.noise, c, cfg.alpha).to_json() | {"c": c}


def _sbm_trial(cfg: ExperimentConfig, n: int, c: float, trial: int, seed: int) -> tuple:
    """Transformed block model with separation 2 c n^(alpha - 1/2)."""
    r = run_sbm_trial(_shifted_spec(cfg, n, c), cfg.f, seed, out=_trial_buffer(cfg, n))
    g = r.top_eigenvalues
    alpha = float(cfg.alpha)
    return (n, cfg.beta, c, alpha, seed, g[0], g[1], g[2], g[3], r.overlap_top, r.overlap_second)


def _sbm_theory(cfg: ExperimentConfig, c: float) -> dict:
    pred = sbm_recovery_prediction(cfg.f, cfg.within, cfg.across, c, cfg.alpha)
    entry = pred.to_json() | {"c": c, "beta": cfg.beta}
    if abs(cfg.beta - 0.5) > 1e-12:
        # closed forms hold at beta = 1/2 only; beta != 1/2 gets the
        # QVE-based outlier location instead
        entry["closed_form_valid"] = False
        if pred.kappa is not None and pred.regime == "critical":
            s = sd_f_centered(cfg.f, cfg.within)
            sb = sd_f_centered(cfg.f, cfg.across)
            entry["qve_outlier_limit"] = sbm_numeric_outlier(cfg.beta, s, sb, pred.kappa)
    return entry


def _decompose_trial(cfg: ExperimentConfig, n: int, c: float, trial: int, seed: int) -> tuple:
    """Operator-norm remainder of the signal-plus-noise approximation."""
    W = sample_wigner(n, cfg.noise, derive_seed(seed, 0), out=_trial_buffer(cfg, n))
    x = rademacher_signal(n, derive_seed(seed, 1))
    sp = SpikeParams(c, cfg.alpha, n)
    report = signal_plus_noise(W, cfg.f, sp, x, cfg.noise)
    # The gap column is always 0 (the Taylor-order intervals tile [0, 1/2));
    # it stays so that readers of decompose_check.csv, perfbench's reference
    # gate among them, see an unchanged header.
    return (n, seed, float(cfg.alpha), c, report.remainder_norm, 0)


def _decompose_medians(cfg: ExperimentConfig, rows: list[tuple]) -> list[tuple]:
    """Median remainder per (n, c) in n_list x c_grid order, seed = -1."""
    alpha = float(cfg.alpha)
    return [
        (n, -1, alpha, c, float(np.median([r[4] for r in rows if r[0] == n and r[3] == c])), 0)
        for n in cfg.n_list
        for c in cfg.c_grid
    ]


@dataclass(frozen=True)
class _Sweep:
    stem: str  # artifact file-name stem
    header: tuple[str, ...]
    trial: Callable[..., tuple]
    plots: tuple[str, ...]  # CSV columns drawn as SVG line plots
    theory: Callable[[ExperimentConfig, float], dict] | None = None
    summary: Callable[[ExperimentConfig, list[tuple]], list[tuple]] | None = None


_SWEEPS = {
    "signed-sweep": _Sweep(
        "signed_sweep",
        ("n", "c", "trial", "seed", "gamma1", "gamma2", "corr_u1_ones", "corr_u2_zeta"),
        _signed_trial,
        ("gamma1", "gamma2", "corr_u1_ones", "corr_u2_zeta"),
        theory=_signed_theory,
    ),
    "sbm-sweep": _Sweep(
        "sbm_sweep",
        ("n", "beta", "c", "alpha", "seed", "gamma1", "gamma2", "gamma3", "gamma4")
        + ("overlap1", "overlap2"),
        _sbm_trial,
        ("gamma1", "gamma2", "overlap1", "overlap2"),
        theory=_sbm_theory,
    ),
    "decompose-check": _Sweep(
        "decompose_check",
        ("n", "seed", "alpha", "c_lambda", "remainder_norm", "gap"),
        _decompose_trial,
        ("remainder_norm",),
        summary=_decompose_medians,
    ),
}


def _task(cfg: ExperimentConfig, index: int, tup: tuple) -> tuple:
    """The CSV row of tuple `index`: its trial at the index's seed."""
    return _SWEEPS[cfg.experiment].trial(cfg, *tup, derive_seed(cfg.base_seed, index))


_POOL = None  # (workers, ProcessPoolExecutor) of the last parallel sweep


def _pool(workers: int):
    """The worker pool at this size: spawned on first use and reused, and
    replaced when the size changes or a worker died (a broken executor
    refuses work and says why in `_broken`)."""
    global _POOL
    if _POOL is None or _POOL[0] != workers or _POOL[1]._broken:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _close_pool()
        context = multiprocessing.get_context("spawn")
        _POOL = (workers, ProcessPoolExecutor(workers, mp_context=context))
    return _POOL[1]


@atexit.register
def _close_pool() -> None:
    """Join the pool's workers and drop it; at exit this runs while the
    executor's finalizer can still reach the modules it logs through."""
    global _POOL
    if _POOL is not None:
        _POOL[1].shutdown()
        _POOL = None


def run_sweep(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict[str, Path]:
    """One CSV row per (n, c, trial) from the experiment's trial kernel,
    then its summary rows, its per-c theory JSON and one SVG per plotted
    column (a single plot is named after the sweep and keyed "svg")."""
    sweep = _SWEEPS[cfg.experiment]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tuples = [(n, c, t) for n in cfg.n_list for c in cfg.c_grid for t in range(cfg.trials_per_point)]
    args = (repeat(cfg), range(len(tuples)), tuples)
    # with workers, the trials run while this process computes the theory
    pending = list(map(_task, *args)) if threads == 1 else _pool(threads).map(_task, *args)
    try:
        theory = None if sweep.theory is None else [sweep.theory(cfg, c) for c in cfg.c_grid]
    finally:
        try:
            rows = list(pending)  # a failed trial is reported first, as on one thread
        except BrokenExecutor:
            # a worker died (killed for memory at large n, say) and broke the pool
            raise NlspikeError(
                f"a sweep worker process died, one of {threads}; no rows were written"
            ) from None
    if sweep.summary is not None:
        rows += sweep.summary(cfg, rows)
    csv_path = out_dir / f"{sweep.stem}.csv"
    _write_csv(csv_path, cfg, sweep.header, rows)
    artifacts = {"csv": csv_path}
    if theory is not None:
        artifacts["theory"] = _write_json(out_dir / f"{sweep.stem}_theory.json", theory)
    single = len(sweep.plots) == 1
    for col in sweep.plots:
        name = sweep.stem if single else f"{sweep.stem}_{col}"
        artifacts["svg" if single else f"svg_{col}"] = emit_plot(
            csv_path, "lines", y_column=col, out_path=out_dir / f"{name}.svg"
        )
    return artifacts


# ---------------------------------------------------------------------------
# esd
# ---------------------------------------------------------------------------


def run_esd(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict[str, Path]:
    """Eigenvalue histogram of one observation, with the limiting bulk
    density from the QVE (or semicircle for i.i.d. noise) as overlay rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (n,), (c,) = cfg.n_list, cfg.c_grid
    seed = derive_seed(cfg.base_seed, 0)

    if cfg.model == "wigner":
        W = sample_wigner(n, cfg.noise, derive_seed(seed, 0))
        x = rademacher_signal(n, derive_seed(seed, 1))
        Y = assemble_observation(W, cfg.f, SpikeParams(c, cfg.alpha, n), x)
        sigma = sigma_bar = sd_f(cfg.f, cfg.noise)
        beta = 0.5
    else:
        Y = transform_and_embed(sample_sbm_adjacency(_shifted_spec(cfg, n, c), seed), cfg.f)
        sigma = sd_f_centered(cfg.f, cfg.within)
        sigma_bar = sd_f_centered(cfg.f, cfg.across)
        beta = cfg.beta

    sigma_f = math.sqrt(0.5 * (sigma**2 + sigma_bar**2))
    bounds = cfg.hist_range or (-(2.0 * sigma_f + 0.5), 2.0 * sigma_f + 0.5)
    centers, density = esd_histogram(Y, cfg.bins, bounds)
    tau = np.linspace(bounds[0], bounds[1], 4 * cfg.bins + 1)
    rho = spectral_density_from_qve(beta, sigma, sigma_bar, tau)
    rows = [("esd", float(x), float(y)) for x, y in zip(centers, density)]
    rows += [("qve", float(x), float(y)) for x, y in zip(tau, rho)]
    csv_path = out_dir / "esd.csv"
    _write_csv(csv_path, cfg, ("series", "x", "y"), rows)
    svg = emit_plot(csv_path, "histogram-overlay", out_path=out_dir / "esd.svg")
    return {"csv": csv_path, "svg": svg}


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def run_predict(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict[str, Path]:
    """Theory-only predictions over the c grid, written as JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for c in cfg.c_grid:
        if cfg.model == "wigner":
            pred = signed_recovery_prediction(cfg.f, cfg.noise, c, cfg.alpha)
        else:
            pred = sbm_recovery_prediction(cfg.f, cfg.within, cfg.across, c, cfg.alpha)
        entries.append(pred.to_json() | {"c": c})
    return {"json": _write_json(out_dir / "predictions.json", entries)}


_RUNNERS = dict.fromkeys(_SWEEPS, run_sweep) | {"esd": run_esd, "predict": run_predict}


def run_experiment(cfg: ExperimentConfig, out_dir=None, threads: int = 1):
    """Dispatch on cfg.experiment; returns the artifact path map."""
    runner = _RUNNERS[cfg.experiment]
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return runner(cfg, out_dir if out_dir is not None else cfg.output_dir, threads)
