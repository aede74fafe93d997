"""The benchmark's workloads: one sweep config, thread plan and gate each.

Why each workload exists is recorded in BENCHMARK.json.

Every workload is a sweep run through the public harness entry
(`parse_config` + `run_experiment`). The thread plan keeps sweep workers
times BLAS threads at the two cores the figures were taken on; BLAS
threads are set in the worker process's environment, never in `src/`.
CSV bytes depend on the BLAS thread count, so reference rows are valid
for one thread plan only.

This module imports nothing from nlspike or numpy, so the parent process
stays light.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of the reference rep whose rows are checked against reference/*.csv.
REFERENCE_SEED = 0

_F_HE2_HE3 = {"kind": "polynomial", "coeffs": [-1.0, -3.0, 1.0, 1.0]}
_GAUSSIAN = {"kind": "gaussian", "mean": 0.0, "std": 1.0}
_UNIFORM = {"kind": "uniform", "lo": -1.0, "hi": 1.0}

# Column tolerances for the reference gate, as (rule, size):
#   exact: the cell text must match;
#   rel:   |a - b| <= size * max(1, |b|);
#   abs:   |a - b| <= size;
#   flips: |a - b| <= size / n, i.e. `size` halves of one label flip.
# Eigenvalues at 1e-8 and alignments at 1e-6 pass a converged iterative
# eigensolver (agreement near 1e-14) and fail a wrong eigenpair, whose
# eigenvalue sits a bulk-edge gap (about 1e-2 here) away.
_EXACT = ("exact", 0.0)
_EIGEN = ("rel", 1e-8)
_ALIGN = ("abs", 1e-6)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # sweep config without base_seed
    tiny_n_list: tuple[int, ...]  # n_list of the self-test
    workers: int  # sweep threads passed to run_experiment
    blas_threads: int
    tolerances: dict  # CSV column -> (rule, size)

    def sweep_config(self, base_seed: int, tiny: bool = False) -> dict:
        cfg = dict(self.config, base_seed=base_seed)
        if tiny:
            cfg["n_list"] = list(self.tiny_n_list)
        return cfg

    def trials(self, cfg: dict) -> int:
        return len(cfg["n_list"]) * len(cfg["c_grid"]) * cfg["trials_per_point"]

    def blas_env(self) -> dict:
        value = str(self.blas_threads)
        return {"OPENBLAS_NUM_THREADS": value, "OMP_NUM_THREADS": value, "MKL_NUM_THREADS": value}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="signed_transition",
            # c = 0.8, 1.4 leave the top pair at the bulk edge, 2.6 and 5.0
            # detach it (the constant spike detaches near c = 1.68).
            config={
                "experiment": "signed-sweep",
                "n_list": [1000, 2000],
                "c_grid": [0.8, 1.4, 2.6, 5.0],
                "alpha": "1/4",
                "trials_per_point": 1,
                "f": _F_HE2_HE3,
                "noise": _GAUSSIAN,
            },
            tiny_n_list=(60, 90),
            workers=1,
            blas_threads=2,
            tolerances={
                "n": _EXACT, "c": _EXACT, "trial": _EXACT, "seed": _EXACT,
                "gamma1": _EIGEN, "gamma2": _EIGEN,
                "corr_u1_ones": _ALIGN, "corr_u2_zeta": _ALIGN,
            },
        ),
        Workload(
            name="decompose_remainder",
            config={
                "experiment": "decompose-check",
                "n_list": [500, 1000, 2000],
                "c_grid": [1.0],
                "alpha": 0.25,
                "trials_per_point": 2,
                "f": _F_HE2_HE3,
                "noise": _GAUSSIAN,
            },
            tiny_n_list=(40, 60, 80),
            workers=1,
            blas_threads=2,
            tolerances={
                "n": _EXACT, "seed": _EXACT, "alpha": _EXACT, "c_lambda": _EXACT,
                "remainder_norm": _EIGEN, "gap": _EXACT,
            },
        ),
        Workload(
            name="sbm_tanh_moments",
            # tanh over Uniform block laws has no closed-form moment path, so
            # run_sbm_trial's signal_constant_index falls back to Monte Carlo.
            config={
                "experiment": "sbm-sweep",
                "n_list": [200, 400],
                "c_grid": [2.0],
                "alpha": "1/3",
                "trials_per_point": 1,
                "f": {"kind": "named", "tag": "tanh"},
                "within": _UNIFORM,
                "across": _UNIFORM,
                "beta": 0.5,
            },
            tiny_n_list=(20, 40),
            workers=2,
            blas_threads=1,
            tolerances={
                "n": _EXACT, "beta": _EXACT, "c": _EXACT, "alpha": _EXACT, "seed": _EXACT,
                "gamma1": _EIGEN, "gamma2": _EIGEN, "gamma3": _EIGEN, "gamma4": _EIGEN,
                "overlap1": ("flips", 2.0), "overlap2": ("flips", 2.0),
            },
        ),
    )
}
