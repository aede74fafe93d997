"""Sweep worker processes: the pool's lifecycle, failures that cross the
process boundary, and the CLI's BLAS default for its workers."""

import inspect
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

from concurrent.futures.process import BrokenProcessPool

import pytest

import nlspike
from nlspike import errors
from nlspike.harness import parse_config, run_experiment, sweeps
from nlspike.harness.cli import main as cli_main

SRC = Path(nlspike.__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
F_JSON = {"kind": "polynomial", "coeffs": [-1.0, -3.0, 1.0, 1.0]}
GAUSS_JSON = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


def signed_raw(**overrides):
    raw = {
        "experiment": "signed-sweep",
        "n_list": [40],
        "c_grid": [1.0, 2.0],
        "alpha": "1/4",
        "trials_per_point": 2,
        "base_seed": 7,
        "f": F_JSON,
        "noise": GAUSS_JSON,
    }
    return raw | overrides


def sweep_bytes(tmp_path, name, threads):
    cfg = parse_config(signed_raw())
    return Path(run_experiment(cfg, tmp_path / name, threads=threads)["csv"]).read_bytes()


def worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def gone(pid):
    return not Path(f"/proc/{pid}").exists()


def run_cli(tmp_path, raw, threads, env_overrides=None, drop=()):
    cfg_path = tmp_path / f"cfg_{threads}.json"
    cfg_path.write_text(json.dumps(raw))
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env |= {"PYTHONPATH": str(SRC)} | (env_overrides or {})
    out = tmp_path / f"out_{threads}"
    cmd = [sys.executable, "-m", "nlspike.harness.cli", raw["experiment"]]
    cmd += ["--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300), out


# ---------------------------------------------------------------------------
# the pool's lifecycle
# ---------------------------------------------------------------------------


def test_pool_serves_later_calls_at_the_same_worker_count(tmp_path):
    serial = sweep_bytes(tmp_path, "serial", 1)
    assert sweep_bytes(tmp_path, "a", 2) == serial
    pool, pids = sweeps._POOL, worker_pids()
    assert len(pids) == 2
    assert sweep_bytes(tmp_path, "b", 2) == serial
    assert sweeps._POOL is pool and worker_pids() == pids


def test_new_worker_count_replaces_the_pool(tmp_path):
    serial = sweep_bytes(tmp_path, "serial", 1)
    sweep_bytes(tmp_path, "a", 2)
    old, old_pids = sweeps._POOL, worker_pids()
    assert sweep_bytes(tmp_path, "b", 3) == serial
    assert sweeps._POOL is not old and sweeps._POOL[0] == 3
    assert all(gone(pid) for pid in old_pids)  # the old workers were joined
    assert len(worker_pids()) == 3


def test_killed_worker_is_replaced_by_a_fresh_pool(tmp_path):
    serial = sweep_bytes(tmp_path, "serial", 1)
    sweep_bytes(tmp_path, "a", 2)
    old = sweeps._POOL
    victim = worker_pids()[0]
    os.kill(victim, signal.SIGKILL)
    # the executor sees the death, marks itself broken and reaps its workers
    deadline = time.monotonic() + 30.0
    while not gone(victim) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gone(victim)
    assert sweep_bytes(tmp_path, "b", 2) == serial
    assert sweeps._POOL is not old and victim not in worker_pids()


def test_workers_end_with_the_interpreter(tmp_path):
    """A process that ran a parallel sweep and exits leaves no worker
    behind: the executor joins its workers at interpreter exit."""
    code = (
        "import json, multiprocessing, sys\n"
        "from nlspike.harness import parse_config, run_experiment\n"
        f"cfg = parse_config(json.loads({json.dumps(json.dumps(signed_raw()))}))\n"
        f"run_experiment(cfg, {str(tmp_path / 'o')!r}, threads=2)\n"
        "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300
    )
    pids = json.loads(out.stdout)
    assert len(pids) == 2
    assert all(gone(pid) for pid in pids)


# ---------------------------------------------------------------------------
# failures across the process boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls",
    [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.NlspikeError)],
    ids=lambda c: c.__name__,
)
def test_package_errors_survive_pickling(cls):
    exc = pickle.loads(pickle.dumps(cls("trial 3 failed")))
    assert type(exc) is cls and str(exc) == "trial 3 failed"


def test_convergence_error_keeps_its_residual_through_pickling():
    exc = pickle.loads(pickle.dumps(errors.ConvergenceError("no fixed point", residual=2.5e-7)))
    assert type(exc) is errors.ConvergenceError
    assert str(exc) == "no fixed point" and exc.residual == 2.5e-7


def test_cli_overflowing_trial_exits_2_at_every_worker_count(tmp_path):
    raw = signed_raw(f={"kind": "polynomial", "coeffs": [0.0, 0.0, 1e308]})
    results = [run_cli(tmp_path, raw, threads)[0] for threads in (1, 2)]
    for r in results:
        assert r.returncode == 2
        assert r.stderr == "error: matrix has non-finite entries\n"


class _DeadPool:
    """A pool whose result iterator raises as an executor's does once one
    of its workers died."""

    def map(self, fn, *iterables):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")
        yield


def test_dead_worker_becomes_a_package_error(monkeypatch, tmp_path):
    monkeypatch.setattr(sweeps, "_pool", lambda workers: _DeadPool())
    with pytest.raises(errors.NlspikeError, match="one of 3") as info:
        run_experiment(parse_config(signed_raw()), tmp_path, threads=3)
    assert "\n" not in str(info.value)
    assert not (tmp_path / "signed_sweep.csv").exists()


def test_cli_dead_worker_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sweeps, "_pool", lambda workers: _DeadPool())
    for var in BLAS_VARS:  # so main leaves this process's environment as it is
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(signed_raw()))
    args = ["signed-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--threads", "2"]
    assert cli_main(args) == 2
    assert capsys.readouterr().err == "error: a sweep worker process died, one of 2; no rows were written\n"


def test_cli_huge_but_finite_f_ends_without_a_traceback(tmp_path):
    """f = 1e200 x^2 overflows E f^2 but not its SD or its trials: the
    sweep exits 0 with sigma_f = sqrt(2) 1e200 in its theory JSON."""
    raw = signed_raw(n_list=[40], c_grid=[1.0], trials_per_point=1)
    raw["f"] = {"kind": "polynomial", "coeffs": [0.0, 0.0, 1e200]}
    result, out = run_cli(tmp_path, raw, 1)
    assert result.returncode == 0, result.stderr
    (entry,) = json.loads((out / "signed_sweep_theory.json").read_text())
    assert entry["sigma_f"] == pytest.approx(math.sqrt(2.0) * 1e200)


# ---------------------------------------------------------------------------
# the CLI's BLAS default for its workers
# ---------------------------------------------------------------------------


def test_cli_workers_default_to_one_blas_thread(tmp_path):
    """At n = 600 (the Lanczos path) the CSV bytes depend on the BLAS
    thread count; with no BLAS variable set, `--threads 2` writes the bytes
    of a serial run at one BLAS thread."""
    raw = signed_raw(n_list=[600], c_grid=[0.8, 2.6], base_seed=5)
    parallel, p_out = run_cli(tmp_path, raw, 2, drop=BLAS_VARS)
    serial, s_out = run_cli(tmp_path, raw, 1, env_overrides={"OPENBLAS_NUM_THREADS": "1"})
    assert parallel.returncode == serial.returncode == 0, parallel.stderr + serial.stderr
    name = "signed_sweep.csv"
    assert (p_out / name).read_bytes() == (s_out / name).read_bytes()
