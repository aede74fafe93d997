import errno
import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nlspike import decomposition, matrixgen, sbm, spectral, theory
from nlspike.errors import ConfigError, FormatError, ParameterError
from nlspike.harness import (
    emit_plot,
    fit_transition_midpoint,
    load_config,
    load_table,
    parse_config,
    run_experiment,
)
from nlspike.harness import sweeps
from nlspike.harness.cli import main as cli_main
from nlspike.matrixgen import UpperTriangle, mirror_upper, row_blocks

F_JSON = {"kind": "polynomial", "coeffs": [-1.0, -3.0, 1.0, 1.0]}
GAUSS_JSON = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


def signed_cfg(**overrides):
    raw = {
        "experiment": "signed-sweep",
        "n_list": [60, 100],
        "c_grid": [0.5, 1.5, 2.5],
        "alpha": "1/4",
        "trials_per_point": 2,
        "base_seed": 11,
        "f": F_JSON,
        "noise": GAUSS_JSON,
    }
    raw.update(overrides)
    return raw


def sweep_cfg(**overrides):
    """signed_cfg with overrides, where a None value drops the key."""
    return {k: v for k, v in signed_cfg(**overrides).items() if v is not None}


SBM_RAW = {"experiment": "sbm-sweep", "within": GAUSS_JSON, "across": GAUSS_JSON, "beta": 0.5,
           "noise": None}
ESD_RAW = {"experiment": "esd", "model": "wigner", "trials_per_point": None}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_round_trip_and_alpha_fraction():
    cfg = parse_config(signed_cfg())
    assert cfg.n_list == (60, 100)
    assert float(cfg.alpha) == 0.25
    assert cfg.config_hash


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config(signed_cfg(bogus=1))


def test_config_rejects_empty_grid():
    with pytest.raises(ConfigError):
        parse_config(signed_cfg(c_grid=[]))


def test_config_rejects_non_increasing_grid():
    with pytest.raises(ConfigError):
        parse_config(signed_cfg(c_grid=[1.0, 1.0, 2.0]))


def test_config_rejects_zero_trials():
    with pytest.raises(ConfigError):
        parse_config(signed_cfg(trials_per_point=0))


def test_config_rejects_bad_experiment_and_missing_keys():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "mystery"})
    raw = signed_cfg()
    del raw["noise"]
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_config_sbm_requires_zero_means():
    raw = {
        "experiment": "sbm-sweep",
        "n_list": [40],
        "c_grid": [1.0],
        "alpha": "1/3",
        "trials_per_point": 1,
        "f": F_JSON,
        "within": {"kind": "gaussian", "mean": 0.3, "std": 1.0},
        "across": GAUSS_JSON,
        "beta": 0.5,
    }
    with pytest.raises(ConfigError):
        parse_config(raw)


# ---------------------------------------------------------------------------
# sweep artifacts
# ---------------------------------------------------------------------------


def test_signed_sweep_artifacts_and_determinism(tmp_path):
    cfg = parse_config(signed_cfg())
    arts1 = run_experiment(cfg, tmp_path / "a", threads=1)
    arts2 = run_experiment(cfg, tmp_path / "b", threads=3)
    csv1 = Path(arts1["csv"]).read_bytes()
    csv2 = Path(arts2["csv"]).read_bytes()
    assert csv1 == csv2  # serial vs parallel
    arts3 = run_experiment(cfg, tmp_path / "c", threads=3)
    assert Path(arts3["csv"]).read_bytes() == csv2  # re-run

    text = Path(arts1["csv"]).read_text().splitlines()
    assert text[0].startswith("# config=")
    assert "version=" in text[0]
    assert text[1] == "n,c,trial,seed,gamma1,gamma2,corr_u1_ones,corr_u2_zeta"
    # ordering fixed: n-major, then c, then trial
    table = load_table(arts1["csv"])
    assert list(table["n"][:6]) == [60.0] * 6
    theory = json.loads(Path(arts1["theory"]).read_text())
    assert [t["c"] for t in theory] == [0.5, 1.5, 2.5]
    svg = Path(arts1["svg_gamma2"]).read_text()
    assert "<polyline" in svg and "</svg>" in svg


def test_sbm_sweep_columns(tmp_path):
    raw = {
        "experiment": "sbm-sweep",
        "n_list": [64],
        "c_grid": [0.5, 2.0],
        "alpha": "1/3",
        "trials_per_point": 2,
        "f": F_JSON,
        "within": GAUSS_JSON,
        "across": GAUSS_JSON,
        "beta": 0.5,
        "base_seed": 3,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    lines = Path(arts["csv"]).read_text().splitlines()
    assert lines[1] == "n,beta,c,alpha,seed,gamma1,gamma2,gamma3,gamma4,overlap1,overlap2"
    table = load_table(arts["csv"])
    assert np.all(table["overlap1"] >= 0.0) and np.all(table["overlap1"] <= 1.0)


def test_sbm_sweep_beta_third_reports_qve_outlier(tmp_path):
    raw = {
        "experiment": "sbm-sweep",
        "n_list": [60],
        "c_grid": [2.5],
        "alpha": "1/3",
        "trials_per_point": 1,
        "f": {"kind": "polynomial", "coeffs": [3.0, -2.25, 1.0, 1.0, 1.0][:4]},
        "within": GAUSS_JSON,
        "across": GAUSS_JSON,
        "beta": 1.0 / 3.0,
        "base_seed": 5,
    }
    raw["n_list"] = [63]  # beta * n integral
    raw["f"] = F_JSON
    arts = run_experiment(parse_config(raw), tmp_path)
    theory = json.loads(Path(arts["theory"]).read_text())
    assert theory[0]["closed_form_valid"] is False
    assert "qve_outlier_limit" in theory[0]


def test_decompose_check_zero_strength_rows(tmp_path):
    raw = {
        "experiment": "decompose-check",
        "n_list": [50, 80],
        "c_grid": [0.0],
        "alpha": 0.25,
        "trials_per_point": 2,
        "f": F_JSON,
        "noise": GAUSS_JSON,
        "base_seed": 1,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    table = load_table(arts["csv"])
    trials = table["seed"] >= 0
    assert np.all(table["remainder_norm"][trials] == 0.0)
    # summary rows: one median per n
    medians = table["remainder_norm"][~trials]
    assert len(medians) == 2
    assert np.all(table["gap"] == 0.0)


def test_decompose_check_summary_rows_per_strength(tmp_path):
    raw = {
        "experiment": "decompose-check",
        "n_list": [40],
        "c_grid": [0.0, 2.0],
        "alpha": 0.25,
        "trials_per_point": 2,
        "f": F_JSON,
        "noise": GAUSS_JSON,
        "base_seed": 1,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    table = load_table(arts["csv"])
    trials = table["seed"] >= 0
    summary = ~trials
    # one median row per (n, c), each under its own c
    assert list(table["c_lambda"][summary]) == [0.0, 2.0]
    for c in (0.0, 2.0):
        own = trials & (table["c_lambda"] == c)
        expected = np.median(table["remainder_norm"][own])
        assert table["remainder_norm"][summary & (table["c_lambda"] == c)][0] == expected
    assert table["remainder_norm"][summary][0] == 0.0
    assert table["remainder_norm"][summary][1] > 0.0


def test_esd_emits_both_series(tmp_path):
    raw = {
        "experiment": "esd",
        "n_list": [200],
        "c_grid": [0.0001],
        "alpha": "1/3",
        "f": {"kind": "polynomial", "coeffs": [0.0, -3.0, 0.0, 1.0]},
        "model": "sbm",
        "within": GAUSS_JSON,
        "across": {"kind": "gaussian", "mean": 0.0, "std": 0.7071067811865476},
        "beta": 0.5,
        "bins": 24,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    table = load_table(arts["csv"])
    kinds = set(table["series"])
    assert kinds == {"esd", "qve"}
    svg = Path(arts["svg"]).read_text()
    assert "<rect" in svg and "<polyline" in svg


def test_esd_wigner_model_semicircle_overlay(tmp_path):
    raw = {
        "experiment": "esd",
        "n_list": [300],
        "c_grid": [0.5],
        "alpha": 0.0,
        "f": F_JSON,
        "model": "wigner",
        "noise": GAUSS_JSON,
        "bins": 20,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    table = load_table(arts["csv"])
    qve = table["series"] == "qve"
    # the overlay is the semicircle of deviation sd f(Z) = 2 sqrt 2
    sigma_f = 2.0 * np.sqrt(2.0)
    xs = table["x"][qve]
    ys = table["y"][qve]
    mid = ys[np.argmin(np.abs(xs))]
    assert mid == pytest.approx(1.0 / (np.pi * sigma_f), abs=1e-3)


def test_predict_artifact(tmp_path):
    raw = {
        "experiment": "predict",
        "c_grid": [1.0, 2.0],
        "alpha": "1/3",
        "model": "wigner",
        "f": F_JSON,
        "noise": GAUSS_JSON,
    }
    arts = run_experiment(parse_config(raw), tmp_path)
    blob = json.loads(Path(arts["json"]).read_text())
    assert blob[1]["kappa"] == pytest.approx(8.0)
    assert blob[1]["regime"] == "critical"


# ---------------------------------------------------------------------------
# trial footprint and worker count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,trial",
    [
        ({}, sweeps._signed_trial),
        ({"experiment": "decompose-check"}, sweeps._decompose_trial),
        (SBM_RAW, sweeps._sbm_trial),
        (ESD_RAW, None),
    ],
    ids=["signed-sweep", "decompose-check", "sbm-sweep", "esd"],
)
def test_trial_memory_budget(raw, trial, tmp_path, monkeypatch):
    """Peak traced allocation of one n = 1024 trial, in n x n float64
    buffers (numpy reports its allocations to tracemalloc; the trial
    matrix's pages come from mmap, which it does not see, so the bytes
    matrixgen._matrix_pages maps during the run are added). The
    whole-matrix builders read 4.0 (signed) and 6.0 (decompose); building
    the remainder in one buffer with a copy-free Lanczos norm took
    decompose to 2.25, and drawing the noise into the buffer the trial
    transforms in place took every trial to about 1.2 (sbm-sweep and esd
    read 3.0 and 2.06 before). The warm-up's trial buffer is dropped, so
    the traced run maps its own and counts it."""
    n = 1024
    cfg = parse_config(sweep_cfg(n_list=[n], c_grid=[2.6], **raw))
    mapped = []

    def counted(m):
        mapped.append(8 * m * m)
        return allocate(m)

    allocate = matrixgen._matrix_pages
    monkeypatch.setattr(matrixgen, "_matrix_pages", counted)
    monkeypatch.setattr(sweeps, "_matrix_pages", counted)

    def run():
        return sweeps.run_esd(cfg, tmp_path) if trial is None else trial(cfg, n, 2.6, 0, 123)

    run()  # warm-up: caches and lazy imports
    vars(sweeps._BUFFER).clear()
    mapped.clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mapped == [8 * n * n]
    assert (peak + sum(mapped)) / (8 * n * n) <= 1.5


def _smaps_rss(lo: int, hi: int) -> tuple[int, int]:
    """Rss and size, in bytes, summed over every /proc/self/smaps mapping
    that overlaps the addresses [lo, hi)."""
    rss = size = 0
    overlaps = False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        key, *fields = line.split()
        if not key.endswith(":"):  # a mapping's header: start-end perms ...
            start, end = (int(a, 16) for a in key.split("-"))
            overlaps = start < hi and end > lo
            size += (end - start) * overlaps
        elif key == "Rss:" and overlaps:
            rss += int(fields[0]) * 1024
    return rss, size


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="needs /proc/self/smaps")
def test_trial_buffer_leaves_the_lower_triangle_out_of_memory():
    """After one n = 2048 signed trial, the resident share of its buffer:
    on 4 KB pages row i leaves its first 8i // 4096 pages untouched, 0.625
    of the buffer resident, where 2 MB transparent huge pages took in
    0.97-0.99."""
    n = 2048
    cfg = parse_config(sweep_cfg(n_list=[n], c_grid=[2.6]))
    vars(sweeps._BUFFER).clear()
    sweeps._signed_trial(cfg, n, 2.6, 0, 123)
    buf = sweeps._BUFFER.array
    lo = buf.__array_interface__["data"][0]
    rss, size = _smaps_rss(lo, lo + buf.nbytes)
    assert size <= buf.nbytes + 4096, "the buffer shares its mapping with other memory"
    assert rss / buf.nbytes <= 0.70


def test_a_new_trial_buffer_asks_numpy_for_no_matrix_sized_block(monkeypatch):
    """Mapping a trial buffer makes no n x n numpy array beside it: the
    first mapping in a process primes glibc by freeing one fixed chunk
    under glibc's 32 MiB cap, and later mappings free none. A prime the
    size of the buffer doubled the address space a sweep needs, so a limit
    that fit one buffer of n = 3000 ended in numpy's MemoryError."""
    n = 3000
    configs = [parse_config(sweep_cfg(n_list=[m], c_grid=[2.6])) for m in (n, n + 1)]
    requests = []
    empty = np.empty

    def recorded(shape, *args, **kwargs):
        requests.append(math.prod(np.atleast_1d(shape)))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(matrixgen, "_PRIMED", False, raising=False)
    monkeypatch.setattr(sweeps, "_BUFFER", threading.local())
    monkeypatch.setattr(np, "empty", recorded)
    for cfg, m in zip(configs, (n, n + 1)):
        sweeps._trial_buffer(cfg, m)
    assert all(r < n * n for r in requests)
    assert requests == [matrixgen._PRIME_BYTES // 8]
    assert matrixgen._PRIME_BYTES < 32 << 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="primes glibc's malloc")
def test_primed_trials_stay_in_the_heap_past_glibcs_cap():
    """Minor page faults of six warm n = 2048 signed trials, in a fresh
    process. glibc raises its mmap threshold only for a freed chunk of at
    most 32 MiB; a prime the size of the buffer (32 MiB at n = 2048) passed
    that cap, and every other trial faulted 1,400-1,500 times as glibc
    mapped its temporaries afresh (about 4,400 over the six)."""
    code = (
        "import json, resource\n"
        "from nlspike.harness import parse_config, sweeps\n"
        f"cfg = parse_config(json.loads({json.dumps(json.dumps(sweep_cfg(n_list=[2048], c_grid=[2.6])))}))\n"
        "for trial in range(8):\n"
        "    if trial == 2:\n"
        "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    sweeps._signed_trial(cfg, 2048, 2.6, trial, 1000 + trial)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(matrixgen.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300)
    assert int(out.stdout) < 500


def _record_trial_addresses(monkeypatch, addresses, barrier=None):
    """Patch the signed trial's solver to append (thread, base address of
    the trial's matrix) to addresses; with a barrier, every thread's first
    trial waits there, so the threads' buffers are alive at once."""
    solve = sweeps.sym_eig_top
    seen = set()

    def recorded(Y, k):
        me = threading.get_ident()
        addresses.append((me, Y.matrix.__array_interface__["data"][0]))
        if barrier is not None and me not in seen:
            seen.add(me)
            barrier.wait(timeout=60)
        return solve(Y, k)

    monkeypatch.setattr(sweeps, "sym_eig_top", recorded)


def test_consecutive_trials_draw_into_one_buffer(monkeypatch, tmp_path):
    """Every trial of a sweep, at every n, draws into the same memory, and
    the CSV bytes equal those of trials drawn into fresh buffers."""
    cfg = parse_config(signed_cfg())
    with monkeypatch.context() as m:
        m.setattr(sweeps, "_trial_buffer", lambda cfg, n: np.empty((n, n)))
        fresh = Path(run_experiment(cfg, tmp_path / "fresh")["csv"]).read_bytes()
    addresses = []
    _record_trial_addresses(monkeypatch, addresses)
    vars(sweeps._BUFFER).clear()
    assert Path(run_experiment(cfg, tmp_path / "reused")["csv"]).read_bytes() == fresh
    assert len(addresses) == 12 and len(set(addresses)) == 1
    assert sweeps._BUFFER.array.size == max(cfg.n_list) ** 2
    # a later sweep no larger keeps the buffer; a larger one replaces it
    run_experiment(parse_config(signed_cfg(n_list=[80])), tmp_path / "smaller")
    assert len(set(addresses)) == 1
    run_experiment(parse_config(signed_cfg(n_list=[120])), tmp_path / "larger")
    assert sweeps._BUFFER.array.size == 120**2


def test_failed_buffer_allocation_leaves_the_thread_able_to_sweep(monkeypatch, tmp_path):
    """A buffer that cannot be mapped (n_list has no upper bound) is a
    ParameterError naming n, and leaves the thread with no buffer, so its
    next sweep maps one."""
    cfg = parse_config(signed_cfg())
    nbytes = 8 * max(cfg.n_list) ** 2
    real = matrixgen.mmap.mmap
    failures = []

    def failing_once(fileno, length):
        if length == nbytes and not failures:
            failures.append(length)
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        return real(fileno, length)

    vars(sweeps._BUFFER).clear()
    with monkeypatch.context() as m:
        m.setattr(matrixgen.mmap, "mmap", failing_once)
        with pytest.raises(ParameterError, match=r"^n = 100 needs 0\.0 GiB"):
            run_experiment(cfg, tmp_path / "failed")
    assert failures == [nbytes]
    assert not hasattr(sweeps._BUFFER, "array")
    run_experiment(cfg, tmp_path / "next")
    assert sweeps._BUFFER.array.size == max(cfg.n_list) ** 2


def test_sweeps_on_concurrent_threads_never_share_a_buffer(monkeypatch, tmp_path):
    """Three sweeps at once, their first trials held at a barrier so every
    buffer is alive together: each thread draws every trial into its own
    buffer, and each writes the serial bytes."""
    cfg = parse_config(signed_cfg())
    serial = Path(run_experiment(cfg, tmp_path / "serial")["csv"]).read_bytes()
    names = ("a", "b", "c")
    addresses, results = [], {}
    _record_trial_addresses(monkeypatch, addresses, threading.Barrier(len(names)))

    def sweep(name):
        results[name] = Path(run_experiment(cfg, tmp_path / name)["csv"]).read_bytes()

    threads = [threading.Thread(target=sweep, args=(name,)) for name in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results == dict.fromkeys(names, serial)
    per_thread = {}
    for ident, address in addresses:
        per_thread.setdefault(ident, set()).add(address)
    assert len(per_thread) == len(names)
    assert all(len(a) == 1 for a in per_thread.values())
    assert len(set.union(*per_thread.values())) == len(names)


def test_default_threads_run_on_the_calling_thread(monkeypatch, tmp_path):
    """At the default thread count every tuple runs on the calling thread:
    a second sweep thread buys nothing on Lanczos trials and doubles the
    trial buffers."""
    names = []

    def trial(cfg, n, c, t, seed):
        names.append(threading.current_thread().name)
        return (n, c, t, seed, 0.0, 0.0, 0.0, 0.0)

    signed = sweeps._SWEEPS["signed-sweep"]
    monkeypatch.setitem(sweeps._SWEEPS, "signed-sweep", replace(signed, trial=trial, plots=(), theory=None))
    run_experiment(parse_config(signed_cfg()), tmp_path)
    assert names == [threading.current_thread().name] * 12


def test_pool_sweep_takes_its_first_row_before_the_theory(monkeypatch, tmp_path):
    """With workers, the theory runs once the first row is back: the pool's
    threads need the GIL to hand the tasks to the workers, and the
    pure-Python theory would hold it."""
    log = []

    class LazyPool:
        def map(self, fn, *iterables):
            for args in zip(*iterables):
                log.append("next")
                yield fn(*args)

    sbm_sweep = sweeps._SWEEPS["sbm-sweep"]

    def theory(cfg, c):
        log.append("theory")
        return sbm_sweep.theory(cfg, c)

    monkeypatch.setattr(sweeps, "_pool", lambda workers: LazyPool())
    monkeypatch.setitem(sweeps._SWEEPS, "sbm-sweep", replace(sbm_sweep, theory=theory, plots=()))
    raw = sweep_cfg(**SBM_RAW | {"n_list": [40], "c_grid": [1.0, 2.0], "trials_per_point": 1})
    run_experiment(parse_config(raw), tmp_path, threads=2)
    assert log == ["next", "theory", "theory", "next"]


# ---------------------------------------------------------------------------
# the trials' one-triangle contract
# ---------------------------------------------------------------------------

# kernel -> (module whose solver binding the kernel calls, solver name, trial, config overrides)
TRIAL_KERNELS = {
    "signed-sweep": (sweeps, "sym_eig_top", sweeps._signed_trial, {}),
    "decompose-check": (decomposition, "operator_norm", sweeps._decompose_trial, {"experiment": "decompose-check"}),
    "sbm-sweep": (sbm, "sym_eig_top", sweeps._sbm_trial, SBM_RAW),
}
TRIAL_SIZES = [130, 600]  # the dense path, then the Lanczos path
assert TRIAL_SIZES[0] < spectral._LANCZOS_MIN_N <= TRIAL_SIZES[1]


def _run_kernel(kernel, n, c=2.6, seed=123):
    _, _, trial, raw = TRIAL_KERNELS[kernel]
    return trial(parse_config(sweep_cfg(n_list=[n], c_grid=[c], **raw)), n, c, 0, seed)


@pytest.mark.parametrize("n", TRIAL_SIZES)
@pytest.mark.parametrize("kernel", list(TRIAL_KERNELS))
def test_trial_solves_read_only_the_upper_triangle(monkeypatch, kernel, n):
    """Every entry below the diagonal is NaN when the trial's matrix reaches
    the solver, yet values, vectors, residuals and norm equal bit for bit
    those of the checked public entry on the mirrored matrix."""
    module, name, _, _ = TRIAL_KERNELS[kernel]
    solve = getattr(spectral, name)
    answers = []

    def nan_below(Y, *args):
        assert isinstance(Y, UpperTriangle)
        mirrored = mirror_upper(Y.matrix.copy())
        Y.matrix[np.tril_indices(n, -1)] = np.nan
        got = solve(Y, *args)
        answers.append((got, solve(mirrored, *args)))
        return got

    monkeypatch.setattr(module, name, nan_below)
    _run_kernel(kernel, n)
    ((got, checked),) = answers
    if name == "operator_norm":
        assert got == checked
    else:
        for field in ("values", "vectors", "residuals"):
            assert np.array_equal(getattr(got, field), getattr(checked, field))


# run_esd's models -> config overrides; esd_histogram is its solver
ESD_RUNS = {"esd": ESD_RAW, "esd-sbm": SBM_RAW | ESD_RAW | {"model": "sbm"}}


@pytest.mark.parametrize("kernel", [*TRIAL_KERNELS, *ESD_RUNS])
def test_trial_kernels_skip_the_symmetry_scan_and_the_mirror(monkeypatch, tmp_path, kernel):
    """No trial kernel, nor run_esd, calls _check_symmetric or mirror_upper,
    and none writes left of its diagonal squares: NaN put there after the
    draw is still there at the solve, and the trial's row (esd's
    histogram) is finite."""
    module, name = (sweeps, "esd_histogram") if kernel in ESD_RUNS else TRIAL_KERNELS[kernel][:2]
    n = spectral._LANCZOS_MIN_N + 100
    solve = getattr(spectral, name)
    checked = []

    def nan_left_of_squares(draw):
        def drawn(*args, **kwargs):
            M = draw(*args, **kwargs)
            for lo, hi in row_blocks(n):
                M.matrix[lo:hi, :lo] = np.nan
            return M

        return drawn

    def untouched(Y, *args):
        checked.append(all(np.isnan(Y.matrix[lo:hi, :lo]).all() for lo, hi in row_blocks(n)))
        return solve(Y, *args)

    def no_scan(M):
        raise AssertionError("a trial kernel scanned its matrix for symmetry")

    def no_mirror(M):
        raise AssertionError("a trial kernel mirrored its matrix")

    monkeypatch.setattr(spectral, "_check_symmetric", no_scan)
    monkeypatch.setattr(matrixgen, "mirror_upper", no_mirror)
    monkeypatch.setattr(sweeps, "sample_wigner", nan_left_of_squares(sweeps.sample_wigner))
    for drawer in (sweeps, sbm):
        monkeypatch.setattr(drawer, "sample_sbm_adjacency", nan_left_of_squares(drawer.sample_sbm_adjacency))
    monkeypatch.setattr(module, name, untouched)
    if kernel in ESD_RUNS:
        cfg = parse_config(sweep_cfg(n_list=[n], c_grid=[2.6], **ESD_RUNS[kernel]))
        row = load_table(sweeps.run_esd(cfg, tmp_path)["csv"])["y"]
    else:
        row = _run_kernel(kernel, n)
    assert checked == [True]
    assert all(math.isfinite(v) for v in row)


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------


def test_emit_plot_errors(tmp_path):
    with pytest.raises(OSError):
        emit_plot(tmp_path / "missing.csv", "lines", y_column="gamma2")
    path = tmp_path / "t.csv"
    path.write_text("# c\nn,c,gamma1\n10,0.5,1.0\n10,1.0,2.0\n")
    with pytest.raises(FormatError):
        emit_plot(path, "lines", y_column="gamma9")
    out = emit_plot(path, "lines", y_column="gamma1")
    assert out.read_text().startswith("<svg")


def test_cli_plots_a_flat_range_near_1e200(tmp_path):
    # f = 1e200 x^2 at one c and one trial: each plotted column is one
    # value, and the eigenvalues' flat ranges near 1e200 cannot widen by 1.0
    raw = signed_cfg(
        n_list=[40], c_grid=[1.0], trials_per_point=1, f={"kind": "polynomial", "coeffs": [0.0, 0.0, 1e200]}
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["signed-sweep", "--config", str(write_cfg(tmp_path, raw)), "--out", str(out)]) == 0
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) == 4
    for svg in svgs:
        assert "nan" not in svg.read_text()


# ---------------------------------------------------------------------------
# midpoint extraction
# ---------------------------------------------------------------------------


def test_fit_transition_midpoint_recovers_known_sigmoid():
    x = np.linspace(0.0, 4.0, 25)
    y = 0.05 + 0.85 / (1.0 + np.exp(-(x - 2.3) / 0.25))
    mid, info = fit_transition_midpoint(x, y)
    assert mid == pytest.approx(2.3, abs=0.02)
    assert info["hi"] > info["lo"]


def test_fit_transition_midpoint_with_noise():
    rng = np.random.default_rng(0)
    x = np.linspace(0.5, 3.5, 16)
    y = 0.9 / (1.0 + np.exp(-(x - 1.8) / 0.3)) + 0.03 * rng.standard_normal(16)
    mid, _ = fit_transition_midpoint(x, y)
    assert mid == pytest.approx(1.8, abs=0.15)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "signed-sweep"},
        {"experiment": "decompose-check"},
        SBM_RAW,
        ESD_RAW | {"c_grid": [0.8]},  # esd draws one observation, at one c
    ],
    ids=["signed-sweep", "decompose-check", "sbm-sweep", "esd"],
)
def test_lanczos_sweeps_are_deterministic(tmp_path, raw):
    """n = 600 runs the Lanczos eigensolver, which the small-n determinism
    tests never reach (esd always solves densely): CSV bytes, and with them
    the sampled matrices, agree across sweep thread counts and runs."""
    n = 600
    assert n >= spectral._LANCZOS_MIN_N
    cfg = parse_config(sweep_cfg(**{"n_list": [n], "c_grid": [0.8, 2.6], "trials_per_point": 2} | raw))
    csvs = [
        Path(run_experiment(cfg, tmp_path / f"t{i}", threads=threads)["csv"]).read_bytes()
        for i, threads in enumerate((1, 2, 2))
    ]
    assert csvs[0] == csvs[1] == csvs[2]


def write_cfg(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_success_and_exit_codes(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, signed_cfg(n_list=[40], c_grid=[1.0], trials_per_point=1))
    assert cli_main(["signed-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    bad = write_cfg(tmp_path, signed_cfg(bogus=1))
    assert cli_main(["signed-sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2

    assert cli_main(["signed-sweep", "--config", str(tmp_path / "nope.json")]) == 4

    wrong_cmd = write_cfg(tmp_path, signed_cfg(n_list=[40], c_grid=[1.0], trials_per_point=1))
    assert cli_main(["sbm-sweep", "--config", str(wrong_cmd)]) == 2

    # x^3 at c = 1e200 overflows to non-finite entries: ContractError, not a traceback
    overflow = write_cfg(
        tmp_path,
        signed_cfg(
            n_list=[40],
            c_grid=[1e200],
            trials_per_point=1,
            f={"kind": "polynomial", "coeffs": [0.0, 0.0, 0.0, 1.0]},
        ),
    )
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["signed-sweep", "--config", str(overflow), "--out", str(tmp_path / "o")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == "error: matrix has non-finite entries\n"

    # a Rademacher block law cannot be shifted by the separation: CapabilityError
    rademacher = {"kind": "rademacher", "p": 0.5}
    no_capability = write_cfg(
        tmp_path, sweep_cfg(**SBM_RAW | {"n_list": [40], "trials_per_point": 1, "within": rademacher})
    )
    assert cli_main(["sbm-sweep", "--config", str(no_capability), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: cannot shift a Rademacher law by a constant\n"


ESD_CFG = {
    "experiment": "esd",
    "n_list": [60],
    "c_grid": [0.5],
    "alpha": "1/3",
    "f": F_JSON,
    "model": "wigner",
    "noise": GAUSS_JSON,
}

PREDICT_CFG = {"experiment": "predict", "c_grid": [1.0], "alpha": "1/3", "f": F_JSON, "noise": GAUSS_JSON}


@pytest.mark.parametrize(
    "raw",
    [
        signed_cfg(c_grid=["x"]),
        signed_cfg(n_list=5),
        signed_cfg(trials_per_point="many"),
        signed_cfg(base_seed="s"),
        signed_cfg(threads=2),
        signed_cfg(n_list=[math.inf]),
        signed_cfg(n_list=[40.9]),
        signed_cfg(trials_per_point=1.7),
        signed_cfg(trials_per_point=True),
        ESD_CFG | {"range": [1]},
        ESD_CFG | {"bins": "x"},
        ESD_CFG | {"bins": math.inf},
        ESD_CFG | {"eta": 1e-3},
        ESD_CFG | {"qve_max_iter": 1},
        ESD_CFG | {"n_list": [60, 80]},
        ESD_CFG | {"c_grid": [0.5, 1.0]},
        PREDICT_CFG | {"alpha": math.nan},
        PREDICT_CFG | {"alpha": math.inf},
        PREDICT_CFG | {"alpha": 0.7},
        PREDICT_CFG | {"alpha": -0.2},
        PREDICT_CFG | {"base_seed": -math.inf},
    ],
    ids=[
        "c_grid",
        "n_list",
        "trials_per_point",
        "base_seed",
        "threads",
        "n_list-inf",
        "n_list-fraction",
        "trials_per_point-fraction",
        "trials_per_point-bool",
        "esd-range",
        "esd-bins",
        "esd-bins-inf",
        "esd-eta",
        "esd-qve_max_iter",
        "esd-n_list",
        "esd-c_grid",
        "predict-alpha-nan",
        "predict-alpha-inf",
        "predict-alpha-0.7",
        "predict-alpha-negative",
        "predict-base_seed-inf",
    ],
)
def test_cli_malformed_value_exits_2(tmp_path, capsys, raw):
    command = raw["experiment"]
    capsys.readouterr()
    assert cli_main([command, "--config", str(write_cfg(tmp_path, raw)), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [signed_cfg(), ESD_CFG], ids=["signed-sweep", "esd"])
def test_cli_matrix_too_large_to_map_exits_2(tmp_path, capsys, monkeypatch, raw):
    """An n whose trial matrix cannot be mapped ends in one line; mmap is
    refused here, so no such matrix is really asked for."""
    def refuse(fileno, length):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(matrixgen.mmap, "mmap", refuse)
    cfg_path = write_cfg(tmp_path, raw | {"n_list": [200_000], "c_grid": [1.0]})
    capsys.readouterr()
    assert cli_main([raw["experiment"], "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: n = 200000 needs 298.0 GiB for one n x n float64 matrix, more than can be allocated\n"
    )


def test_cli_esd_non_finite_range_exits_2(tmp_path, capsys):
    # -1e400 reads as -inf: the histogram refuses it before numpy would
    text = json.dumps(ESD_CFG | {"range": [0, 3]}).replace("[0, 3]", "[-1e400, 3]")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    capsys.readouterr()
    assert cli_main(["esd", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: need finite lo < hi, got (-inf, 3.0)\n"


@pytest.mark.parametrize(
    "raw",
    [
        signed_cfg(n_list=[40], c_grid=[1.0], trials_per_point=1),
        PREDICT_CFG,
    ],
    ids=["signed-sweep", "predict"],
)
def test_cli_threads_zero_exits_2(tmp_path, capsys, raw):
    cfg_path = write_cfg(tmp_path, raw)
    capsys.readouterr()
    assert cli_main([raw["experiment"], "--config", str(cfg_path), "--out", str(tmp_path), "--threads", "0"]) == 2
    assert capsys.readouterr().err == "error: threads must be >= 1, got 0\n"


def test_cli_predict_abs_is_sign_unrecoverable(tmp_path, capsys):
    """Every odd derivative moment of abs vanishes under N(0, 1); the scan
    stops at abs's one derivative instead of asking for a third."""
    raw = {
        "experiment": "predict",
        "c_grid": [1.0],
        "alpha": "1/3",
        "f": {"kind": "named", "tag": "abs"},
        "noise": GAUSS_JSON,
    }
    assert cli_main(["predict", "--config", str(write_cfg(tmp_path, raw)), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    (entry,) = json.loads((tmp_path / "o" / "predictions.json").read_text())
    assert entry["indices"] == {"I_e": 0, "I_o": None}  # the JSON form of I_o = inf
    assert entry["regime"] == "sign-unrecoverable"


def test_cli_convergence_exit_code(tmp_path, capsys, monkeypatch):
    """A QVE that cannot converge in its iteration cap exits 3."""
    monkeypatch.setattr(theory, "_QVE_MAX_ITER", 1)
    raw = {
        "experiment": "esd",
        "n_list": [60],
        "c_grid": [0.0001],
        "alpha": "1/3",
        "f": F_JSON,
        "model": "wigner",
        "noise": GAUSS_JSON,
    }
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["esd", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_cli_seed_override_changes_output(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, signed_cfg(n_list=[40], c_grid=[1.0], trials_per_point=1))
    assert cli_main(["signed-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s1"), "--seed", "123"]) == 0
    assert cli_main(["signed-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s2"), "--seed", "123"]) == 0
    assert cli_main(["signed-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s3"), "--seed", "999"]) == 0
    capsys.readouterr()
    a = (tmp_path / "s1" / "signed_sweep.csv").read_text()
    b = (tmp_path / "s2" / "signed_sweep.csv").read_text()
    c = (tmp_path / "s3" / "signed_sweep.csv").read_text()
    # same override agrees after dropping the hash comment; different differs
    assert a.splitlines()[1:] == b.splitlines()[1:]
    assert a.splitlines()[2:] != c.splitlines()[2:]


# ---------------------------------------------------------------------------
# sample configs
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SWEEP_KEYS = {"csv", "theory", "svg_gamma1", "svg_gamma2"}
ARTIFACT_KEYS = {
    "signed-sweep": SWEEP_KEYS | {"svg_corr_u1_ones", "svg_corr_u2_zeta"},
    "sbm-sweep": SWEEP_KEYS | {"svg_overlap1", "svg_overlap2"},
    "decompose-check": {"csv", "svg"},
    "esd": {"csv", "svg"},
    "predict": {"json"},
}


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_sample_config_runs(path, tmp_path):
    cfg = load_config(path)
    if cfg.experiment == "esd":
        cfg = parse_config(dict(cfg.raw, n_list=[60]))  # beta * n integral at beta = 1/3
    elif cfg.experiment != "predict":
        cfg = parse_config(dict(cfg.raw, n_list=[30], trials_per_point=1))
    arts = run_experiment(cfg, tmp_path, threads=1)
    assert set(arts) == ARTIFACT_KEYS[cfg.experiment]
    assert all(Path(p).is_file() for p in arts.values())
