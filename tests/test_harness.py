import json
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from nlspike import spectral
from nlspike.errors import ConfigError, FormatError
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
def test_trial_memory_budget(raw, trial, tmp_path):
    """Peak traced allocation of one n = 1024 trial, in n x n float64
    buffers (numpy reports its allocations to tracemalloc). The whole-matrix
    builders read 4.0 (signed) and 6.0 (decompose); building the remainder
    in one buffer with a copy-free Lanczos norm took decompose to 2.25, and
    drawing the noise into the buffer the trial transforms in place took
    every trial to about 1.2 (sbm-sweep and esd read 3.0 and 2.06 before)."""
    n = 1024
    cfg = parse_config(sweep_cfg(n_list=[n], c_grid=[2.6], **raw))

    def run():
        return sweeps.run_esd(cfg, tmp_path) if trial is None else trial(cfg, n, 2.6, 0, 123)

    run()  # warm-up: caches and lazy imports
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) <= 1.5


def test_default_threads_follow_usable_cores(monkeypatch):
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1})
    lock = threading.Lock()
    running, peak, names = 0, 0, set()

    def worker(index, tup):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            names.add(threading.current_thread().name)
        time.sleep(0.01)
        with lock:
            running -= 1
        return index

    assert sweeps._run_tuples(worker, list(range(24)), None) == list(range(24))
    assert peak <= 2
    assert len(names) <= 2


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
    [{"experiment": "signed-sweep"}, {"experiment": "decompose-check"}, SBM_RAW, ESD_RAW],
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


def test_cli_convergence_exit_code(tmp_path, capsys):
    raw = {
        "experiment": "esd",
        "n_list": [60],
        "c_grid": [0.0001],
        "alpha": "1/3",
        "f": F_JSON,
        "model": "wigner",
        "noise": GAUSS_JSON,
        "qve_max_iter": 1,
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
