"""perfbench/spans.py binds nlspike's function signatures by name; a change
that breaks its traced runs (`perfbench/run.py --trace 1`) fails here. So
does a change that moves a workload's CSV digits out of the benchmark's
reference gate (perfbench/gate.py)."""

import importlib.util
import sys
from pathlib import Path

import pytest

import nlspike.harness  # noqa: F401  Tracer.install wraps the harness layers too
from nlspike import theory
from nlspike.distributions import Uniform
from nlspike.harness import parse_config, run_experiment
from nlspike.nonlinearity import Named

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module of its own, read only."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_meets_its_reference_rows(name, tmp_path):
    """Each workload's sweep, run once at the reference seed with its own
    worker count, meets perfbench/reference/<name>.csv within the column
    tolerances the benchmark's gate applies."""
    workload = WORKLOADS.WORKLOADS[name]
    cfg = parse_config(workload.sweep_config(WORKLOADS.REFERENCE_SEED))
    csv = Path(run_experiment(cfg, tmp_path, workload.workers)["csv"]).read_text()
    reference = (PERFBENCH / "reference" / f"{name}.csv").read_text()
    assert _load("gate").reference_failures(csv, reference, workload.tolerances) == 0


def test_tracer_records_moment_spans_without_monte_carlo():
    tracer = _load_spans().Tracer()
    law = Uniform(-1.0, 1.0)
    tracer.install()
    try:
        theory.sbm_recovery_prediction(Named("tanh"), law, law, 2.0, "1/3")
    finally:
        tracer.uninstall()
    moments = [s for s in tracer.spans if s.layer == "nonlinearity.moments"]
    expect = [s for s in moments if s.fn == "expectation"]
    assert expect and not any(s.error for s in moments)
    assert not any(s.counters.get("monte_carlo") for s in expect)
    assert all("key" in s.counters for s in expect)


GAUSS = {"kind": "gaussian", "mean": 0.0, "std": 1.0}
SWEEP = {"n_list": [40, 80], "c_grid": [0.5, 2.0], "alpha": "1/3", "trials_per_point": 1,
         "f": {"kind": "polynomial", "coeffs": [-1.0, -3.0, 1.0, 1.0]}}


def test_tracer_records_sweep_layers_without_error(tmp_path):
    """A tiny signed-sweep, decompose-check and sbm-sweep under the tracer."""
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        for raw in (
            {"experiment": "signed-sweep", "noise": GAUSS},
            {"experiment": "decompose-check", "noise": GAUSS},
            {"experiment": "sbm-sweep", "within": GAUSS, "across": GAUSS, "beta": 0.5},
        ):
            run_experiment(parse_config(SWEEP | raw), tmp_path / raw["experiment"], threads=1)
    finally:
        tracer.uninstall()
    assert not [s for s in tracer.spans if s.error]
    layers = {s.layer for s in tracer.spans}
    assert {
        "spectral.eig_top",
        "matrixgen.sample",
        "matrixgen.assemble",
        "nonlinearity.apply",
        "distributions.sample",
        "decomposition.report",
        "sbm.trial",
        "harness.svg",
    } <= layers
