"""perfbench/spans.py binds nlspike's function signatures by name; a change
that breaks its traced runs (`perfbench/run.py --trace 1`) fails here."""

import importlib.util
import sys
from pathlib import Path

import nlspike.harness  # noqa: F401  Tracer.install wraps the harness layers too
from nlspike import theory
from nlspike.distributions import Uniform
from nlspike.nonlinearity import Named

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


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
