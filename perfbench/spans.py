"""In-memory span tracing of nlspike's layers, from outside the package.

`Tracer.install()` wraps each layer's public functions. Modules import
their callees by name (`from .spectral import operator_norm`), so a
wrapper is bound into every loaded `nlspike` module that holds the
original function, not only the defining one. Each call records a span:
layer, function, thread, start, end, parent (through a thread-local
stack), the id of its top-level call, counters and whether it raised.

Self time is a span's duration minus its children's durations; children
run on the span's own thread, so they never overlap each other.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field


def _sample_bytes(bound) -> dict:
    args = bound.arguments
    n = args["spec"].n if "spec" in args else args["n"]
    return {"bytes": n * n * 8}


def _expectation_key(bound) -> dict:
    a = bound.arguments
    return {"key": repr((a["f"], a["d"], a["method"], a["gh_nodes"], a["mc_samples"], a["mc_seed"]))}


# layer -> [(module, function, counters from bound arguments, counters from result)]
LAYERS = {
    "spectral.eig_top": [
        ("nlspike.spectral", "sym_eig_top", None,
         lambda r: {"residual_max": float(max(r.residuals))}),
    ],
    "spectral.opnorm": [("nlspike.spectral", "operator_norm", None, None)],
    "matrixgen.sample": [
        ("nlspike.matrixgen", "sample_wigner", _sample_bytes, None),
        ("nlspike.matrixgen", "sample_sbm_adjacency", _sample_bytes, None),
    ],
    "distributions.sample": [
        ("nlspike.distributions", "sample", lambda b: {"draws": b.arguments["count"]}, None),
    ],
    "matrixgen.assemble": [("nlspike.matrixgen", "assemble_observation", None, None)],
    "nonlinearity.apply": [
        ("nlspike.nonlinearity", "apply_elementwise",
         lambda b: {"elements": int(getattr(b.arguments["M"], "size", 1))}, None),
    ],
    "nonlinearity.moments": [
        ("nlspike.nonlinearity", "expectation", _expectation_key,
         lambda r: {"monte_carlo": r[2].startswith("monte-carlo")}),
    ] + [
        ("nlspike.nonlinearity", name, None, None)
        for name in (
            "derivative_moment",
            "moment_table",
            "sd_f",
            "sd_f_centered",
            "gamma_moment",
            "even_odd_index",
            "signal_constant_index",
        )
    ],
    "theory.predict": [
        ("nlspike.theory", name, None, None)
        for name in ("signed_recovery_prediction", "sbm_recovery_prediction", "sbm_numeric_outlier")
    ],
    "sbm.trial": [("nlspike.sbm", "run_sbm_trial", None, None)],
    "decomposition.report": [("nlspike.decomposition", "signal_plus_noise", None, None)],
    "harness.svg": [("nlspike.harness.svgplot", "emit_plot", None, None)],
}


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int
    layer: str
    fn: str
    thread: int
    rep: int
    start: float
    end: float = 0.0
    error: bool = False
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the spans and the patched bindings; `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = 0
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, before, after):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            with self._lock:
                sid = next(self._ids)
            span = Span(
                sid,
                parent.sid if parent else None,
                parent.root if parent else sid,
                layer,
                fn.__name__,
                threading.get_ident(),
                self.rep,
                0.0,
            )
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters.update(before(bound))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if after is not None:
                span.counters.update(after(result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "nlspike" or name.startswith("nlspike.")]
        for layer, entries in LAYERS.items():
            for module_name, name, before, after in entries:
                original = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(layer, original, before, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def rep_breakdown(spans: list[Span], wall: float, workers: int) -> dict:
    """Per-layer figures of one rep's spans.

    `<layer>.s` sums the spans with no ancestor in the same layer,
    `<layer>.self_s` sums every span's self time, `<layer>.calls` counts
    the outermost spans (`expectation` calls for the moments layer).
    """
    by_id = {s.sid: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].layer == s.layer:
                return False
            p = by_id[p].parent
        return True

    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        outer = [s for s in mine if outermost(s)]
        out[f"{layer}.s"] = sum(s.duration for s in outer)
        out[f"{layer}.self_s"] = sum(s.duration - child_time.get(s.sid, 0.0) for s in mine)
        out[f"{layer}.calls"] = len(outer)
        out[f"{layer}.errors"] = sum(s.error for s in outer)

    expect = [s for s in spans if s.fn == "expectation"]
    out["nonlinearity.moments.calls"] = len(expect)
    out["nonlinearity.moments.distinct_share"] = (
        len({s.counters["key"] for s in expect}) / len(expect) if expect else 0.0
    )
    out["nonlinearity.moments.mc_share"] = (
        sum(bool(s.counters.get("monte_carlo")) for s in expect) / len(expect) if expect else 0.0
    )
    out["spectral.eig_top.residual_max"] = max(
        (s.counters.get("residual_max", 0.0) for s in spans if s.layer == "spectral.eig_top"),
        default=0.0,
    )
    for layer, counter in (
        ("matrixgen.sample", "bytes"),
        ("distributions.sample", "draws"),
        ("nonlinearity.apply", "elements"),
    ):
        out[f"{layer}.{counter}"] = sum(s.counters.get(counter, 0) for s in spans if s.layer == layer)

    top = [s for s in spans if s.parent is None]
    out["harness.untraced_s"] = wall - _union_length((s.start, s.end) for s in top)
    out["harness.pool.busy_share"] = sum(s.duration for s in top) / (wall * workers)
    out["harness.rep_wall_s"] = wall
    return out


def median_breakdown(breakdowns: list[dict]) -> dict:
    return {k: statistics.median(b[k] for b in breakdowns) for k in breakdowns[0]}
