"""Quick self-test of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/selftest.py

For every workload at the self-test's small n, untraced and traced, it
checks that the result line has the agreed keys and every metric named
in BENCHMARK.json, that metric names match [A-Za-z0-9_.-]+, and that
the traced rep's self times plus harness.untraced_s add up to its wall
time (exactly when the sweep is serial; with a worker pool the spans
overlap, so they add up to at least the wall time). It also checks that
a perturbed reference row counts as failed. Exits 1 on the first failed
check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def run_tiny(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"{name} trace={trace}: exit code 0 ({proc.stderr[-400:]})")
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(name: str, trace: int, res: dict) -> None:
    kind = "per_layer" if trace else "end_to_end"
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{name}: gate passes")
    check(set(res["metrics"]) == set(run.metric_units(kind)), f"{name}: every {kind} metric reported")
    check(all(NAME.fullmatch(m) for m in res["metrics"]), f"{name}: metric names match {NAME.pattern}")


def check_additivity(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    out = run.ROOT / ".bench_build" / "perfbench" / f"{name}.tiny"
    result = json.loads((out / "result.json").read_text())
    layer_spans = [spans.Span(**json.loads(line)) for line in (out / "spans.jsonl").read_text().splitlines()]
    timed = [i for i, r in enumerate(result["reps"]) if r["kind"] == "timed"]
    tree_gap = wall_gap = 0.0
    for i, layers in zip(timed, result["layers_per_rep"]):
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        top_sum = sum(s.duration for s in layer_spans if s.rep == i and s.parent is None)
        tree_gap = max(tree_gap, abs(self_sum - top_sum))
        wall = layers["harness.rep_wall_s"]
        gap = (self_sum + layers["harness.untraced_s"] - wall) / wall
        wall_gap = max(wall_gap, abs(gap)) if workload.workers == 1 else min(wall_gap, gap)
    reps = f"{len(timed)} traced reps"
    check(tree_gap <= 1e-9, f"{name}: self times sum to the top-level spans ({reps})")
    if workload.workers == 1:
        check(wall_gap <= 1e-9, f"{name}: self times + untraced = wall ({reps}, worst {wall_gap:.1e})")
    else:
        check(wall_gap >= -1e-9, f"{name}: self times + untraced >= wall with {workload.workers} workers ({reps})")


def check_perturbed_reference() -> None:
    for name, workload in workloads.WORKLOADS.items():
        reference = (HERE / "reference" / f"{name}.tiny.csv").read_text()
        lines = reference.splitlines()
        header = lines[1].split(",")
        col = next(i for i, c in enumerate(header) if workload.tolerances[c][0] != "exact")
        cells = lines[2].split(",")
        cells[col] = repr(float(cells[col]) * (1 + 1e-4) + 1e-4)
        perturbed = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
        trials = workload.trials(workload.sweep_config(0, tiny=True))
        reps = [{"kind": "reference", "trials": trials, "error": None, "csv": perturbed}]
        attempted, failed = run.gate_reps(workload, reps, reference)
        check(failed == 1 and attempted == trials, f"{name}: perturbed {header[col]} fails one row")
        reps[0]["csv"] = reference
        check(run.gate_reps(workload, reps, reference) == (trials, 0), f"{name}: reference rows pass")


def main() -> int:
    check_perturbed_reference()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(name, trace, run_tiny(name, trace))
        check_additivity(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
