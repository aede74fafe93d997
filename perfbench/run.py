"""nlspike benchmark: Monte Carlo sweep throughput, set-up time and memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload signed_transition --seed 1 --seconds 20 --trace 0

Set-up is timed in several fresh processes. One more fresh process (the
worker) then runs the workload's sweep through `parse_config` +
`run_experiment` for --seconds; see worker.py. This process imports
neither nlspike nor numpy. It gates the worker's CSVs and prints, as its
last stdout line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Lines before it give the environment and a
summary. Exits non-zero, printing no result, when the program is missing
or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, set-up probes included


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_command(args, extra) -> list[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        *extra,
    ]


def gate_reps(workload, reps, reference: str) -> tuple[int, int]:
    """(attempted, failed) trials over all reps.

    A rep that raised fails all its trials. The reference rep's rows must
    meet the column tolerances; every other rep's rows must match the
    first seeded rep byte for byte. Failed rows never exceed a rep's trials.
    """
    attempted = failed = 0
    first = next((r["csv"] for r in reps if r["kind"] != "reference" and r["csv"]), None)
    for rep in reps:
        attempted += rep["trials"]
        if rep["error"] is not None:
            bad = rep["trials"]
        elif rep["kind"] == "reference":
            bad = gate.reference_failures(rep["csv"], reference, workload.tolerances)
        else:
            bad = gate.byte_failures(rep["csv"], first)
        failed += min(bad, rep["trials"])
    return attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test size: small n, own references")
    args = p.parse_args(argv)
    try:
        return measure(args)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {DEADLINE_S} s")


def measure(args) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "nlspike" / "__init__.py").is_file():
        return fail(f"no nlspike sources under {ROOT / 'src'}; run from a full checkout")
    workload = workloads.WORKLOADS[args.workload]
    suffix = ".tiny" if args.tiny else ""
    ref_path = HERE / "reference" / f"{workload.name}{suffix}.csv"
    if not ref_path.is_file():
        return fail(f"missing reference rows {ref_path}")
    out = ROOT / ".bench_build" / "perfbench" / f"{workload.name}{suffix}"
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **workload.blas_env())
    tiny = ["--tiny"] if args.tiny else []

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setup = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = subprocess.run(
            worker_command(args, ["--setup-only", *tiny]),
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining(),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail(f"set-up probe exited with {proc.returncode}")
        setup.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - launched)

    result_path = out / "result.json"
    result_path.unlink(missing_ok=True)
    launched = time.monotonic()
    proc = subprocess.run(
        worker_command(
            args,
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out), "--result", str(result_path), *tiny],
        ),
        env=env, cwd=ROOT, timeout=remaining(),
    )
    if proc.returncode != 0 or not result_path.is_file():
        return fail(f"worker exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    setup.append(result["ready"] - launched)

    reps = result["reps"]
    attempted, failed = gate_reps(workload, reps, ref_path.read_text())
    timed = [r for r in reps if r["kind"] == "timed" and r["error"] is None]
    if not timed:
        return fail("no timed rep completed")
    trials_per_s = statistics.median(r["trials"] / r["wall"] for r in timed)
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "timed_reps": len(timed),
        "rep_wall_s": {
            "median": statistics.median(r["wall"] for r in timed),
            "min": min(r["wall"] for r in timed),
            "max": max(r["wall"] for r in timed),
        },
        "setup_s": [round(s, 4) for s in setup],
        "failed_share": failed / attempted,
        "csv_sha256": hashlib.sha256(timed[0]["csv"].encode()).hexdigest()[:16],
    }
    print(json.dumps({"env": result["env"]}, sort_keys=True))
    print(json.dumps({"summary": summary}))

    if args.trace:
        layers = dict(result["layers"])
        baseline = next(r for r in reps if r["kind"] == "baseline")
        layers["harness.trace_overhead_s"] = layers["harness.rep_wall_s"] - baseline["wall"]
        self_times = sorted(
            ((v, k) for k, v in layers.items() if k.endswith(".self_s")), reverse=True
        )
        print(json.dumps({"largest_self_s": [[k, round(v, 4)] for v, k in self_times[:4]]}))
        units = metric_units("per_layer")
        values = {name: layers[name] for name in units}
    else:
        values = {
            "trials_per_s": trials_per_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "passed_share": 1.0 - failed / attempted,
        }
        units = metric_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
