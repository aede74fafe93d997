"""One benchmark process: set up nlspike, run one workload's sweep repeatedly.

Started by run.py with the workload's BLAS threads in its environment.
With --setup-only it prints the monotonic time at which the config was
parsed and exits; run.py subtracts its own launch time. Otherwise it runs

  1. a reference rep at REFERENCE_SEED (checked against reference rows);
  2. with --trace 1, one untraced rep at the run's seed (the baseline for
     the tracing overhead);
  3. reps at the run's seed until --seconds have passed (give or take
     half a rep), traced with --trace 1,

and writes every rep's wall time and CSV text, its peak RSS, the
environment and, when traced, the per-layer breakdown to --result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import workloads  # noqa: E402  (sits beside this file)


def _import_program():
    """Import nlspike from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import nlspike
    from nlspike.harness import parse_config, run_experiment

    if Path(nlspike.__file__).resolve().parent != ROOT / "src" / "nlspike":
        raise ImportError(f"nlspike imported from {nlspike.__file__}, not from this checkout")
    return nlspike, parse_config, run_experiment


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(nlspike, workload, cfg) -> dict:
    import numpy as np
    import scipy

    def blas(info):
        b = info["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')}"

    return {
        "python": sys.version.split()[0],
        "nlspike": nlspike.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "workers": workload.workers,
        "config_hash": cfg.config_hash,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="use the self-test's small n_list")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", type=Path)
    p.add_argument("--result", type=Path)
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    nlspike, parse_config, run_experiment = _import_program()
    cfg = parse_config(workload.sweep_config(args.seed, args.tiny))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ref_raw = workload.sweep_config(workloads.REFERENCE_SEED, args.tiny)
    ref_cfg = parse_config(ref_raw)
    trials = workload.trials(ref_raw)
    reps = []

    def run_rep(kind, config, tracer=None):
        if tracer is not None:
            tracer.rep = len(reps)
        out_dir = args.out / "sweep"
        start = time.perf_counter()
        try:
            artifacts = run_experiment(config, out_dir, workload.workers)
            error = None
        except Exception:
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        end = time.perf_counter()
        rep = {"kind": kind, "wall": end - start, "trials": trials, "error": error}
        rep["csv"] = None if error else Path(artifacts["csv"]).read_text()
        reps.append(rep)
        return rep

    run_rep("reference", ref_cfg)
    tracer = None
    if args.trace:
        import spans

        run_rep("baseline", cfg)
        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        rep = run_rep("timed", cfg, tracer)
        # Start no rep that would run more than half its length past the window.
        if args.seconds - (time.perf_counter() - t0) < 0.5 * rep["wall"]:
            break
    if tracer is not None:
        tracer.uninstall()

    import resource

    result = {
        "ready": ready,
        "reps": reps,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(nlspike, workload, cfg),
    }
    if tracer is not None:
        timed = [i for i, r in enumerate(reps) if r["kind"] == "timed"]
        breakdowns = [
            spans.rep_breakdown(
                [s for s in tracer.spans if s.rep == i], reps[i]["wall"], workload.workers
            )
            for i in timed
        ]
        result["layers"] = spans.median_breakdown(breakdowns)
        result["layers_per_rep"] = breakdowns
        tracer.dump(args.out / "spans.jsonl")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
