"""Write the reference rows the gate checks against.

    python3 perfbench/make_reference.py [--tiny] [workload ...]

Runs only the reference rep (REFERENCE_SEED, the workload's thread plan)
in a fresh worker and stores its CSV as reference/<workload>[.tiny].csv.
Regenerate only when a change to the program is meant to change the
rows, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", default=sorted(workloads.WORKLOADS))
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    suffix = ".tiny" if args.tiny else ""
    for name in args.names:
        workload = workloads.WORKLOADS[name]
        out = run.ROOT / ".bench_build" / "perfbench" / f"{name}{suffix}.reference"
        out.mkdir(parents=True, exist_ok=True)
        result_path = out / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(workloads.REFERENCE_SEED), "--seconds", "0",
            "--out", str(out), "--result", str(result_path),
        ] + (["--tiny"] if args.tiny else [])
        subprocess.run(cmd, env=dict(os.environ, **workload.blas_env()), cwd=run.ROOT, check=True)
        (rep,) = json.loads(result_path.read_text())["reps"]
        if rep["error"] is not None:
            print(f"{name}: reference rep raised", file=sys.stderr)
            return 1
        (HERE / "reference" / f"{name}{suffix}.csv").write_text(rep["csv"])
        print(f"{name}{suffix}: {rep['csv'].count(chr(10)) - 2} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
