"""Print the SHA-256 of every artifact the sample and benchmark configs write.

    python3 tools/artifact_digests.py <out_dir>

Runs each configs/*.json, and each perfbench workload's sweep config at the
benchmark's reference seed, through the command-line entry point of this
checkout's src/, once with --threads 1 and once with --threads 2. Every
artifact (CSV, theory JSON, predictions JSON, SVG) lands under <out_dir> and
gets one `sha256  relative/path` line on stdout, sorted, so the outputs of
two checkouts compare with diff. Run both on the same host with the same
BLAS environment: CSV digits past the Lanczos cutoff depend on the BLAS
thread count. perfbench/workloads.py is read, never edited.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nlspike.harness.cli import main as cli_main  # noqa: E402


def _workloads():
    """perfbench/workloads.py as a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _configs(out_dir: Path) -> list[Path]:
    """The sample configs, then each workload's config written to out_dir."""
    paths = sorted((ROOT / "configs").glob("*.json"))
    workloads = _workloads()
    for name, workload in sorted(workloads.WORKLOADS.items()):
        path = out_dir / "workload_configs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(workload.sweep_config(workloads.REFERENCE_SEED), indent=2) + "\n")
        paths.append(path)
    return paths


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/artifact_digests.py <out_dir>", file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    if out_dir.exists() and any(out_dir.iterdir()):
        print(f"{out_dir} is not empty; its old files would be digested too", file=sys.stderr)
        return 2
    runs = out_dir / "runs"
    configs = _configs(out_dir)
    for threads in (1, 2):
        for config in configs:
            experiment = json.loads(config.read_text())["experiment"]
            args = [experiment, "--config", str(config), "--threads", str(threads)]
            args += ["--out", str(runs / f"threads{threads}" / config.stem)]
            with contextlib.redirect_stdout(sys.stderr):  # main lists its artifacts
                code = cli_main(args)
            if code != 0:
                print(f"{config.name} at --threads {threads} exited {code}", file=sys.stderr)
                return code
    for path in sorted(p for p in runs.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
