"""Command-line entry point.

Subcommands mirror the experiments; every run takes a JSON config.
Exit codes: 0 success, 2 configuration or input error (any package error
other than a convergence failure), 3 numerical-convergence error, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import ConfigError, ConvergenceError, NlspikeError
from .config import load_config, parse_config
from .sweeps import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlspike",
        description="Nonlinear spiked random matrix laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("signed-sweep", "eigenvalue/correlation sweep for the signed-recovery model"),
        ("sbm-sweep", "transformed block-model recovery sweep"),
        ("esd", "eigenvalue histogram with limiting-density overlay"),
        ("decompose-check", "remainder norms of the signal-plus-noise approximation"),
        ("predict", "theory predictions only"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: from config)")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="sweep worker processes (default 1: trials run in this process); "
            "k > 1 sets 1 BLAS thread per worker unless OPENBLAS_NUM_THREADS, "
            "OMP_NUM_THREADS or MKL_NUM_THREADS is set",
        )
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
    return parser


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads > 1 and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        # k workers at the BLAS default of one thread per core oversubscribe
        # the cores; each spawned worker's BLAS reads these when it loads
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        cfg = load_config(args.config)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config is for {cfg.experiment!r} but the {args.command!r} subcommand was invoked"
            )
        if args.seed is not None:
            raw = dict(cfg.raw)
            raw["base_seed"] = args.seed
            cfg = parse_config(raw)
        artifacts = run_experiment(cfg, args.out, args.threads)
    except ConvergenceError as exc:
        print(f"convergence error: {exc} (residual={exc.residual})", file=sys.stderr)
        return EXIT_CONVERGENCE
    except NlspikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
