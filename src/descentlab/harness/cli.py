"""Command-line entry point.

Usage:

    descentlab <experiment> --config <path> [--seed N] [--out <path>]
    descentlab validate --config <path>

Exit status 0 on success, 1 when the experiment itself fails (bad data
files, a diverging run, a floating-point overflow, division by zero or
invalid value, or a run too large for memory), 2 for configuration
problems.

Inside ``parallel.map_trials`` every process computes on one BLAS
thread, whether the library is imported or run from here; a run gets its
parallelism from those processes instead.  For the work outside it,
importing this module puts ``OPENBLAS_NUM_THREADS=1`` in the environment
before numpy loads OpenBLAS, unless the variable is already set.
A value of your own wins there, and the bytes that work writes (the
kernel-approx and emc CSVs, the rkhs-target labels) may then follow it.
Outside ``map_trials`` a program that imports the library without this
module keeps OpenBLAS's default of one thread per CPU.
"""

from __future__ import annotations

import argparse
import os
import sys

# Read by numpy's bundled OpenBLAS when it loads, so it must be set before
# numpy is imported.  At the sizes of these experiments a second BLAS
# thread bought little, and its workers competed with the forked processes
# of the sweeps and Monte Carlo loops for the same cores.
# ``parallel._one_blas_thread`` around ``run`` would give the same CSV
# bytes, but it acts only after the import, and OpenBLAS starts its
# workers when it loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ..errors import ConfigError, DescentLabError
from .config import effective_config_lines, load_config
from .runner import EXPERIMENTS, import_modules, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descentlab",
        description="Numerical experiments on double descent and implicit bias.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, experiment in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=experiment.run.__doc__)
        sp.add_argument("--config", required=True, help="path to the config file")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the output CSV path")
    vp = sub.add_parser("validate", help="check a config file and print the effective config")
    vp.add_argument("--config", required=True, help="path to the config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            config = load_config(args.config)
            for line in effective_config_lines(config):
                print(line)
            return 0
        config = load_config(
            args.config, experiment=args.command, seed=args.seed, output=args.out
        )
        import_modules(config)
        # A float fault ends the run at its source rather than writing
        # inf or nan columns.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            run(config)
        print(f"wrote {config.output_path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DescentLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: floating-point fault: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
