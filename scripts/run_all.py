#!/usr/bin/env python3
"""Run every sample config in configs/ and collect the CSVs in one place.

The MNIST sweep is skipped automatically when the IDX files are not
present; point DESCENTLAB_DATA at them (or run make_synthetic_idx.py)
to include it.  Each CSV's sha256 is printed next to its time, so the
outputs of two checkouts can be compared line by line.  Any config that
fails to load or run is reported at the end and the script exits
nonzero, so this doubles as a slow smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from descentlab.errors import ConfigError
from descentlab.harness.cli import main as descentlab
from descentlab.harness.config import load_config
from descentlab.harness.datasets import data_dir, mnist_available


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--configs", default=None, help="directory of .cfg files (default: repo configs/)"
    )
    parser.add_argument("--out", default="out", help="directory for the CSVs")
    parser.add_argument("--seed", type=int, default=None, help="override every config's seed")
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    configs_dir = Path(args.configs) if args.configs else repo / "configs"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg_paths = sorted(configs_dir.glob("*.cfg"))
    if not cfg_paths:
        print(f"no .cfg files in {configs_dir}", file=sys.stderr)
        return 2

    failures = []
    for path in cfg_paths:
        try:
            config = load_config(path)
        except ConfigError as exc:
            print(f"{'error':>6}  {path.name}  (config error: {exc})")
            failures.append(path.name)
            continue
        if (
            config.experiment == "rff-sweep"
            and config.parameters.get("dataset") == "mnist"
            and not mnist_available()
        ):
            print(f"skip  {path.name}  (no MNIST IDX files in {data_dir()!r})")
            continue
        out_csv = out_dir / f"{path.stem}.csv"
        argv = [config.experiment, "--config", str(path), "--out", str(out_csv)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        start = time.perf_counter()
        status = descentlab(argv)
        elapsed = time.perf_counter() - start
        tag = "ok" if status == 0 else f"exit {status}"
        line = f"{tag:>6}  {path.name}  ({elapsed:.1f}s)"
        if status == 0:
            line += f"  sha256 {hashlib.sha256(out_csv.read_bytes()).hexdigest()}"
        else:
            failures.append(path.name)
        print(line)

    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
