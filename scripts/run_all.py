#!/usr/bin/env python3
"""Run every sample config in configs/ and collect the CSVs in one place.

The MNIST sweep is skipped automatically when the IDX files are not
present; point DESCENTLAB_DATA at them (or run make_synthetic_idx.py)
to include it.  Each config runs in its own interpreter, so its set-up
(interpreter start, the imports its experiment needs, config load) and
its run are timed apart and no config is charged for another's imports;
the interpreter gets this one's ``-W`` options.  Each config's peak
resident memory is printed next to the times, for the interpreter and
for the largest of the children it forked (``parallel.map_trials``), and
so is each CSV's sha256, so the outputs of two checkouts can be compared
line by line.  Any config that fails to load or run is reported
at the end and the script exits nonzero, so this doubles as a slow smoke
test.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import time
from pathlib import Path

from descentlab.errors import ConfigError
from descentlab.harness.config import load_config
from descentlab.harness.datasets import data_dir, mnist_available

# The CLI with its call to ``run`` timed.  Set-up is counted from the
# parent's clock reading just before the spawn (argv[1]; the monotonic
# clock is shared by all processes on Linux) to that call.  The last line
# of standard output is "<self MB> <children MB> <set-up s> <run s>", the
# peak resident memory of the interpreter and of its largest child, and
# the times if ``run`` was reached.
_TIMED_CLI = """
import resource, sys, time
from descentlab.harness import cli

spawned, real_run, times = float(sys.argv[1]), cli.run, []

def run(config):
    times.append(time.monotonic() - spawned)
    start = time.perf_counter()
    try:
        return real_run(config)
    finally:
        times.append(time.perf_counter() - start)

cli.run = run
status = cli.main(sys.argv[2:])
peaks = [resource.getrusage(who).ru_maxrss / 1024 for who in
         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
print(*peaks, *times)
sys.exit(status)
"""


def _run_timed(argv: list[str]) -> tuple[int, list[float]]:
    """Exit status of the CLI on ``argv`` in a new interpreter, and its
    last line: peak memory of the interpreter and of its largest child in
    MB, then the set-up and run seconds (none if it stopped before the run)."""
    python = [sys.executable, *(f"-W{option}" for option in sys.warnoptions)]
    proc = subprocess.run(
        [*python, "-c", _TIMED_CLI, repr(time.monotonic()), *argv],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, [float(t) for t in lines[-1].split()] if lines else []


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
        status, measured = _run_timed(argv)
        tag = "ok" if status == 0 else f"exit {status}"
        line = f"{tag:>6}  {path.name}"
        if len(measured) == 4:
            line += f"  (set-up {measured[2]:.2f}s, run {measured[3]:.2f}s)"
        if len(measured) >= 2:
            line += f"  peak RSS {measured[0]:.0f} MB, largest child {measured[1]:.0f} MB"
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
