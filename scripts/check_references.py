#!/usr/bin/env python3
"""Check the benchmark workloads' sample CSVs against their references.

Each workload of ``perfbench/run.py`` runs one sample config.  This script
finds the CSV that ``scripts/run_all.py --out DIR`` wrote for that config
(``DIR/<config stem>.csv``) and compares it with the workload's reference
in ``perfbench/references/`` through ``perfbench/csvcheck.compare``, with
the workload's per-column tolerances and ``DEFAULT_TOL``: the checks the
benchmark makes at the reference seed.  The benchmark's files are only
read.  A change that moves one of these experiments' numbers beyond those
tolerances fails here as well as in the benchmark.

    python scripts/run_all.py --out out
    python scripts/check_references.py --out out

Exits 1 after printing every mismatch, 0 when all four CSVs match.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from csvcheck import compare, config_seed, read_csv  # noqa: E402
from run import DEFAULT_TOL, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory of run_all.py's CSVs")
    args = parser.parse_args(argv)
    failed = False
    for name, workload in WORKLOADS.items():
        path = Path(args.out) / f"{Path(workload.config).stem}.csv"
        reference = ROOT / workload.reference
        if not path.is_file():
            problems = [f"no CSV at {path}"]
        else:
            seed = config_seed(read_csv(reference)[0])
            problems = compare(path, reference, seed, workload.tolerance, DEFAULT_TOL)
        failed = failed or bool(problems)
        print(f"{'ok' if not problems else 'FAIL':>4}  {name}  {path.name}")
        for problem in problems:
            print(f"      {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
