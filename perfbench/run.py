"""descentlab benchmark: time to CSV, set-up time and memory per experiment.

Run from the repository root:

    python3 perfbench/run.py --workload rff-rkhs --seed 3 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

Each run is a fresh interpreter (``perfbench/child.py``) that calls the
``descentlab`` CLI entry, ``harness.cli.main``, on an unmodified sample
config, with the workload seed passed as ``--seed``; the library sees only
the config.  The load is a closed loop with one client: runs go one at a
time, back to back, and start while a window of ``--seconds`` is open (at
least one run of each kind; one rff-rkhs run outlasts the window), at the
BLAS thread count in effect.

``--trace 0`` reports the end-to-end metrics, each the median over the runs
of this invocation:

- ``run_rel``: the median run time, from the call into ``harness.runner.run``
  until the CSV is on disk, over that of the baseline.  The baseline is a frozen
  copy of the library (``perfbench/baseline/descentlab``, from the commit
  that defined this benchmark) running the workload's baseline config
  (``perfbench/baseline/<workload>.cfg``) at the same seed; its runs
  alternate with the runs of the code under test.  The speed of a shared
  host drifts by 20% or more over tens of minutes, and the drift moves both
  medians alike, so it cancels in the ratio, while a change to ``src/``
  moves the numerator only.  The median run time in seconds is printed
  beside it;
- ``setup_s``: from process spawn to that call (interpreter start, imports,
  config load and validation), over extra set-up-only processes and the runs;
- ``peak_rss_mb``: peak resident memory of a run process.

``--trace 1`` runs in turn a traced run (every library layer wrapped from
outside by ``layertrace``), an untraced run and a run with
``OPENBLAS_NUM_THREADS=1``, and reports the per-layer metrics.

Every run's CSV is checked.  At the seed of the committed reference
(``perfbench/references``) every value must match within a per-column
tolerance.  At any other seed the comment lines, header, row count and the
columns that do not depend on the seed must match, and runs with the same
BLAS setting must write byte-identical CSVs.  A run fails when it exits
nonzero, raises, or fails its check; ``failed_frac`` is failed over
attempted runs.  Baseline runs must exit 0 and write byte-identical CSVs;
if one does not, nothing can be measured and the benchmark exits 1.  Each
run's sha256, the check that ran and the environment
(versions, BLAS threads, CPU) go to ``perfbench/out/<workload>-seed<seed>-
trace<0|1>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own tests (trace completeness, failure accounting) run
with ``python3 -m pytest perfbench/tests``; they take about two minutes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from csvcheck import compare, config_seed, read_csv, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Every invocation must end within 180 s: no run is started that would
# not end by this deadline, and a run still going at it is killed.
DEADLINE_S = 165.0
# Set-up-only processes per untraced invocation, besides the runs' own.
SETUP_SAMPLES = 2
# Default tolerance (rtol, atol).  Between 1 and 2 BLAS threads (OpenBLAS
# 0.3.31, 2-core x86-64) the rff-rkhs CSV moved by at most 3.3e-10
# relative; the other workloads did not move at all.
DEFAULT_TOL = (1e-8, 0.0)


@dataclass(frozen=True)
class Workload:
    """One experiment config and the reference its CSV is checked against."""

    config: str  # relative to the repository root
    reference: str | None  # relative to the repository root
    seed_free: tuple = ()  # columns that do not depend on the seed
    tolerance: dict = field(default_factory=dict)  # column -> (rtol, atol)
    baseline: str | None = None  # config for the frozen library, relative to the root


WORKLOADS = {
    # Dense linear algebra: 45 SVDs of 1000 x N up to N = 8000 and 180 cos
    # featurizations; the width grid straddles n_train = 1000.  The only
    # memory-heavy workload.
    "rff-rkhs": Workload(
        "configs/rff_sweep_rkhs.cfg",
        "perfbench/references/rff-rkhs.csv",
        ("n_features", "repeats"),
        # Past the interpolation threshold train_mse is ~1e-25, numerically 0.
        {"train_mse": (DEFAULT_TOL[0], 1e-12)},
        baseline="perfbench/baseline/rff-rkhs.cfg",
    ),
    # 22 000 SVDs of tiny matrices, where per-call overhead dominates, and
    # 66 011 Legendre basis builds.
    "bias-variance": Workload(
        "configs/bias_variance.cfg",
        "perfbench/references/bias-variance.csv",
        ("degree", "n", "noise_scale", "trials", "noise"),
        baseline="perfbench/baseline/bias-variance.cfg",
    ),
    # Monte Carlo loop: 7 500 substreams with RNG draws and a 40 x p solve,
    # half of the grid rank-deficient.
    "sparse-risk": Workload(
        "configs/sparse_risk.cfg",
        "perfbench/references/sparse-risk.csv",
        ("p", "analytic_risk", "trials"),
        baseline="perfbench/baseline/sparse-risk.cfg",
    ),
    # A 100 000-step Python GD loop with 3 SVDs: the control on which a
    # linalg, rff or polyfit change must show no change.
    "implicit-bias": Workload(
        "configs/implicit_bias.cfg",
        "perfbench/references/implicit-bias.csv",
        ("t",),
        baseline="perfbench/baseline/implicit-bias.cfg",
    ),
}

END_TO_END = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def _config_value(path: Path, key: str) -> str | None:
    with open(path) as fh:
        for line in fh:
            name, sep, value = line.partition("=")
            if sep and name.strip() == key:
                return value.strip()
    return None


class Bench:
    """The runs of one invocation for one workload and seed."""

    def __init__(self, name: str, workload: Workload, seed: int, out_dir: Path = OUT):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.config = ROOT / workload.config
        self.baseline = ROOT / workload.baseline if workload.baseline else None
        self.experiment = _config_value(self.config, "experiment")
        self.reference = ROOT / workload.reference if workload.reference else None
        self.reference_seed = (
            config_seed(read_csv(self.reference)[0]) if self.reference else None
        )
        self.dir = out_dir / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0
        self.timed_out = False
        self.environment: dict = {}
        self.setup_samples: list[float] = []
        self.runs: list[dict] = []

    def spawn(self, mode: str, blas1: bool = False, baseline: bool = False) -> dict:
        """Start one child process, wait for it and return its record.
        With ``baseline`` it runs the frozen library on the baseline config."""
        self.spawned += 1
        record_path = self.dir / f"{self.spawned}.json"
        csv_path = self.dir / f"{self.spawned}.csv"
        src = HERE / "baseline" if baseline else ROOT / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        if blas1:
            env["OPENBLAS_NUM_THREADS"] = "1"
        spawn_t = time.monotonic()
        argv = [
            sys.executable, str(HERE / "child.py"), str(record_path), mode, repr(spawn_t), "--",
            self.experiment, "--config", str(self.baseline if baseline else self.config),
            "--seed", str(self.seed), "--out", str(csv_path),
        ]
        with subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        ) as proc:
            try:
                _, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                self.timed_out = True
                return {"mode": mode, "exit": None, "error": "timed out", "csv": str(csv_path)}
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"mode": mode}
        record["exit"] = proc.returncode
        record["csv"] = str(csv_path)
        if proc.returncode != 0:
            lines = stderr.strip().splitlines()
            record["error"] = lines[-1] if lines else f"exit {proc.returncode}"
        return record

    def warm_up(self) -> None:
        """One untimed set-up: the first interpreter in a fresh checkout
        compiles ``src/`` to bytecode.  It also records the environment."""
        self.environment = self.spawn("setup").get("environment", {})

    def measure_setup(self, samples: int) -> None:
        for _ in range(samples):
            record = self.spawn("setup")
            if "setup_s" in record:
                self.setup_samples.append(record["setup_s"])

    def run(self, kind: str) -> dict:
        """One experiment run; ``kind`` is ``run``, ``trace``, ``blas1`` or
        ``baseline``."""
        record = self.spawn(
            "trace" if kind == "trace" else "run",
            blas1=kind == "blas1",
            baseline=kind == "baseline",
        )
        record["kind"] = kind
        problems = []
        if record.get("error") or "raised" in record:
            problems.append(record.get("error") or f"raised {record['raised']}")
        elif not os.path.exists(record["csv"]):
            problems.append("no CSV written")
        else:
            record["sha256"] = sha256(record["csv"])
            if kind == "baseline":
                record["check"] = "repeat"
            elif self.reference is not None:
                at_reference = self.seed == self.reference_seed
                record["check"] = "reference" if at_reference else "invariants"
                if at_reference:
                    record["sha256_reference"] = sha256(self.reference)
                problems += compare(
                    record["csv"],
                    self.reference,
                    self.seed,
                    self.workload.tolerance,
                    DEFAULT_TOL,
                    columns=None if at_reference else self.workload.seed_free,
                )
        record["problems"] = problems
        self.runs.append(record)
        return record

    def check_repeats(self) -> None:
        """Baseline runs, and away from the reference seed the runs with the
        same BLAS setting, must write byte-identical CSVs."""
        groups = [["baseline"]]
        if self.reference is not None and self.seed != self.reference_seed:
            groups += [["run", "trace"], ["blas1"]]
        for kinds in groups:
            group = [r for r in self.runs if "sha256" in r and r["kind"] in kinds]
            for r in group:
                if kinds != ["baseline"] and len(group) > 1:
                    r["check"] = "invariants+repeat"
                if r["sha256"] != group[0]["sha256"]:
                    r["problems"].append(f"sha256 differs from the first run at seed {self.seed}")

    def loop(self, seconds: float, kinds: tuple) -> None:
        """Closed loop: runs of ``kinds`` in turn, back to back, each one
        started while the window of ``seconds`` is still open.  The first
        run of each kind always happens, so the loop ends within the window
        plus one run, or after one run of each kind."""
        start = time.monotonic()
        for i in itertools.count():
            if i >= len(kinds) and time.monotonic() - start >= seconds:
                break
            if self.runs and not self.room_for_another_run():
                break
            self.run(kinds[i % len(kinds)])
        self.check_repeats()

    def room_for_another_run(self) -> bool:
        """Whether a run as long as the longest so far, plus a margin,
        would still end before the deadline."""
        longest = max((r.get("setup_s", 0.0) + r.get("run_s", 0.0) for r in self.runs), default=0.0)
        return not self.timed_out and time.monotonic() + 1.25 * longest < self.deadline

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r["problems"] and r["kind"] != "baseline")

    @property
    def attempted(self) -> int:
        return sum(1 for r in self.runs if r["kind"] != "baseline")

    def good(self, kind: str) -> list[dict]:
        return [r for r in self.runs if r["kind"] == kind and not r["problems"]]

    def end_to_end(self) -> dict:
        runs = self.good("run")
        setups = self.setup_samples + [r["setup_s"] for r in runs]
        baseline_s = _median([r["run_s"] for r in self.good("baseline")])
        return {
            "run_rel": (_ratio(_median([r["run_s"] for r in runs]), baseline_s), len(runs)),
            "setup_s": (_median(setups), len(setups)),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in runs]), len(runs)),
        }

    def per_layer(self) -> dict:
        traced = self.good("trace")
        runs = self.good("run")
        blas1 = self.good("blas1")
        summaries = [r["trace"] for r in traced]
        first = summaries[0] if summaries else {}

        def calls(span):
            return first.get(span, {}).get("calls", 0)

        def count(span, key):
            return first.get(span, {}).get(key, 0)

        def self_s(span, key="self_s"):
            return _median([s.get(span, {}).get(key, 0.0) for s in summaries])

        svd, transform = "linalg.svd", "rff.RandomFeatureMap.transform"
        design, gd = "polyfit.legendre_design", "descent.gd_classification"
        run_s = _median([r["run_s"] for r in runs])
        cpu_s = _median([r["cpu_s"] for r in runs])
        values = {
            "linalg.svd.calls": calls(svd),
            "linalg.svd.self_s": self_s(svd),
            "linalg.svd.gflop_computed": count(svd, "gflop_computed"),
            "linalg.svd.rank_deficient_frac": _ratio(count(svd, "rank_deficient"), calls(svd)),
            "rff.fit_rff.calls": calls("rff.fit_rff"),
            "rff.fit_rff.self_s": self_s("rff.fit_rff"),
            "rff.transform.calls": calls(transform),
            "rff.transform.self_s": self_s(transform),
            "rff.transform.mb_computed": count(transform, "mb_computed"),
            "rff.transform.calls_per_fit": _ratio(calls(transform), calls("rff.fit_rff")),
            "polyfit.legendre_design.calls": calls(design),
            "polyfit.legendre_design.self_s": self_s(design),
            "polyfit.legendre_design.calls_per_fit": _ratio(
                calls(design), calls("polyfit.fit_poly_min_norm")
            ),
            "polyfit.fit_poly_min_norm.self_s": self_s("polyfit.fit_poly_min_norm"),
            "sparse_regression.monte_carlo_risk.self_s": self_s("sparse_regression.monte_carlo_risk"),
            "sparse_regression.fit_subset_min_norm.self_s": self_s(
                "sparse_regression.fit_subset_min_norm"
            ),
            "seeding.substream.calls": calls("seeding.substream"),
            "seeding.substream.self_s": self_s("seeding.substream"),
            "descent.gd_classification.self_s": self_s(gd),
            "descent.gd_classification.iters": count(gd, "iters"),
            "descent.step_us": _ratio(1e6 * self_s(gd), count(gd, "iters")),
            "separable.hard_margin_svm.self_s": self_s("separable.hard_margin_svm"),
            "separable.hard_margin_svm.passes": count("separable.hard_margin_svm", "passes"),
            "harness.load_config.s": self_s("harness.config.load_config", "total_s"),
            "harness.write_csv.self_s": self_s("harness.csvio.write_csv"),
            "harness.write_csv.bytes": count("harness.csvio.write_csv", "bytes"),
            "process.run_s": run_s,
            "process.cpu_s": cpu_s,
            "process.cpu_per_wall": _ratio(cpu_s, run_s),
            "blas1.run_s": _median([r["run_s"] for r in blas1]),
            "blas1.cpu_s": _median([r["cpu_s"] for r in blas1]),
            "unattributed_s": self_s("harness.runner.run"),
            "trace_overhead_s": _median([r["run_s"] for r in traced]) - run_s,
        }
        samples = {"process": len(runs), "blas1": len(blas1)}
        return {
            name: (value, samples.get(name.split(".")[0], len(traced)))
            for name, value in values.items()
        }


PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "gflop_computed": "GFLOP",
    "rank_deficient_frac": "ratio",
    "mb_computed": "MB",
    "calls_per_fit": "ratio",
    "iters": "count",
    "step_us": "us",
    "passes": "count",
    "s": "s",
    "bytes": "B",
    "run_s": "s",
    "cpu_s": "s",
    "cpu_per_wall": "ratio",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}


def unit_of(name: str) -> str:
    """The unit of a metric, from the last component of its name."""
    return END_TO_END.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def bench(name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None,
          out_dir: Path = OUT) -> dict:
    """Run one workload for ``seconds``; returns the result and the report."""
    b = Bench(name, workload or WORKLOADS[name], seed, out_dir)
    b.warm_up()
    if trace:
        b.loop(seconds, ("trace", "run", "blas1"))
        metrics = b.per_layer()
    else:
        b.measure_setup(SETUP_SAMPLES)
        b.loop(seconds, ("run", "baseline") if b.baseline else ("run",))
        metrics = b.end_to_end()
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, (v, _) in metrics.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": b.environment,
        "samples": {k: n for k, (_, n) in metrics.items()},
        "result": result,
        "runs": b.runs,
        "setup_samples": b.setup_samples,
        "run_s": _median([r["run_s"] for r in b.good("run")]),
        "baseline_run_s": _median([r["run_s"] for r in b.good("baseline")]),
        "baseline_problems": [p for r in b.runs if r["kind"] == "baseline" for p in r["problems"]],
    }
    report_path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(report, indent=1))
    return {"result": result, "report": report, "report_path": report_path}


def describe(outcome: dict) -> list[str]:
    """Human-readable lines: every metric with unit and sample count."""
    report, result = outcome["report"], outcome["result"]
    lines = [f"{report['workload']} seed={report['seed']} trace={report['trace']}:"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:46s} {m['value']:.6g} {m['unit']} (n={report['samples'][name]})")
    if not report["trace"]:
        lines.append(f"  run_s {report['run_s']:.6g} s, baseline run_s {report['baseline_run_s']:.6g} s")
    lines.append(
        f"  failed_frac {result['failed']}/{result['attempted']}"
        f" = {_ratio(result['failed'], result['attempted']):.3g}"
    )
    for i, r in enumerate(report["runs"], 1):
        status = "; ".join(r["problems"][:3]) or "ok"
        digest = r.get("sha256", "-")
        same = " (= reference)" if r.get("sha256_reference") == digest else ""
        lines.append(f"  run {i} {r['kind']}: check={r.get('check', 'none')} {status} sha256={digest}{same}")
    lines.append(f"  environment: {json.dumps(report['environment'])}")
    lines.append(f"  report: {outcome['report_path'].relative_to(ROOT)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each reference's seed)")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "descentlab" / "__init__.py").is_file():
        print(f"error: no descentlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if not (ROOT / WORKLOADS[name].config).is_file():
            print(f"error: missing config {WORKLOADS[name].config}", file=sys.stderr)
            return 2
    results = {}
    for name in names:
        seed = args.seed
        if seed is None:
            seed = config_seed(read_csv(ROOT / WORKLOADS[name].reference)[0])
        outcome = bench(name, seed, args.seconds, bool(args.trace))
        print("\n".join(describe(outcome)), flush=True)
        if outcome["report"]["baseline_problems"]:
            print(f"error: baseline run failed: {outcome['report']['baseline_problems'][0]}",
                  file=sys.stderr)
            return 1
        results[name] = outcome["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
