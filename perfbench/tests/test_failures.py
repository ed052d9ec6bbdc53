"""Failure accounting: each kind of bad run counts in ``failed_frac``.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import Workload, bench  # noqa: E402

FIXTURES = "perfbench/fixtures"


def _bench(tmp_path, name, workload):
    # seconds=0: the closed loop makes exactly one run.
    outcome = bench(name, 2, 0, False, workload=workload, out_dir=tmp_path)
    return outcome["result"], outcome["report"]["runs"]


def test_clean_run_counts_nothing(tmp_path):
    result, runs = _bench(tmp_path, "tiny", Workload(f"{FIXTURES}/polyfit_tiny.cfg", f"{FIXTURES}/polyfit_tiny.csv"))
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 0, True)
    assert runs[0]["check"] == "reference"
    assert runs[0]["sha256"] == runs[0]["sha256_reference"]


def test_run_that_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("DESCENTLAB_DATA", str(tmp_path / "no-idx-files"))
    result, runs = _bench(tmp_path, "raises", Workload(f"{FIXTURES}/missing_data.cfg", None))
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert runs[0]["raised"] == "FormatError"
    assert runs[0]["exit"] == 1


def test_run_that_exits_2_on_a_bad_config(tmp_path):
    result, runs = _bench(tmp_path, "bad-config", Workload(f"{FIXTURES}/bad_key.cfg", None))
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert runs[0]["exit"] == 2
    assert "config error" in runs[0]["error"]


def test_csv_perturbed_beyond_tolerance(tmp_path):
    # One prediction moved by 1e-6 relative, 100 times the tolerance.  At
    # the reference seed every column is compared.
    workload = Workload(f"{FIXTURES}/polyfit_tiny.cfg", f"{FIXTURES}/polyfit_tiny_perturbed.csv")
    result, runs = _bench(tmp_path, "perturbed", workload)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert runs[0]["check"] == "reference"
    assert any("column prediction" in p for p in runs[0]["problems"])


def test_other_seed_checks_invariants_and_repeats(tmp_path):
    workload = Workload(f"{FIXTURES}/polyfit_tiny.cfg", f"{FIXTURES}/polyfit_tiny.csv", ("x",))
    outcome = bench("tiny", 9, 3, False, workload=workload, out_dir=tmp_path)
    result, runs = outcome["result"], outcome["report"]["runs"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert {r["check"] for r in runs} == {"invariants+repeat"}
    assert len({r["sha256"] for r in runs}) == 1


def test_failed_baseline_is_reported_apart(tmp_path):
    # A baseline run that fails is not a failure of the code under test,
    # but it leaves run_rel without a denominator; run.py exits 1 on it.
    workload = Workload(f"{FIXTURES}/polyfit_tiny.cfg", f"{FIXTURES}/polyfit_tiny.csv",
                        baseline=f"{FIXTURES}/bad_key.cfg")
    outcome = bench("tiny", 2, 0, False, workload=workload, out_dir=tmp_path)
    result, report = outcome["result"], outcome["report"]
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 0, True)
    assert [r["kind"] for r in report["runs"]] == ["run", "baseline"]
    assert any("config error" in p for p in report["baseline_problems"])
