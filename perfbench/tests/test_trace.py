"""Trace completeness: wrapped-call counts equal what each config implies.

``svd`` is imported by name into ``linalg``, ``rff``, ``polyfit`` and
``descent``; a tracer that wrapped only one binding would undercount
silently.  Each case runs the sample config once, traced, at its
reference seed (the rff-rkhs case takes about 40 s).

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from run import END_TO_END, ROOT, WORKLOADS, Bench, _config_value, unit_of  # noqa: E402


def _ints(name, key):
    return [int(v) for v in _config_value(ROOT / WORKLOADS[name].config, key).split(",")]


def implied_counts(name):
    """Span name -> calls, derived from the workload's config."""
    if name == "rff-rkhs":
        fits = len(_ints(name, "n_grid")) * _ints(name, "repeats")[0]
        # Per fit: featurize for the fit, train MSE, test MSE and 0-1 error.
        return {"linalg.svd": fits, "rff.fit_rff": fits, "rff.RandomFeatureMap.transform": 4 * fits}
    if name == "bias-variance":
        degrees = len(_ints(name, "degrees"))
        fits = degrees * _ints(name, "trials")[0]
        # Per trial: the fit, the truth at the samples and the fit on the
        # probe grid; per degree: the truth on the probe grid.
        return {
            "polyfit.fit_poly_min_norm": fits,
            "linalg.svd": fits,
            "polyfit.legendre_design": 3 * fits + degrees,
        }
    if name == "sparse-risk":
        p_grid = _ints(name, "p_grid")
        trials = _ints(name, "trials")[0]
        # p = 0 fits the zero predictor without a solve.
        return {
            "sparse_regression.fit_subset_min_norm": len(p_grid) * trials,
            "linalg.svd": sum(1 for p in p_grid if p > 0) * trials,
        }
    if name == "implicit-bias":
        # The runner's step bound, implicit_bias_run's check of it, and
        # the descent's own stability bound.
        return {"descent.gd_classification": 1, "linalg.svd": 3}
    raise KeyError(name)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_match_config(name, tmp_path):
    seed = int(_config_value(ROOT / WORKLOADS[name].config, "seed"))
    b = Bench(name, WORKLOADS[name], seed, tmp_path)
    record = b.run("trace")
    assert record["problems"] == []
    summary = record["trace"]
    got = {span: summary.get(span, {}).get("calls", 0) for span in implied_counts(name)}
    assert got == implied_counts(name)
    if name == "implicit-bias":
        assert summary["descent.gd_classification"]["iters"] == _ints(name, "max_iters")[0]


def test_benchmark_json_matches_reported_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: unit_of(k) for k in END_TO_END}
    layer_names = list(Bench("implicit-bias", WORKLOADS["implicit-bias"], 0, tmp_path).per_layer())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit_of(k) for k in layer_names}
