"""Experiment runners: build components from a config and emit one CSV.

Every runner draws all randomness from the config's master seed through
labeled substreams, so identical configs give byte-identical CSV bodies
no matter how trials are scheduled.

``EXPERIMENTS`` is the one list of experiments; the CLI's subcommands,
with their runners' docstrings as help, come from it.  A runner takes the
library modules it uses as arguments, listed beside it there, so importing
this module loads none of them; ``import_modules`` loads them before a run.
"""

from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np

from ..errors import NumericalFailure
from ..seeding import derive_seed, substream
from .config import ExperimentConfig, effective_config_lines
from .csvio import write_csv

def _emit(config: ExperimentConfig, columns, rows, trailing=()):
    write_csv(
        config.output_path,
        effective_config_lines(config),
        columns,
        rows,
        trailing_comments=trailing,
    )


def _emit_records(config: ExperimentConfig, records, trailing=()):
    """Write dataclass records: the field names are the CSV header, in
    field order, and each record is one row."""
    names = [f.name for f in dataclasses.fields(records[0])]
    _emit(config, names, ([getattr(r, name) for name in names] for r in records), trailing)


def run_sparse_risk(config: ExperimentConfig, sparse_regression) -> None:
    """risk curve of min-norm regression on a random feature subset"""
    p = config.parameters
    rows = sparse_regression.risk_curve(
        p["signal_norm_sq"],
        p["noise_var"],
        p["d"],
        p["n"],
        p["p_grid"],
        p["trials"],
        p["test_points"],
        config.seed,
    )
    _emit_records(config, rows)


def run_rff_sweep(config: ExperimentConfig, rff, datasets) -> None:
    """double-descent sweep of min-norm random Fourier feature regression"""
    p = config.parameters
    if p["dataset"] == "mnist":
        ds = datasets.load_mnist_split(p["n_train"], p["n_test"], config.seed)
        y_train = datasets.one_hot(ds.y_train, 10)
        y_test = datasets.one_hot(ds.y_test, 10)
    else:
        ds = datasets.make_rkhs_regression(
            p["n_train"],
            p["n_test"],
            p["input_dim"],
            p["n_centers"],
            p["target_bandwidth"],
            config.seed,
        )
        y_train, y_test = ds.y_train, ds.y_test
    points = rff.double_descent_sweep(
        ds.x_train,
        y_train,
        ds.x_test,
        y_test,
        p["n_grid"],
        p["bandwidth"],
        config.seed,
        repeats=p["repeats"],
    )
    _emit_records(config, points)


def run_kernel_approx(config: ExperimentConfig, rff) -> None:
    """Gaussian-kernel approximation error of RFF maps vs width"""
    p = config.parameters
    rng = substream(config.seed, "kernel-approx-points")
    points = rng.uniform(0.0, 1.0, size=(p["n_points"], p["input_dim"]))
    rows = []
    for n in p["n_grid"]:
        n = int(n)
        max_errs = np.empty(p["n_maps"])
        mean_errs = np.empty(p["n_maps"])
        for m in range(p["n_maps"]):
            fmap = rff.sample_map(n, p["input_dim"], p["bandwidth"], config.seed, index=m)
            max_errs[m], mean_errs[m] = rff.kernel_approx_error(fmap, points)
        # Medians over the resampled maps keep one unlucky draw from
        # dominating the curve.
        rows.append((n, float(rff.median(max_errs)), float(rff.median(mean_errs)), p["n_maps"]))
    _emit(config, ("n_features", "max_abs_err", "mean_abs_err", "n_maps"), rows)


def run_implicit_bias(config: ExperimentConfig, descent, separable) -> None:
    """gradient descent drifting toward the max-margin direction"""
    p = config.parameters
    x, y, witness = separable.generate_separable(p["n"], p["d"], p["margin"], config.seed)
    loss = descent.get_loss(p["loss"])
    beta0 = loss.smoothness(np.zeros(p["n"]))
    bound = descent.max_stable_step(x, beta0)
    step = p["step_fraction"] * bound
    if step == 0:
        raise NumericalFailure(
            f"step_fraction {p['step_fraction']:g} of max_stable_step {bound:g} underflows to 0"
        )
    gd_config = descent.GDConfig(
        step_size=step,
        max_iters=p["max_iters"],
        grad_tol=0.0,
        record_every=p["record_every"],
    )
    tr, gaps = separable.implicit_bias_run(x, y, loss, gd_config, witness=witness)
    _emit(
        config,
        ("t", "loss", "w_norm", "min_margin", "direction_gap"),
        list(zip(tr.t, tr.loss, tr.w_norm, tr.min_margin, gaps)),
    )


def run_polyfit(config: ExperimentConfig, polyfit) -> None:
    """Legendre polynomial fit curve at one degree"""
    p = config.parameters
    truth_coef = polyfit.random_target_poly(p["truth_degree"], config.seed)
    rng = substream(config.seed, "polyfit-samples")
    xs = rng.uniform(-1.0, 1.0, size=p["n"])
    ys = polyfit.legendre_predict(truth_coef, xs) + p["noise_scale"] * rng.standard_normal(p["n"])
    coef = polyfit.fit_poly_min_norm(xs, ys, p["degree"], via=p["via"])
    grid = np.linspace(-1.0, 1.0, p["grid_points"])
    truth = polyfit.legendre_predict(truth_coef, grid)
    prediction = polyfit.legendre_predict(coef, grid)
    _emit(config, ("x", "truth", "prediction"), list(zip(grid, truth, prediction)))


def run_bias_variance(config: ExperimentConfig, polyfit) -> None:
    """empirical bias-variance decomposition over degrees"""
    p = config.parameters
    truth_coef = polyfit.random_target_poly(p["truth_degree"], config.seed)

    def truth_fn(x):
        return polyfit.legendre_predict(truth_coef, x)

    records = [
        polyfit.bias_variance_decompose(
            truth_fn,
            degree,
            p["n"],
            p["noise_scale"],
            p["trials"],
            derive_seed(config.seed, "bias-variance-degree", degree),
        )
        for degree in p["degrees"]
    ]
    _emit_records(config, records)


def run_emc(config: ExperimentConfig, emc) -> None:
    """effective model complexity of min-norm linear regression"""
    p = config.parameters
    d = p["d"]
    w = np.ones(d) / math.sqrt(d)
    noise_scale = p["noise_scale"]

    def sample_fn(n, rng):
        x = rng.standard_normal((n, d))
        y = x @ w + noise_scale * rng.standard_normal(n)
        return x, y

    complexity, points = emc.emc_scan(
        emc.min_norm_linear_procedure,
        sample_fn,
        p["eps"],
        p["n_grid"],
        p["trials"],
        config.seed,
    )
    _emit_records(config, points, trailing=(f"emc = {complexity}",))


# Each experiment's runner, then the library modules it takes, by name
# relative to ``descentlab``.  A module the run uses but that is missing
# here would load inside ``run`` and be timed with it; the tests run every
# experiment and check that ``sys.modules`` does not grow.
EXPERIMENTS = {
    "sparse-risk": (run_sparse_risk, ".sparse_regression"),
    "rff-sweep": (run_rff_sweep, ".rff", ".harness.datasets"),
    "kernel-approx": (run_kernel_approx, ".rff"),
    "implicit-bias": (run_implicit_bias, ".descent", ".separable"),
    "polyfit": (run_polyfit, ".polyfit"),
    "bias-variance": (run_bias_variance, ".polyfit"),
    "emc": (run_emc, ".harness.emc"),
}


def import_modules(config: ExperimentConfig):
    """``config``'s runner and its modules, imported, and ``descent`` for
    polyfit's gradient-descent route, so none loads during the run."""
    runner, *names = EXPERIMENTS[config.experiment]
    modules = [importlib.import_module(name, "descentlab") for name in names]
    if config.experiment == "polyfit" and config.parameters["via"] == "gradient_descent":
        importlib.import_module(".descent", "descentlab")
    return runner, modules


def run(config: ExperimentConfig) -> None:
    """Execute the configured experiment."""
    runner, modules = import_modules(config)
    runner(config, *modules)
