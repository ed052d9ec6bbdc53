"""Experiment runners: build components from a config and emit one CSV.

Every runner draws all randomness from the config's master seed through
labeled substreams, so identical configs give byte-identical CSV bodies
no matter how trials are scheduled.

A runner imports the library modules it uses inside its own body, so
importing this module loads none of them; ``import_modules`` loads the
ones an experiment needs before its run starts.
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

# What each experiment's runner needs, by module name (a leading dot is
# relative to ``descentlab``): its own imports, and ``numpy.ma`` for the
# runs that call ``np.median``, which imports it on its first call.
# polyfit's gradient-descent route also needs ``descent`` (added by
# ``import_modules``).  A module missing here would load inside ``run``
# and be timed with it; the tests run every experiment and check that
# ``sys.modules`` does not grow.
MODULES = {
    "sparse-risk": (".sparse_regression",),
    "rff-sweep": (".rff", ".harness.datasets", "numpy.ma"),
    "kernel-approx": (".rff", "numpy.ma"),
    "implicit-bias": (".descent", ".separable"),
    "polyfit": (".polyfit",),
    "bias-variance": (".polyfit",),
    "emc": (".harness.emc",),
}


def import_modules(config: ExperimentConfig) -> None:
    """Import every module ``config``'s run uses, so none loads during it."""
    names = MODULES[config.experiment]
    p = config.parameters
    if config.experiment == "polyfit" and p["via"] == "gradient_descent":
        names += (".descent",)
    for name in names:
        importlib.import_module(name, "descentlab")


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


def run_sparse_risk(config: ExperimentConfig) -> None:
    from ..sparse_regression import risk_curve

    p = config.parameters
    rows = risk_curve(
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


def run_rff_sweep(config: ExperimentConfig) -> None:
    from ..rff import double_descent_sweep
    from .datasets import load_mnist_split, make_rkhs_regression, one_hot

    p = config.parameters
    if p["dataset"] == "mnist":
        ds = load_mnist_split(p["n_train"], p["n_test"], config.seed)
        y_train = one_hot(ds.y_train, 10)
        y_test = one_hot(ds.y_test, 10)
    else:
        ds = make_rkhs_regression(
            p["n_train"],
            p["n_test"],
            p["input_dim"],
            p["n_centers"],
            p["target_bandwidth"],
            config.seed,
        )
        y_train, y_test = ds.y_train, ds.y_test
    points = double_descent_sweep(
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


def run_kernel_approx(config: ExperimentConfig) -> None:
    from ..rff import kernel_approx_error, sample_map

    p = config.parameters
    rng = substream(config.seed, "kernel-approx-points")
    points = rng.uniform(0.0, 1.0, size=(p["n_points"], p["input_dim"]))
    rows = []
    for n in p["n_grid"]:
        n = int(n)
        max_errs = np.empty(p["n_maps"])
        mean_errs = np.empty(p["n_maps"])
        for m in range(p["n_maps"]):
            fmap = sample_map(n, p["input_dim"], p["bandwidth"], config.seed, index=m)
            max_errs[m], mean_errs[m] = kernel_approx_error(fmap, points)
        # Medians over the resampled maps keep one unlucky draw from
        # dominating the curve.
        rows.append((n, float(np.median(max_errs)), float(np.median(mean_errs)), p["n_maps"]))
    _emit(config, ("n_features", "max_abs_err", "mean_abs_err", "n_maps"), rows)


def run_implicit_bias(config: ExperimentConfig) -> None:
    from ..descent import GDConfig, get_loss, max_stable_step
    from ..separable import generate_separable, implicit_bias_run

    p = config.parameters
    x, y, witness = generate_separable(p["n"], p["d"], p["margin"], config.seed)
    loss = get_loss(p["loss"])
    beta0 = loss.smoothness(np.zeros(p["n"]))
    bound = max_stable_step(x, beta0)
    step = p["step_fraction"] * bound
    if step == 0:
        raise NumericalFailure(
            f"step_fraction {p['step_fraction']:g} of max_stable_step {bound:g} underflows to 0"
        )
    gd_config = GDConfig(
        step_size=step,
        max_iters=p["max_iters"],
        grad_tol=0.0,
        record_every=p["record_every"],
    )
    tr, gaps = implicit_bias_run(x, y, loss, gd_config, witness=witness)
    _emit(
        config,
        ("t", "loss", "w_norm", "min_margin", "direction_gap"),
        list(zip(tr.t, tr.loss, tr.w_norm, tr.min_margin, gaps)),
    )


def run_polyfit(config: ExperimentConfig) -> None:
    from ..polyfit import fit_poly_min_norm, legendre_predict, random_target_poly

    p = config.parameters
    truth_coef = random_target_poly(p["truth_degree"], config.seed)
    rng = substream(config.seed, "polyfit-samples")
    xs = rng.uniform(-1.0, 1.0, size=p["n"])
    ys = legendre_predict(truth_coef, xs) + p["noise_scale"] * rng.standard_normal(p["n"])
    coef = fit_poly_min_norm(xs, ys, p["degree"], via=p["via"])
    grid = np.linspace(-1.0, 1.0, p["grid_points"])
    _emit(
        config,
        ("x", "truth", "prediction"),
        list(zip(grid, legendre_predict(truth_coef, grid), legendre_predict(coef, grid))),
    )


def run_bias_variance(config: ExperimentConfig) -> None:
    from ..polyfit import bias_variance_decompose, legendre_predict, random_target_poly

    p = config.parameters
    truth_coef = random_target_poly(p["truth_degree"], config.seed)

    def truth_fn(x):
        return legendre_predict(truth_coef, x)

    records = [
        bias_variance_decompose(
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


def run_emc(config: ExperimentConfig) -> None:
    from .emc import emc_scan, min_norm_linear_procedure

    p = config.parameters
    d = p["d"]
    w = np.ones(d) / math.sqrt(d)
    noise_scale = p["noise_scale"]

    def sample_fn(n, rng):
        x = rng.standard_normal((n, d))
        y = x @ w + noise_scale * rng.standard_normal(n)
        return x, y

    emc, points = emc_scan(
        min_norm_linear_procedure,
        sample_fn,
        p["eps"],
        p["n_grid"],
        p["trials"],
        config.seed,
    )
    _emit_records(config, points, trailing=(f"emc = {emc}",))


RUNNERS = {
    "sparse-risk": run_sparse_risk,
    "rff-sweep": run_rff_sweep,
    "kernel-approx": run_kernel_approx,
    "implicit-bias": run_implicit_bias,
    "polyfit": run_polyfit,
    "bias-variance": run_bias_variance,
    "emc": run_emc,
}


def run(config: ExperimentConfig) -> None:
    """Execute the configured experiment."""
    RUNNERS[config.experiment](config)
