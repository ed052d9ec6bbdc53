"""Experiment runners: build components from a config and emit one CSV.

Every runner draws all randomness from the config's master seed through
labeled substreams, so identical configs give byte-identical CSV bodies
no matter how trials are scheduled.

``EXPERIMENTS`` is the one table of experiments, read by ``load_config``
and the CLI.  A runner takes its library modules as arguments, so
importing this module loads none of them; ``import_modules`` loads them
before a run.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from typing import Callable, NamedTuple

import numpy as np

from .. import parallel
from ..errors import NumericalFailure
from ..seeding import derive_seed, substream
from .config import ExperimentConfig, Field, effective_config_lines
from .csvio import write_csv


class Experiment(NamedTuple):
    """One experiment: its runner ``run``, the library ``modules`` that
    ``run`` takes, by name relative to ``descentlab``, and its config
    ``fields``, in order.  ``price(parameters)`` gives the largest float64
    arrays a run holds at once, as ``(what, copies, shapes)``: ``copies``
    processes may each hold one array of every ``(rows, columns)`` in
    ``shapes``."""

    run: Callable
    price: Callable
    modules: tuple[str, ...]
    fields: tuple[Field, ...]


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


def _price_sparse_risk(p):
    """Beside the shared true weights, each of ``parallel.processes(trials)``
    holds at once one trial's ``n x d`` design, its ``test_points x d``
    test draw, the sub-design of the largest ``p_grid`` entry and the ``d``
    coefficients."""
    d, n = p["d"], p["n"]
    copies = parallel.processes(p["trials"])
    shapes = ((n, d), (p["test_points"], d), (n, max(p["p_grid"])), (1, d))
    return (
        ("true weights", 1, ((1, d),)),
        ("design, test draw, sub-design and coefficients", copies, shapes),
    )


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


def _price_rff_sweep(p):
    """The ``n_train + n_test`` input rows (by ``input_dim``, or the 784
    pixels of an MNIST image), drawn or loaded once and shared by the forked
    processes.  Each of ``parallel.processes(pairs)`` fitting the (width,
    repeat) pairs may be at the widest map, and holds at once its feature
    buffer (the most rows, of ``n_train`` and ``n_test``, by the widest
    map), the Gram matrix of the widest fit's Cholesky solve (its smaller
    side squared) and the widest map's frequencies ω."""
    n_train, widest = p["n_train"], p["n_grid"][-1]
    rows = max(n_train, p["n_test"])
    gram = min(n_train, widest)
    mnist = p["dataset"] == "mnist"
    input_dim = 28 * 28 if mnist else p["input_dim"]
    copies = parallel.processes(len(p["n_grid"]) * p["repeats"])
    shapes = ((rows, widest), (gram, gram), (widest, input_dim))
    return (
        ("input rows", 1, ((n_train + p["n_test"], input_dim),)),
        ("feature buffer, Gram matrix and map", copies, shapes),
    )


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


def _price_kernel_approx(p):
    """All pairs of points are compared: at the widest map the run holds at
    once the feature matrix, the exact kernel and the ``n_points x
    n_points`` error matrix built in place (``rff.kernel_approx_error``),
    beside the map's frequencies and the points themselves."""
    rows, widest = p["n_points"], p["n_grid"][-1]
    dim = p["input_dim"]
    shapes = ((rows, widest), (rows, rows), (rows, rows), (widest, dim), (rows, dim))
    return (("features, two pairwise matrices, map and points", 1, shapes),)


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


def _price_implicit_bias(p):
    """The larger of the run's two phases, each beside the ``n x d`` data.
    The max-margin solve (``separable._hull_weights``) holds the signed
    points ``A`` and ``E = [A^T; 1^T]``, first with ``|E|`` for its
    tolerance, then with E's passive columns, at most ``min(n, d + 1)``,
    and their SVD factors.  The step engine (``descent._descend``) holds
    the rows ``-y_i x_i`` and their signed form, its block buffers (rows of
    ``d`` weights and gradients, and of ``n`` margins, terms and weights)
    and the recorded directions, listed and then stacked."""
    # Imported here: no other experiment but polyfit's descent route loads it.
    from ..descent import BLOCK_ELEMENTS, BLOCK_STEPS

    n, d = p["n"], p["d"]
    k = min(n, d + 1)
    rows = max(1, min(BLOCK_STEPS, BLOCK_ELEMENTS // max(n, d))) + 1
    # Step 0, every record_every-th step and the last.
    records = -(-p["max_iters"] // p["record_every"]) + 1
    signed = ((n, d), (n, d), (d + 1, n))
    phases = (
        ("data, signed points, E and |E|", signed + ((d + 1, n),)),
        (
            "data, signed points, E, its passive columns and their SVD factors",
            signed + ((d + 1, k), (d + 1, k), (k, k)),
        ),
        (
            "data, step rows, block buffers and directions",
            ((n, d),) * 3 + ((2 * rows, d), (3 * rows, n), (2 * records, d)),
        ),
    )
    what, shapes = max(phases, key=lambda phase: sum(r * c for r, c in phase[1]))
    return ((what, 1, shapes),)


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


def _price_polyfit(p):
    """The ``n x (degree + 1)`` sample design and its SVD factors, held
    while the fit runs and freed before the design of the ``grid_points``
    is built, or that grid design, whichever is larger."""
    n, columns = p["n"], p["degree"] + 1
    inner = min(n, columns)
    fit = ((n, columns), (n, inner), (inner, columns))
    grid = ((p["grid_points"], columns),)
    if sum(r * c for r, c in fit) >= sum(r * c for r, c in grid):
        return (("sample design and its SVD factors", 1, fit),)
    return (("grid design", 1, grid),)


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


def _price_bias_variance(p):
    """Beside the shared ``trials x PROBE.size`` predictions and Legendre
    design of ``PROBE`` at the largest degree, each of
    ``parallel.processes(trials)`` fits a block of up to ``BLOCK_TRIALS``
    trials at once: the block's stacked ``n x (degree + 1)`` designs at the
    largest degree and their SVD factors ``U`` and ``V^T``, whose inner
    size is the smaller side."""
    # Imported here: no other experiment loads polyfit.
    from ..polyfit import BLOCK_TRIALS, PROBE

    trials, n, columns = p["trials"], p["n"], p["degrees"][-1] + 1
    block, inner = min(BLOCK_TRIALS, trials), min(n, columns)
    shapes = ((block * n, columns), (block * n, inner), (block * inner, columns))
    return (
        ("probe predictions and design", 1, ((trials, PROBE.size), (PROBE.size, columns))),
        ("block designs and their SVD factors", parallel.processes(trials), shapes),
    )


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


def _price_emc(p):
    """The ``n x d`` draws run up to the largest ``n_grid`` entry, and the
    min-norm solve forms the Gram matrix of the smaller side."""
    n, d = p["n_grid"][-1], p["d"]
    return (("widest draw and its Gram matrix", 1, ((n, d), (min(n, d), min(n, d)))),)


# A module the run uses but that is missing from its entry would load
# inside ``run`` and be timed with it; the tests run every experiment and
# check that ``sys.modules`` does not grow.
EXPERIMENTS = {
    "sparse-risk": Experiment(run_sparse_risk, _price_sparse_risk, (".sparse_regression",), (
        Field("d", "int", 100, min=1),
        Field("n", "int", 40, min=1),
        Field("signal_norm_sq", "float", 1.0, min=0),
        Field("noise_var", "float", 0.04, min=0),
        Field(
            "p_grid",
            "int_list",
            (0, 10, 20, 30, 36, 38, 40, 42, 44, 50, 60, 70, 80, 90, 100),
            min=0,
            at_most="d",
        ),
        Field("trials", "int", 500, min=1),
        Field("test_points", "int", 100, min=1),
    )),
    "rff-sweep": Experiment(run_rff_sweep, _price_rff_sweep, (".rff", ".harness.datasets"), (
        Field("dataset", "str", "rkhs-target", choices=("mnist", "rkhs-target")),
        Field("n_train", "int", 1000, min=1),
        Field("n_test", "int", 1000, min=1),
        Field(
            "n_grid",
            "int_list",
            (20, 50, 100, 250, 500, 1000, 2000, 4000, 8000),
            min=1,
            increasing=True,
        ),
        Field("bandwidth", "float", 5.0, above=0),
        Field("repeats", "int", 5, min=1),
        Field("input_dim", "int", 10, min=1),
        Field("n_centers", "int", 50, min=1),
        Field("target_bandwidth", "float", 1.0, above=0),
    )),
    "kernel-approx": Experiment(run_kernel_approx, _price_kernel_approx, (".rff",), (
        Field("n_points", "int", 50, min=2),
        Field("input_dim", "int", 5, min=1),
        Field("bandwidth", "float", 1.0, above=0),
        Field("n_grid", "int_list", (100, 300, 1000, 3000, 10000), min=1, increasing=True),
        Field("n_maps", "int", 20, min=1),
    )),
    "implicit-bias": Experiment(run_implicit_bias, _price_implicit_bias, (".descent", ".separable"), (
        Field("n", "int", 50, min=2),
        Field("d", "int", 2, min=1),
        # The max-margin solve certifies 20 of 20 seeds at n = 50 down to
        # a margin of 5e-11 (d = 8), 2e-11 (d = 5), 1e-11 (d = 2) and below
        # 1e-13 (d = 1, 20, 50); at d = 50 it needs 2e-10 for n = 200 and
        # 1000.  Below that a run ends in NumericalFailure.
        Field("margin", "float", 0.5, above=1e-9),
        Field("loss", "str", "logistic", choices=("logistic", "exponential")),
        # A fraction of the stable step: at 1 or more the run's own
        # stability gate refuses the step.
        Field("step_fraction", "float", 0.5, above=0, below=1),
        Field("max_iters", "int", 100_000, min=1),
        Field("record_every", "int", 100, min=1),
    )),
    "polyfit": Experiment(run_polyfit, _price_polyfit, (".polyfit",), (
        Field("degree", "int", 20, min=0),
        Field("n", "int", 20, min=1),
        Field("noise_scale", "float", 0.5, min=0),
        Field("truth_degree", "int", 3, min=0),
        Field("grid_points", "int", 256, min=1),
        Field("via", "str", "pseudo_inverse", choices=("pseudo_inverse", "gradient_descent")),
    )),
    "bias-variance": Experiment(run_bias_variance, _price_bias_variance, (".polyfit",), (
        Field("degrees", "int_list", (3, 20), min=0, increasing=True),
        Field("n", "int", 20, min=1),
        Field("noise_scale", "float", 0.1, min=0),
        Field("trials", "int", 2000, min=2),
        Field("truth_degree", "int", 3, min=0),
    )),
    "emc": Experiment(run_emc, _price_emc, (".harness.emc",), (
        Field("d", "int", 30, min=1),
        Field("eps", "float", 1e-6, min=0),
        Field(
            "n_grid",
            "int_list",
            (10, 20, 25, 28, 29, 30, 31, 32, 35, 40),
            min=1,
            increasing=True,
        ),
        Field("trials", "int", 5, min=1),
        Field("noise_scale", "float", 0.1, min=0),
    )),
}


def import_modules(config: ExperimentConfig):
    """``config``'s runner and its modules, imported, and ``descent`` for
    polyfit's gradient-descent route, so none loads during the run."""
    experiment = EXPERIMENTS[config.experiment]
    modules = [importlib.import_module(name, "descentlab") for name in experiment.modules]
    if config.experiment == "polyfit" and config.parameters["via"] == "gradient_descent":
        importlib.import_module(".descent", "descentlab")
    return experiment.run, modules


def run(config: ExperimentConfig) -> None:
    """Execute the configured experiment."""
    runner, modules = import_modules(config)
    runner(config, *modules)
