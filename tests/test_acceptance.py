"""Acceptance criteria for the package, one test and one PASS/FAIL line each.

Every criterion is deterministic: all randomness flows through labeled
substreams of one frozen master seed, so the measured margins are stable
across runs and machines (up to floating-point variation in BLAS).
"""

import itertools
import math
import time

import numpy as np
import pytest

from descentlab.descent import GDConfig, get_loss, max_stable_step
from descentlab.harness.cli import main as cli_main
from descentlab.harness.datasets import (
    load_mnist_split,
    make_rkhs_regression,
    mnist_available,
    one_hot,
)
from descentlab.harness.emc import emc_scan, min_norm_linear_procedure
from descentlab.linalg import (
    kernel_projector,
    min_norm_solve,
    penrose_residuals,
    pseudo_inverse,
    svd,
)
from descentlab.polyfit import bias_variance_decompose, legendre_predict, random_target_poly
from descentlab.rff import double_descent_sweep, gaussian_kernel, kernel_approx_error, sample_map
from descentlab.seeding import derive_seed, substream
from descentlab.separable import generate_separable, hard_margin_svm, implicit_bias_run
from descentlab.sparse_regression import (
    GaussianLinearProblem,
    SubsetSelection,
    analytic_risk_fixed_subset,
    analytic_risk_random_subset,
    monte_carlo_risk,
    risk_curve,
)
from descentlab.descent import gd_least_squares, gd_limit_point

SEED = 20260823

_capture = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # Lets _report write its PASS/FAIL line to the real terminal even
    # under output capture, so a plain pytest run shows every verdict.
    global _capture
    _capture = capfd
    yield
    _capture = None


def _report(num: int, problems: list, elapsed: float, budget: float, summary: str):
    if elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    detail = summary if not problems else "; ".join(problems)
    line = f"criterion {num:02d}: {status} ({detail}; {elapsed:.1f}s)"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert not problems, f"criterion {num:02d}: {detail}"


def test_criterion_01_pseudo_inverse_axioms():
    """Four Penrose identities on 200 mixed-shape matrices, <= 1e-8."""
    start = time.monotonic()
    problems = []
    worst = 0.0
    for i in range(200):
        rng = substream(SEED, "c1-matrix", i)
        m = int(rng.integers(1, 31))
        n = int(rng.integers(1, 31))
        if i % 3 == 0 and min(m, n) > 1:
            r = int(rng.integers(1, min(m, n)))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        else:
            a = rng.standard_normal((m, n)) * float(rng.uniform(0.1, 10.0))
        residual = max(penrose_residuals(a, pseudo_inverse(a)))
        worst = max(worst, residual)
        if residual > 1e-8:
            problems.append(f"matrix {i} ({m}x{n}): residual {residual:.2e}")
    _report(1, problems, time.monotonic() - start, 10.0,
            f"200 matrices, worst residual {worst:.1e}")


def test_criterion_02_gd_reaches_min_norm():
    """GD on 50 random 10x50 systems matches the pseudo-inverse limit."""
    start = time.monotonic()
    problems = []
    worst_zero, worst_offset = 0.0, 0.0
    for i in range(50):
        rng = substream(SEED, "c2-system", i)
        x = rng.standard_normal((10, 50))
        y = rng.standard_normal(10)
        w_star = min_norm_solve(x, y)
        config = GDConfig(
            step_size=0.95 / svd(x).s_max ** 2, max_iters=200_000, grad_tol=1e-12
        )
        run = gd_least_squares(x, y, config)
        rel = np.linalg.norm(run.w - w_star) / np.linalg.norm(w_star)
        worst_zero = max(worst_zero, rel)
        if rel > 1e-6:
            problems.append(f"system {i}: from zero, rel {rel:.2e}")
        v = kernel_projector(x) @ rng.standard_normal(50)
        w0 = w_star + v
        run = gd_least_squares(x, y, config, w0=w0)
        expected = gd_limit_point(x, y, w0)
        rel = np.linalg.norm(run.w - expected) / np.linalg.norm(expected)
        worst_offset = max(worst_offset, rel)
        if rel > 1e-6:
            problems.append(f"system {i}: kernel offset, rel {rel:.2e}")
    _report(2, problems, time.monotonic() - start, 30.0,
            f"50 systems, worst rel {max(worst_zero, worst_offset):.1e}")


def test_criterion_03_sparse_risk_curve():
    """Analytic double-descent curve values, Monte Carlo, and shape."""
    start = time.monotonic()
    problems = []
    expected = {
        0: 1.04,
        20: 32.76 / 19.0,
        38: 25.74,
        42: 0.42 / 21.0 + 0.62 * 41.0,
        60: 0.2 + 25.96 / 19.0,
        100: 0.6 + 3.96 / 59.0,
    }
    for p, value in expected.items():
        got = analytic_risk_random_subset(1.0, 0.04, 100, 40, p)
        if not math.isclose(got, value, rel_tol=1e-9):
            problems.append(f"analytic p={p}: {got} != {value}")

    rows = risk_curve(1.0, 0.04, 100, 40, tuple(expected), trials=2000, test_points=100,
                      seed=SEED)
    worst_z = 0.0
    for row in rows:
        z = abs(row.mc_risk - row.analytic_risk) / row.mc_stderr
        worst_z = max(worst_z, z)
        if z > 4.0:
            problems.append(f"MC p={row.p}: z={z:.2f}")
    mc = {row.p: row.mc_risk for row in rows}
    if not (mc[38] > mc[20] and mc[38] > mc[60]):
        problems.append("Monte Carlo peak at p=38 is not above p=20 and p=60")
    if not mc[100] < mc[0]:
        problems.append("no second descent: MC risk at p=100 not below p=0")
    _report(3, problems, time.monotonic() - start, 300.0,
            f"6 analytic points exact, MC worst z={worst_z:.2f}")


def test_criterion_04_fixed_subset_risk():
    """Frozen-subset Monte Carlo vs the exact formula, plus the
    projection identity E||pinv(X_p) X_p w_p||^2 = ||w_p||^2 n / p."""
    start = time.monotonic()
    problems = []
    d, n, trials = 20, 8, 5000
    w = substream(SEED, "c4-w").standard_normal(d)
    w /= np.linalg.norm(w)
    problem = GaussianLinearProblem(w_true=w, noise_scale=0.2, n=n)
    subsets = {
        p: SubsetSelection.random(d, p, substream(SEED, "c4-subset", p))
        for p in (2, 4, 6, 10, 14, 20)
    }
    worst_z = 0.0
    for p, sel in subsets.items():
        analytic = analytic_risk_fixed_subset(w, sel, 0.2, n)
        mc_mean, mc_stderr = monte_carlo_risk(
            problem, p, trials, 100, derive_seed(SEED, "c4-mc", p), subset=sel
        )
        z = abs(mc_mean - analytic) / mc_stderr
        worst_z = max(worst_z, z)
        if z > 4.0:
            problems.append(f"risk p={p}: z={z:.2f}")

    worst_proj = 0.0
    for p in (10, 14, 20):
        wp = w[subsets[p].kept]
        values = np.empty(trials)
        for i in range(trials):
            rng = substream(derive_seed(SEED, "c4-proj", p), "trial", i)
            xs = rng.standard_normal((n, p))
            projected = min_norm_solve(xs, xs @ wp)
            values[i] = projected @ projected
        target = (wp @ wp) * n / p
        z = abs(values.mean() - target) / (values.std(ddof=1) / math.sqrt(trials))
        worst_proj = max(worst_proj, z)
        if z > 4.0:
            problems.append(f"projection p={p}: z={z:.2f}")
    _report(4, problems, time.monotonic() - start, 180.0,
            f"risk worst z={worst_z:.2f}, projection worst z={worst_proj:.2f}")


def test_criterion_05_kernel_approximation():
    """Median max-pairwise error shrinks >= 5x from N=100 to N=10000,
    and the feature inner products are unbiased for the kernel."""
    start = time.monotonic()
    problems = []
    points = substream(SEED, "c5-points").uniform(0.0, 1.0, size=(50, 5))
    medians = {}
    for n in (100, 10_000):
        errs = [
            kernel_approx_error(sample_map(n, 5, 1.0, SEED, index=m), points)[0]
            for m in range(20)
        ]
        medians[n] = float(np.median(errs))
    ratio = medians[100] / medians[10_000]
    if ratio < 5.0:
        problems.append(f"error ratio {ratio:.2f} < 5")

    x, y = points[0], points[1]
    exact = gaussian_kernel(x[None], y[None], 1.0)[0, 0]
    estimates = np.array(
        [
            sample_map(24, 5, 1.0, SEED, index=m).transform(x)
            @ sample_map(24, 5, 1.0, SEED, index=m).transform(y)
            for m in range(300)
        ]
    )
    stderr = estimates.std(ddof=1) / math.sqrt(estimates.size)
    z = abs(estimates.mean() - exact) / stderr
    if z > 5.0:
        problems.append(f"unbiasedness z={z:.2f}")
    _report(5, problems, time.monotonic() - start, 120.0,
            f"error ratio {ratio:.1f}, unbiasedness z={z:.2f}")


def test_criterion_06_rff_double_descent():
    """Width sweep on n_train=1000: interpolation-threshold peak, zero
    train loss past the threshold, nonincreasing coefficient norm."""
    start = time.monotonic()
    problems = []
    n_train, n_test = 1000, 1000
    if mnist_available():
        ds = load_mnist_split(n_train, n_test, SEED)
        y_train = one_hot(ds.y_train, 10)
        y_test = one_hot(ds.y_test, 10)
        source = "mnist"
    else:
        ds = make_rkhs_regression(n_train, n_test, input_dim=10, n_centers=50,
                                  bandwidth=1.0, seed=SEED)
        y_train, y_test = ds.y_train, ds.y_test
        source = "rkhs-target"
    grid = (250, 500, 1000, 2000, 4000, 8000)
    points = double_descent_sweep(
        ds.x_train, y_train, ds.x_test, y_test, grid, bandwidth=5.0, seed=SEED, repeats=5
    )
    by_n = {pt.n_features: pt for pt in points}
    if not by_n[n_train].test_mse > by_n[8 * n_train].test_mse:
        problems.append(
            f"test loss at N=n ({by_n[n_train].test_mse:.3g}) does not exceed "
            f"N=8n ({by_n[8 * n_train].test_mse:.3g})"
        )
    for n in grid:
        if n >= n_train and by_n[n].train_mse > 1e-6:
            problems.append(f"train loss at N={n} is {by_n[n].train_mse:.2e}")
    norms = [by_n[n].beta_norm for n in grid if n >= n_train]
    if any(b > a + 1e-9 for a, b in zip(norms, norms[1:])):
        problems.append(f"median beta norm not nonincreasing: {norms}")
    _report(6, problems, time.monotonic() - start, 900.0,
            f"{source}, test {by_n[n_train].test_mse:.3g} -> "
            f"{by_n[8 * n_train].test_mse:.3g}, beta {norms[0]:.1f} -> {norms[-1]:.1f}")


def test_criterion_07_implicit_bias():
    """Logistic GD drifts to the max-margin direction; the SVM solver
    agrees with brute-force active-set enumeration on small instances."""
    start = time.monotonic()
    problems = []
    x, y, witness = generate_separable(50, 2, 0.5, SEED)
    loss = get_loss("logistic")
    config = GDConfig(
        step_size=0.5 * max_stable_step(x, loss.beta),
        max_iters=100_000,
        grad_tol=0.0,
        record_every=10,
    )
    trajectory, gaps = implicit_bias_run(x, y, loss, config, witness=witness)
    final_gap = gaps[-1]
    if not final_gap < 0.05:
        problems.append(f"final direction gap {final_gap:.4f} >= 0.05")
    if not np.all(np.diff(trajectory.loss) < 0):
        problems.append("loss is not monotonically decreasing")
    norms = dict(zip(trajectory.t.tolist(), trajectory.w_norm))
    if not norms[100_000] > norms[10]:
        problems.append("||w|| did not grow from step 10 to the end")

    worst_rel = 0.0
    checked = 0
    for n, d, rep in itertools.product(range(2, 9), range(1, 4), range(2)):
        inst_seed = derive_seed(SEED, "c7-oracle", checked)
        xi, yi, witness_i = generate_separable(n, d, 0.4, inst_seed)
        sol = hard_margin_svm(xi, yi, witness=witness_i)
        ref = _brute_force_svm(xi, yi)
        rel = abs(sol.w @ sol.w - ref @ ref) / (ref @ ref)
        worst_rel = max(worst_rel, rel)
        if rel > 1e-6:
            problems.append(f"oracle n={n} d={d} rep={rep}: objective off {rel:.2e}")
        checked += 1
    _report(7, problems, time.monotonic() - start, 120.0,
            f"gap {final_gap:.4f}, {checked} oracle instances worst rel {worst_rel:.1e}")


def _brute_force_svm(x, y):
    a = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)[:, None]
    best = None
    for size in range(1, a.shape[0] + 1):
        for subset in itertools.combinations(range(a.shape[0]), size):
            rows = a[list(subset)]
            w = min_norm_solve(rows, np.ones(size))
            if np.max(np.abs(rows @ w - 1.0)) > 1e-8:
                continue
            if np.min(a @ w) < 1.0 - 1e-9:
                continue
            if best is None or w @ w < best @ best:
                best = w
    return best


def test_criterion_08_bias_variance_identity():
    """bias^2 + variance + noise matches the measured total MSE."""
    start = time.monotonic()
    problems = []
    truth = random_target_poly(3, derive_seed(SEED, "c8-truth"))

    def truth_fn(xs):
        return legendre_predict(truth, xs)

    zs = []
    for degree in (3, 20):
        bv = bias_variance_decompose(
            truth_fn, degree, n=20, noise_scale=0.1, trials=2000,
            seed=derive_seed(SEED, "c8-bv", degree),
        )
        gap = abs(bv.bias_sq + bv.variance + bv.noise - bv.total)
        z = gap / bv.total_stderr
        zs.append(z)
        if z > 3.0:
            problems.append(f"degree {degree}: identity off by {z:.2f} stderr")
    _report(8, problems, time.monotonic() - start, 60.0,
            f"identity z: degree 3 -> {zs[0]:.2f}, degree 20 -> {zs[1]:.2f}")


def test_criterion_09_byte_identical_reruns(tmp_path):
    """Every experiment, rerun with the same config, emits identical bytes."""
    start = time.monotonic()
    problems = []
    configs = {
        "sparse-risk": "trials = 40\ntest_points = 20\np_grid = 0, 10, 38, 42, 60, 100\n",
        "rff-sweep": (
            "n_train = 60\nn_test = 40\ninput_dim = 4\nn_centers = 10\n"
            "n_grid = 20, 60, 120\nrepeats = 2\nbandwidth = 2.0\n"
        ),
        "kernel-approx": "n_points = 12\ninput_dim = 3\nn_grid = 50, 200\nn_maps = 3\n",
        "implicit-bias": "n = 20\nmax_iters = 1500\nrecord_every = 300\n",
        "polyfit": "grid_points = 48\nn = 12\ndegree = 14\n",
        "bias-variance": "trials = 60\ndegrees = 3, 8\n",
        "emc": "d = 8\nn_grid = 4, 8, 9, 12\ntrials = 2\n",
    }
    for name, body in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"experiment = {name}\nseed = 17\n{body}")
        out1 = tmp_path / f"{name}-1.csv"
        out2 = tmp_path / f"{name}-2.csv"
        code1 = cli_main([name, "--config", str(cfg), "--out", str(out1)])
        code2 = cli_main([name, "--config", str(cfg), "--out", str(out2)])
        if code1 != 0 or code2 != 0:
            problems.append(f"{name}: exit codes {code1}/{code2}")
            continue
        if out1.read_bytes() != out2.read_bytes():
            problems.append(f"{name}: reruns differ")
    sparse_text = (tmp_path / "sparse-risk-1.csv").read_text()
    if "0,1.04," not in sparse_text:
        problems.append("sparse-risk CSV does not show 1.04 at p=0")
    _report(9, problems, time.monotonic() - start, 600.0,
            f"{len(configs)} experiments byte-identical")


def test_criterion_10_effective_model_complexity():
    """Min-norm linear regression in dimension 30 has EMC 30 at 1e-6."""
    start = time.monotonic()
    problems = []
    d = 30
    w = np.ones(d) / math.sqrt(d)

    def sample(n, rng):
        x = rng.standard_normal((n, d))
        return x, x @ w + 0.1 * rng.standard_normal(n)

    emc = emc_scan(
        min_norm_linear_procedure,
        sample,
        1e-6,
        (10, 20, 25, 28, 29, 30, 31, 32, 35, 40),
        trials=5,
        seed=SEED,
    )[0]
    if emc != 30:
        problems.append(f"estimated EMC {emc} != 30")
    _report(10, problems, time.monotonic() - start, 30.0, f"EMC = {emc}")
