"""Tests for Legendre regression and the bias-variance decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import parallel, polyfit
from descentlab.errors import InvalidInput
from descentlab.polyfit import (
    bias_variance_decompose,
    fit_poly_min_norm,
    legendre_design,
    legendre_predict,
    random_target_poly,
)
from descentlab.seeding import derive_seed, substream


# ------------------------------------------------------------------- basis


def test_basis_at_one_is_all_ones():
    design = legendre_design(np.array([1.0]), degree=7)
    np.testing.assert_allclose(design, np.ones((1, 8)))


def test_basis_at_zero_degree_two():
    # P_0(0) = 1, P_1(0) = 0, P_2(0) = -1/2 from the recurrence.
    design = legendre_design(np.array([0.0]), degree=2)
    np.testing.assert_allclose(design[0], [1.0, 0.0, -0.5])


def test_basis_matches_numpy_legendre():
    xs = np.linspace(-1.0, 1.0, 17)
    design = legendre_design(xs, degree=6)
    for k in range(7):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        np.testing.assert_allclose(
            design[:, k], np.polynomial.legendre.legval(xs, coef), atol=1e-12
        )


def test_orthogonality_by_quadrature():
    # Midpoint rule on 2000 cells: integrals of P_j P_k over [-1, 1]
    # vanish off the diagonal and equal 2/(2k+1) on it.
    cells = 2000
    xs = -1.0 + (np.arange(cells) + 0.5) * (2.0 / cells)
    design = legendre_design(xs, degree=5)
    gram = design.T @ design * (2.0 / cells)
    expected = np.diag([2.0 / (2 * k + 1) for k in range(6)])
    np.testing.assert_allclose(gram, expected, atol=1e-5)


@settings(max_examples=80, deadline=None)
@given(x=st.floats(-1.0, 1.0), degree=st.integers(0, 12))
def test_basis_values_bounded_by_one(x, degree):
    design = legendre_design(np.array([x]), degree)
    assert np.max(np.abs(design)) <= 1.0 + 1e-12


def test_stacked_basis_equals_row_by_row():
    rng = substream(64, "stacked-basis")
    xs = rng.uniform(-1.0, 1.0, (7, 20))
    for degree in (0, 1, 5, 40):
        stacked = legendre_design(xs, degree)
        assert stacked.shape == (7, 20, degree + 1)
        for i in range(7):
            np.testing.assert_array_equal(stacked[i], legendre_design(xs[i], degree))


def test_numpy_integer_degree_is_accepted():
    xs = np.array([-0.5, 0.25])
    np.testing.assert_array_equal(legendre_design(xs, np.int64(3)), legendre_design(xs, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: legendre_design(np.array([1.0001]), degree=3), r"xs must lie in \[-1, 1\]"),
        (lambda: legendre_design(np.array([-2.0]), degree=3), r"xs must lie in \[-1, 1\]"),
        (lambda: legendre_design(np.array([np.nan]), degree=3), "xs contains NaN"),
        (lambda: legendre_design(np.array([0.5]), degree=-1), "nonnegative integer, got -1"),
        (lambda: legendre_design(np.array([0.5]), degree=1.5), "nonnegative integer, got 1.5"),
        (lambda: legendre_design(np.array([0.1]), degree=2.0), "nonnegative integer, got 2.0"),
        (lambda: legendre_predict([], np.array([0.5])), "coef must be a nonempty vector"),
        (lambda: legendre_predict(np.ones((2, 2)), np.array([0.5])), "coef must be a nonempty"),
        (lambda: fit_poly_min_norm(np.zeros(3), np.zeros(4), 2), r"ys has shape \(4,\)"),
        (lambda: random_target_poly(-1, seed=0), "nonnegative integer, got -1"),
        (lambda: random_target_poly(2.0, seed=0), "nonnegative integer, got 2.0"),
        (
            lambda: bias_variance_decompose(np.zeros_like, 1, 5.5, 0.1, trials=5, seed=0),
            "n must be a positive integer, got 5.5",
        ),
        (
            lambda: bias_variance_decompose(np.zeros_like, 1, 5, 0.1, trials=4.0, seed=0),
            "trials must be an integer >= 2, got 4.0",
        ),
    ],
)
def test_domain_is_enforced(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


# ------------------------------------------------------------------ fitting


def test_high_degree_fit_interpolates():
    rng = substream(61, "interp-fit")
    xs = rng.uniform(-1.0, 1.0, 12)
    ys = rng.standard_normal(12)
    coef = fit_poly_min_norm(xs, ys, degree=11)
    np.testing.assert_allclose(legendre_predict(coef, xs), ys, atol=1e-8)


def test_noiseless_cubic_is_recovered_exactly():
    rng = substream(62, "cubic")
    truth = random_target_poly(3, seed=62)
    xs = rng.uniform(-1.0, 1.0, 20)
    ys = legendre_predict(truth, xs)
    coef = fit_poly_min_norm(xs, ys, degree=3)
    np.testing.assert_allclose(coef, truth, atol=1e-8)


def test_gradient_descent_fit_agrees_with_pseudo_inverse():
    # Conditioning decides how fast descent closes in on the min-norm
    # point, so the agreement check uses a benign design (condition ~6).
    rng = substream(63, "gd-vs-pinv")
    xs = rng.uniform(-1.0, 1.0, 40)
    ys = rng.standard_normal(40)
    a = fit_poly_min_norm(xs, ys, degree=8, via="pseudo_inverse")
    b = fit_poly_min_norm(xs, ys, degree=8, via="gradient_descent")
    assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-5
    with pytest.raises(InvalidInput):
        fit_poly_min_norm(xs, ys, degree=3, via="newton")
    # No samples: the design is all zero and both routes give zeros.
    for via in ("pseudo_inverse", "gradient_descent"):
        np.testing.assert_array_equal(fit_poly_min_norm([], [], degree=3, via=via), np.zeros(4))


def test_degree_1000_fit_is_smoother_than_degree_20():
    # n = 20 noisy samples of a random cubic: the degree-20 interpolant
    # oscillates wildly while the degree-1000 min-norm fit stays close
    # to the truth.  Median sup-norm distance over 20 draws.
    grid = np.linspace(-1.0, 1.0, 512)
    sup = {20: [], 1000: []}
    for i in range(20):
        rng = substream(991, "smoothness", i)
        truth = random_target_poly(3, derive_seed(991, "smoothness-target", i))
        xs = rng.uniform(-1.0, 1.0, 20)
        ys = legendre_predict(truth, xs) + 0.5 * rng.standard_normal(20)
        truth_grid = legendre_predict(truth, grid)
        for degree in (20, 1000):
            fit = fit_poly_min_norm(xs, ys, degree)
            sup[degree].append(np.max(np.abs(legendre_predict(fit, grid) - truth_grid)))
    assert np.median(sup[1000]) < np.median(sup[20])


def test_random_target_poly_deterministic():
    a = random_target_poly(4, seed=9)
    b = random_target_poly(4, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (5,)


# ------------------------------------------------------------ bias-variance


@pytest.mark.parametrize("shape", ["row", "block"])
def test_perfect_estimator_has_no_error(shape):
    # An estimator may return one row for the whole block or a row per trial.
    truth = random_target_poly(2, seed=71)

    def truth_fn(x):
        return legendre_predict(truth, x)

    def perfect(xs, ys):
        row = truth_fn(polyfit.PROBE)
        return row if shape == "row" else np.tile(row, (len(xs), 1))

    bv = bias_variance_decompose(
        truth_fn, degree=2, n=10, noise_scale=0.0, trials=20, seed=71, estimator=perfect
    )
    assert bv.bias_sq <= 1e-20
    assert bv.variance <= 1e-20
    assert bv.noise == 0.0
    assert bv.total <= 1e-20


def test_constant_truth_zero_estimator_is_pure_bias():
    def truth_fn(x):
        return np.full_like(np.asarray(x, dtype=float), 3.0)

    def zero_estimator(xs, ys):
        return np.zeros(polyfit.PROBE.size)

    bv = bias_variance_decompose(
        truth_fn, degree=0, n=10, noise_scale=0.0, trials=30, seed=74,
        estimator=zero_estimator,
    )
    assert bv.bias_sq == pytest.approx(9.0)
    assert bv.variance == 0.0


def test_noise_only_setting_recovers_sigma_squared():
    def zero_fn(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def zero_estimator(xs, ys):
        return zero_fn(polyfit.PROBE)

    bv = bias_variance_decompose(
        zero_fn, degree=0, n=10, noise_scale=0.4, trials=400, seed=72,
        estimator=zero_estimator,
    )
    assert bv.bias_sq <= 1e-20
    assert bv.variance <= 1e-20
    assert abs(bv.total - 0.16) <= 4.0 * bv.total_stderr


def test_decomposition_identity_smoke():
    truth = random_target_poly(3, seed=73)

    def truth_fn(x):
        return legendre_predict(truth, x)

    bv = bias_variance_decompose(truth_fn, degree=3, n=20, noise_scale=0.1,
                                 trials=400, seed=73)
    lhs = bv.bias_sq + bv.variance + bv.noise
    assert abs(lhs - bv.total) <= 4.0 * bv.total_stderr
    assert bv.trials == 400


def _per_trial_decomposition(truth_fn, degree, n, noise_scale, trials, seed):
    """The decomposition fitted one trial at a time, as a reference."""
    probe = np.linspace(-1.0, 1.0, 101)
    truth_on_probe = truth_fn(probe)
    preds = np.empty((trials, probe.size))
    totals = np.empty(trials)
    for r in range(trials):
        rng = substream(seed, "bias-variance-trial", r)
        xs = rng.uniform(-1.0, 1.0, size=n)
        ys = truth_fn(xs) + noise_scale * rng.standard_normal(n)
        preds[r] = legendre_predict(fit_poly_min_norm(xs, ys, degree), probe)
        fresh = truth_on_probe + noise_scale * rng.standard_normal(probe.size)
        totals[r] = np.mean((preds[r] - fresh) ** 2)
    avg_pred = preds.mean(axis=0)
    return (
        float(np.mean((truth_on_probe - avg_pred) ** 2)),
        float(np.mean((preds - avg_pred) ** 2)),
        float(np.mean(totals)),
        float(np.std(totals, ddof=1) / np.sqrt(trials)),
    )


@pytest.mark.parametrize("degree", [3, 11, 12, 30])
def test_block_fit_equals_per_trial_fits(degree):
    # 150 trials leave a partial last block.  With n = 12 samples, degree
    # 11 is the first that interpolates (12 coefficients), so the degrees
    # run below, at and above the threshold.
    truth = random_target_poly(3, seed=75)

    def truth_fn(x):
        return legendre_predict(truth, x)

    bv = bias_variance_decompose(truth_fn, degree, n=12, noise_scale=0.2, trials=150, seed=76)
    got = (bv.bias_sq, bv.variance, bv.total, bv.total_stderr)
    assert got == _per_trial_decomposition(truth_fn, degree, 12, 0.2, 150, 76)


def test_block_size_does_not_change_the_result(monkeypatch):
    truth = random_target_poly(3, seed=77)

    def truth_fn(x):
        return legendre_predict(truth, x)

    def run():
        return [
            bias_variance_decompose(truth_fn, degree, n=10, noise_scale=0.1, trials=30, seed=78)
            for degree in (2, 9, 25)
        ]

    default = run()
    for block in (1, 7):
        monkeypatch.setattr(polyfit, "BLOCK_TRIALS", block)
        assert run() == default


@pytest.mark.parametrize("trials", [2, 3, 150])
def test_bias_variance_does_not_depend_on_the_cpu_count(monkeypatch, trials):
    # 2 trials are fewer than 3 CPUs; 150 leave partial blocks in every
    # process's share.
    truth = random_target_poly(3, seed=79)

    def truth_fn(x):
        return legendre_predict(truth, x)

    results = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        results[cpus] = [
            bias_variance_decompose(truth_fn, degree, n=10, noise_scale=0.1, trials=trials, seed=80)
            for degree in (2, 9, 25)
        ]
    np.testing.assert_array_equal(results[2], results[1])
    np.testing.assert_array_equal(results[3], results[1])


def test_bias_variance_validation():
    def f(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    with pytest.raises(InvalidInput):
        bias_variance_decompose(f, degree=1, n=5, noise_scale=0.1, trials=1, seed=0)
    with pytest.raises(InvalidInput):
        bias_variance_decompose(f, degree=1, n=0, noise_scale=0.1, trials=5, seed=0)
    with pytest.raises(InvalidInput):
        bias_variance_decompose(f, degree=1, n=5, noise_scale=-0.1, trials=5, seed=0)
