"""Tests for the sparsified-regression risk formulas and Monte Carlo."""

import itertools
import math

import numpy as np
import pytest

from descentlab import parallel
from descentlab.errors import InvalidInput
from descentlab.seeding import derive_seed, substream
from descentlab.sparse_regression import (
    GaussianLinearProblem,
    SubsetSelection,
    analytic_risk_fixed_subset,
    analytic_risk_random_subset,
    fit_subset_min_norm,
    monte_carlo_risk,
    risk_curve,
)


# ---------------------------------------------------------------- analytic

# Reference points of the random-subset curve at d=100, n=40, ||w||^2=1,
# noise variance 1/25, worked out from the three-case formula by hand:
#   p=0   : 1.04 * 1                = 1.04
#   p=20  : 0.84 * 39/19            = 32.76/19
#   p=38  : 0.66 * 39               = 25.74
#   p=42  : 0.42/21 + 0.62 * 41     = 25.44
#   p=60  : 0.2 + 0.44 * 59/19      = 0.2 + 25.96/19
#   p=100 : 0.6 + 0.04 * 99/59      = 0.6 + 3.96/59
_CURVE_POINTS = {
    0: 1.04,
    20: 32.76 / 19.0,
    38: 25.74,
    42: 0.42 / 21.0 + 0.62 * 41.0,
    60: 0.2 + 25.96 / 19.0,
    100: 0.6 + 3.96 / 59.0,
}


def test_random_subset_curve_reference_points():
    for p, expected in _CURVE_POINTS.items():
        got = analytic_risk_random_subset(1.0, 0.04, 100, 40, p)
        assert got == pytest.approx(expected, rel=1e-12), f"p={p}"


def test_divergence_band_is_inf():
    for p in (39, 40, 41):
        assert math.isinf(analytic_risk_random_subset(1.0, 0.04, 100, 40, p))
    # The band is n-1..n+1 whatever the noise level.
    assert math.isinf(analytic_risk_random_subset(1.0, 0.0, 10, 5, 4))
    assert not math.isinf(analytic_risk_random_subset(1.0, 0.0, 10, 5, 3))


def test_second_descent_shape():
    risks = {p: analytic_risk_random_subset(1.0, 0.04, 100, 40, p) for p in _CURVE_POINTS}
    assert risks[38] > risks[20] > risks[0]
    assert risks[38] > risks[60] > risks[100]
    assert risks[100] < risks[0]


def test_fixed_subset_hand_case():
    # All signal kept, p = d = 6 >= n + 2: risk = a (1 - n/p) + s2 (1 + n/(p-n-1)).
    w = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    sel = SubsetSelection(kept=np.arange(6), d=6)
    got = analytic_risk_fixed_subset(w, sel, noise_scale=0.5, n=4)
    expected = 4.0 * (1.0 - 4.0 / 6.0) + 0.25 * (1.0 + 4.0)
    assert got == pytest.approx(expected)
    # Nothing kept: pure null predictor, risk = ||w||^2 + s2.
    empty = SubsetSelection(kept=np.array([], dtype=int), d=6)
    assert analytic_risk_fixed_subset(w, empty, 0.5, 4) == pytest.approx(4.25)


def test_random_subset_equals_average_over_all_subsets():
    # Independent check of the affine-in-energy argument: brute-force
    # average of the fixed-subset risk over all C(d, p) subsets.
    rng = substream(31, "combinatorial")
    d, n = 7, 3
    w = rng.standard_normal(d)
    for p in (1, 5, 6, 7):
        total = 0.0
        count = 0
        for kept in itertools.combinations(range(d), p):
            sel = SubsetSelection(kept=np.array(kept), d=d)
            total += analytic_risk_fixed_subset(w, sel, 0.3, n)
            count += 1
        averaged = total / count
        direct = analytic_risk_random_subset(float(w @ w), 0.09, d, n, p)
        assert direct == pytest.approx(averaged, rel=1e-12), f"p={p}"


_SEL = SubsetSelection(kept=np.array([0]), d=5)
_PROBLEM = GaussianLinearProblem(w_true=np.ones(5), noise_scale=0.1, n=3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: analytic_risk_random_subset(-1.0, 0.04, 10, 5, 2), "w_norm_sq and noise_var"),
        (lambda: analytic_risk_random_subset(1.0, 0.04, 0, 5, 0), "d and n must be positive"),
        (lambda: analytic_risk_random_subset(1.0, 0.04, 10.5, 5.5, 2), "got 10.5 and 5.5"),
        (lambda: analytic_risk_random_subset(1.0, 0.04, 10, 5.0, 2), "integers, got 10 and 5.0"),
        (lambda: analytic_risk_random_subset(1.0, 0.04, 10, 5, 11), r"p must be .* in \[0, 10\]"),
        (lambda: analytic_risk_random_subset(1.0, 0.04, 10, 5, 2.0), r"\[0, 10\], got 2.0"),
        (lambda: GaussianLinearProblem(np.array([1.0]), -0.1, 5), "noise_scale must be >= 0"),
        (lambda: GaussianLinearProblem(np.array([np.nan]), 0.1, 5), "w_true contains NaN"),
        (lambda: GaussianLinearProblem(np.empty(0), 0.1, 5), "w_true must be a nonempty vector"),
        (lambda: GaussianLinearProblem(np.ones((2, 2)), 0.1, 5), "nonempty vector"),
        (lambda: GaussianLinearProblem(np.array([1.0]), 0.1, 0), "n must be a positive integer"),
        (lambda: GaussianLinearProblem(np.array([1.0]), 0.1, 2.5), "n must be a positive integer"),
        (lambda: GaussianLinearProblem(np.ones(3), 0.1, 5.0), "positive integer, got 5.0"),
        (lambda: SubsetSelection(kept=np.zeros((2, 2)), d=4), "kept must be a 1-d index array"),
        (lambda: fit_subset_min_norm(np.ones((3, 4)), np.ones(3), _SEL), r"shape \(n, 5\)"),
        (lambda: fit_subset_min_norm(np.ones(5), np.ones(1), _SEL), r"shape \(n, 5\)"),
        (lambda: analytic_risk_fixed_subset(np.ones(4), _SEL, 0.1, 3), "vector of length 5"),
        (lambda: analytic_risk_fixed_subset(np.ones(5), _SEL, -0.1, 3), "noise_scale must be >= 0"),
        (lambda: analytic_risk_fixed_subset(np.ones(5), _SEL, 0.1, 0), "n must be a positive"),
        (lambda: analytic_risk_fixed_subset(np.ones(5), _SEL, 0.1, 3.0), "integer, got 3.0"),
        (lambda: monte_carlo_risk(_PROBLEM, 6, 10, 5, seed=0), r"p must be .* in \[0, 5\]"),
        (lambda: monte_carlo_risk(_PROBLEM, 2.0, 10, 5, seed=0), r"\[0, 5\], got 2.0"),
        (lambda: monte_carlo_risk(_PROBLEM, 2, 0, 5, seed=0), "trials must be an integer >= 1"),
        (lambda: monte_carlo_risk(_PROBLEM, 2, 2.5, 5, seed=0), "integer >= 1, got 2.5"),
        (lambda: monte_carlo_risk(_PROBLEM, 2, 10, 0, seed=0), "test_points must be an integer"),
        (lambda: monte_carlo_risk(_PROBLEM, 2, 10, 2.5, seed=0), "test_points .* got 2.5"),
        (lambda: SubsetSelection(kept=[0.5, 1.7], d=5), "kept indices must be integers"),
        (lambda: SubsetSelection(kept=np.array([1.0]), d=5), "kept indices must be integers"),
        (lambda: SubsetSelection(kept=[True, False], d=5), "kept indices must be integers"),
    ],
)
def test_input_validation(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def test_numpy_integer_sizes_are_accepted():
    assert analytic_risk_random_subset(1.0, 0.04, 10, np.int64(5), np.int64(8)) == (
        analytic_risk_random_subset(1.0, 0.04, 10, 5, 8)
    )
    problem = GaussianLinearProblem(np.ones(5), 0.1, np.int64(3))
    assert monte_carlo_risk(problem, np.int64(2), 4, 5, seed=0) == (
        monte_carlo_risk(_PROBLEM, 2, 4, 5, seed=0)
    )


# ----------------------------------------------------------------- subsets


def test_subset_selection_basics():
    sel = SubsetSelection(kept=np.array([4, 1, 2]), d=6)
    assert sel.p == 3
    assert list(sel.kept) == [1, 2, 4]  # stored sorted
    with pytest.raises(InvalidInput):
        SubsetSelection(kept=np.array([0, 0]), d=4)
    with pytest.raises(InvalidInput):
        SubsetSelection(kept=np.array([4]), d=4)
    # An empty list has no integer dtype, and no entries to check.
    assert SubsetSelection(kept=[], d=4).p == 0
    assert list(SubsetSelection(kept=[3, np.int64(0)], d=4).kept) == [0, 3]


def test_random_subset_is_uniformly_sized():
    rng = substream(32, "subset-draw")
    for p in (0, 3, 8):
        sel = SubsetSelection.random(8, p, rng)
        assert sel.p == p
        assert sel.d == 8
        assert np.all((sel.kept >= 0) & (sel.kept < 8))
    with pytest.raises(InvalidInput):
        SubsetSelection.random(8, 9, rng)


def test_fit_subset_coefficients_live_in_full_space():
    rng = substream(33, "subset-fit")
    x = rng.standard_normal((5, 9))
    w = rng.standard_normal(9)
    y = x @ w
    sel = SubsetSelection(kept=np.array([0, 2, 7]), d=9)
    coef = fit_subset_min_norm(x, y, sel)
    assert coef.shape == (9,)
    assert np.all(np.delete(coef, sel.kept) == 0.0)
    # With p < n the sub-design is overdetermined; the fit is the least
    # squares solution on the kept columns.
    expected = np.linalg.lstsq(x[:, sel.kept], y, rcond=None)[0]
    np.testing.assert_allclose(coef[sel.kept], expected, atol=1e-9)


# ------------------------------------------------------------- Monte Carlo


def test_monte_carlo_matches_analytic_fixed_subset():
    rng = substream(34, "mc-check-w")
    d, n, p = 8, 3, 6
    w = rng.standard_normal(d)
    problem = GaussianLinearProblem(w_true=w, noise_scale=0.2, n=n)
    sel = SubsetSelection.random(d, p, substream(34, "mc-check-subset"))
    analytic = analytic_risk_fixed_subset(w, sel, 0.2, n)
    mean, stderr = monte_carlo_risk(problem, p, trials=3000, test_points=50, seed=34, subset=sel)
    assert abs(mean - analytic) <= 5.0 * stderr
    assert 0.0 < stderr < math.inf


def test_monte_carlo_is_deterministic():
    problem = GaussianLinearProblem(w_true=np.ones(5), noise_scale=0.1, n=3)
    a = monte_carlo_risk(problem, 2, trials=40, test_points=10, seed=7)
    b = monte_carlo_risk(problem, 2, trials=40, test_points=10, seed=7)
    assert a == b
    c = monte_carlo_risk(problem, 2, trials=40, test_points=10, seed=8)
    assert a[0] != c[0]


@pytest.mark.parametrize("trials", [1, 2, 3, 41])
def test_monte_carlo_does_not_depend_on_the_cpu_count(monkeypatch, trials):
    # 1 and 2 trials are fewer than 3 CPUs; a pinned subset takes the
    # same path.
    problem = GaussianLinearProblem(w_true=np.linspace(0.1, 1.0, 7), noise_scale=0.3, n=4)
    pinned = SubsetSelection(kept=np.array([0, 2, 3, 6]), d=7)
    results = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        results[cpus] = [
            monte_carlo_risk(problem, p, trials, test_points=9, seed=42, subset=subset)
            for p, subset in ((0, None), (3, None), (4, None), (7, None), (4, pinned))
        ]
    np.testing.assert_array_equal(results[2], results[1])
    np.testing.assert_array_equal(results[3], results[1])


def test_monte_carlo_rejects_mismatched_subset():
    problem = GaussianLinearProblem(w_true=np.ones(5), noise_scale=0.1, n=3)
    sel = SubsetSelection(kept=np.array([0, 1]), d=5)
    with pytest.raises(InvalidInput):
        monte_carlo_risk(problem, 3, trials=10, test_points=5, seed=0, subset=sel)


def test_risk_curve_rows_match_direct_calls():
    rows = risk_curve(1.0, 0.04, 6, 3, (1, 6), trials=30, test_points=10, seed=41)
    assert [r.p for r in rows] == [1, 6]
    # The evenly spread w of the given norm, and the scalars as given.
    problem = GaussianLinearProblem(w_true=np.full(6, math.sqrt(1.0 / 6)), noise_scale=0.2, n=3)
    for row in rows:
        direct = monte_carlo_risk(
            problem, row.p, trials=30, test_points=10, seed=derive_seed(41, "risk-curve-p", row.p)
        )
        assert (row.mc_risk, row.mc_stderr) == direct
        assert row.trials == 30
        assert row.analytic_risk == analytic_risk_random_subset(1.0, 0.04, 6, 3, row.p)
    for bad in ((-1.0, 0.04, 6), (1.0, -0.04, 6), (1.0, 0.04, 0)):
        with pytest.raises(InvalidInput):
            risk_curve(*bad, 3, (1,), trials=2, test_points=1, seed=41)
