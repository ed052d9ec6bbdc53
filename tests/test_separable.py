"""Tests for the hard-margin SVM and implicit bias runs on separable data."""

import itertools

import numpy as np
import pytest

from descentlab import separable
from descentlab.descent import GDConfig, get_loss, max_stable_step
from descentlab.errors import ConfigError, InvalidInput, NotSeparableError, NumericalFailure
from descentlab.linalg import min_norm_solve
from descentlab.seeding import derive_seed
from descentlab.separable import (
    direction_gap,
    generate_separable,
    hard_margin_svm,
    implicit_bias_run,
)


def brute_force_svm(x, y):
    """Reference solver: enumerate every candidate active set.

    The SVM optimum has unit margin on its support set and lies in that
    set's span, so it is the min-norm solution of ``A_S w = 1`` for
    ``A = diag(y) X`` restricted to S.  Trying all nonempty subsets,
    keeping the feasible candidates, and taking the smallest norm is
    exhaustive for small n.
    """
    a = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)[:, None]
    best = None
    for size in range(1, a.shape[0] + 1):
        for subset in itertools.combinations(range(a.shape[0]), size):
            rows = a[list(subset)]
            w = min_norm_solve(rows, np.ones(size))
            if np.max(np.abs(rows @ w - 1.0)) > 1e-8:
                continue  # the equality system is inconsistent
            if np.min(a @ w) < 1.0 - 1e-9:
                continue  # violates some margin constraint
            if best is None or w @ w < best @ best:
                best = w
    return best


# ----------------------------------------------------------------- datasets


def test_generate_separable_respects_margin():
    x, y, witness = generate_separable(n=40, d=3, margin=0.7, seed=51)
    assert x.shape == (40, 3)
    assert set(np.unique(y)) <= {-1.0, 1.0}
    assert np.linalg.norm(witness) == pytest.approx(1.0)
    assert np.min(y * (x @ witness)) >= 0.7 - 1e-12


def test_generate_separable_is_deterministic():
    a = generate_separable(10, 2, 0.5, seed=52)
    b = generate_separable(10, 2, 0.5, seed=52)
    for got, want in zip(a, b):
        np.testing.assert_array_equal(got, want)


def test_generate_separable_validation():
    with pytest.raises(InvalidInput):
        generate_separable(1, 2, 0.5, seed=0)
    with pytest.raises(InvalidInput):
        generate_separable(10, 2, 0.0, seed=0)


def test_generate_separable_refuses_a_margin_lost_to_rounding():
    # At margin 1e-300 the shifted points sit at a computed margin of
    # rounding noise, some of it negative, so the witness does not
    # separate; that is an error here, before any solve.
    with pytest.raises(NumericalFailure, match="witness leaves a point"):
        generate_separable(50, 2, 1e-300, seed=0)


# ------------------------------------------------------------ separability


@pytest.mark.parametrize(
    "x, y",
    [
        # The same point with both labels can never be separated.
        ([[1.0], [1.0]], [1.0, -1.0]),
        # Separable only with a bias term: no direction through the origin.
        ([[1.0], [2.0]], [1.0, -1.0]),
        # A zero sample can never achieve a positive margin.
        ([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0]),
        # Every point at the origin: there is no scale to normalize by.
        ([[0.0], [0.0]], [1.0, -1.0]),
    ],
)
def test_not_separable_raises(x, y):
    # As the CLI runs it: a float fault would raise, not pass as NaN.
    with np.errstate(all="raise"), pytest.raises(NotSeparableError):
        hard_margin_svm(np.array(x), np.array(y))


# ---------------------------------------------------------------------- SVM


def test_svm_two_point_hand_case():
    # {((2,0), +1), ((-1,0), -1)}: the negative point pins w = (1, 0);
    # it is the only support vector and carries all the dual weight.
    x = np.array([[2.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    sol = hard_margin_svm(x, y)
    np.testing.assert_allclose(sol.w, [1.0, 0.0], atol=1e-8)
    assert list(sol.support) == [1]
    np.testing.assert_allclose(sol.alpha, [0.0, 1.0], atol=1e-8)
    assert sol.margin == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(sol.direction, [1.0, 0.0], atol=1e-8)
    # The positive point enters first (ties go to the lower index), the
    # negative one joins, and the step back to the boundary drops the
    # positive one: three passive-set solves.
    assert sol.n_passes == 3


def test_svm_matches_brute_force_on_small_instances():
    for i in range(25):
        rng_seed = derive_seed(55, "svm-instance", i)
        n = 3 + i % 5
        d = 1 + i % 3
        x, y, witness = generate_separable(n, d, 0.4, seed=rng_seed)
        sol = hard_margin_svm(x, y, witness=witness)
        ref = brute_force_svm(x, y)
        assert ref is not None
        rel = abs(sol.w @ sol.w - ref @ ref) / (ref @ ref)
        assert rel <= 1e-12, f"instance {i}: objective off by {rel:.2e}"


@pytest.mark.parametrize("margin", [0.5, 1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (5, 1), (2, 2), (50, 2), (50, 8), (50, 50)])
def test_svm_certifies_every_seed(n, d, margin):
    # At d = 1 the points shifted to the margin differ by the rounding of
    # the shift alone, below what the active set's duals resolve, so its
    # support may hold the wrong one of them or both.
    for seed in range(40):
        x, y, witness = generate_separable(n, d, margin, seed)
        assert hard_margin_svm(x, y, witness=witness).margin > 0


@pytest.mark.parametrize(
    "weights, message",
    [
        # Support {0, 1}: w = (1, -1) has y x^T w = 1 at both points, but
        # its margin 1/sqrt(2) is below 1, the norm of the hull point
        # (1, 0) that the Gilbert step from u = (1.5, 0.5) reaches.
        ([0.5, 0.5], "margin 0.7071067811865475.* below 1 "),
        # Support {1}: w = (0.4, 0.2) leaves point 0 at y x^T w = 0.4, a
        # margin of 0.4 / ||w|| = 0.894; the step from u = (2, 1) reaches
        # (1, 0) too.
        ([0.0, 0.5], "margin 0.89442719099991.* below 1 "),
    ],
)
def test_an_uncertified_solve_is_a_numerical_failure(monkeypatch, weights, message):
    x = np.array([[1.0, 0.0], [-2.0, -1.0]])
    y = np.array([1.0, -1.0])
    sol = hard_margin_svm(x, y, witness=[1.0, 0.0])
    np.testing.assert_allclose(sol.w, [1.0, 0.0], atol=1e-15)
    monkeypatch.setattr(separable, "_hull_weights", lambda a: (np.array(weights), 1))
    for witness in (None, [1.0, 0.0]):
        with pytest.raises(NumericalFailure, match=message):
            hard_margin_svm(x, y, witness=witness)


@pytest.mark.parametrize("with_witness", [False, True])
def test_a_polish_that_separates_nothing_is_refused_at_the_margin_floor(monkeypatch, with_witness):
    # n = 1000, d = 50 at the margin floor: the max margin is the witness's
    # 1e-9, and the rounding allowance (n + d) eps max_i ||x_i|| is about
    # 0.2% of it.  The polished w, tilted until a point sits at margin 0,
    # is refused.
    x, y, w_star = generate_separable(1000, 50, 1e-9, seed=0)
    witness = w_star if with_witness else None
    a = x * y[:, None]
    w = hard_margin_svm(x, y, witness=witness).w
    tilt = np.random.default_rng(0).standard_normal(50)
    tilt -= (tilt @ w) / (w @ w) * w
    push = a @ tilt
    tilted = w + np.min((a @ w)[push < 0] / -push[push < 0]) * tilt
    assert abs(np.min(a @ tilted)) / np.linalg.norm(tilted) < 1e-12
    weights = separable._hull_weights(a)
    monkeypatch.setattr(separable, "_hull_weights", lambda a: weights)
    monkeypatch.setattr(separable, "min_norm_solve", lambda a_s, ones: tilted[None])
    with pytest.raises(NumericalFailure, match="not certified"):
        hard_margin_svm(x, y, witness=witness)


def test_a_witness_of_the_wrong_shape_is_refused():
    x, y, witness = generate_separable(10, 2, 0.5, seed=54)
    for bad in (np.append(witness, 0.0), np.zeros(2), [np.nan, 1.0]):
        with pytest.raises(InvalidInput, match="witness"):
            hard_margin_svm(x, y, witness=bad)


def test_svm_dual_primal_consistency():
    x, y, witness = generate_separable(25, 4, 0.3, seed=56)
    sol = hard_margin_svm(x, y, witness=witness)
    # Primal weights are the dual combination of the data.
    recon = (sol.alpha * y) @ x
    np.testing.assert_allclose(sol.w, recon, atol=1e-10)
    margins = y * (x @ sol.w)
    assert np.min(margins) >= 1.0 - 1e-6
    # Support points sit on the margin, the rest carry no weight.
    np.testing.assert_allclose(margins[sol.support], 1.0, atol=1e-6)
    off = np.setdiff1d(np.arange(len(y)), sol.support)
    assert np.all(sol.alpha[off] <= 1e-8)
    assert np.linalg.norm(sol.direction) == pytest.approx(1.0)


# ----------------------------------------------------------- direction gap


def test_direction_gap_endpoints():
    assert direction_gap([3.0, 0.0], [7.0, 0.0]) == 0.0
    assert direction_gap([1.0, 0.0], [-5.0, 0.0]) == pytest.approx(2.0)
    assert direction_gap([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidInput):
        direction_gap([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(InvalidInput):
        direction_gap([1.0, 0.0], [0.0, 0.0])


# ------------------------------------------------------------ implicit bias


def test_implicit_bias_gap_shrinks():
    x, y, witness = generate_separable(12, 2, 0.5, seed=58)
    loss = get_loss("logistic")
    step = 0.5 * max_stable_step(x, loss.beta)
    config = GDConfig(step_size=step, max_iters=4000, grad_tol=0.0, record_every=100)
    tr, gaps = implicit_bias_run(x, y, loss, config, witness=witness)
    assert np.isnan(gaps[0])  # w0 = 0 has no direction
    finite = gaps[~np.isnan(gaps)]
    assert finite[-1] < finite[0]
    assert finite[-1] < 0.25
    # The normalized margin at the end beats the first recorded value
    # after the loss drops below 1.
    below_one = np.flatnonzero(tr.loss < 1.0)
    assert below_one.size > 0
    assert tr.min_margin[-1] > tr.min_margin[below_one[0]]


def test_implicit_bias_exponential_loss_also_converges():
    x, y, _ = generate_separable(10, 2, 0.6, seed=59)
    loss = get_loss("exponential")
    beta0 = loss.smoothness(np.zeros(len(y)))
    config = GDConfig(
        step_size=0.3 * max_stable_step(x, beta0),
        max_iters=4000,
        grad_tol=0.0,
        record_every=200,
    )
    _, gaps = implicit_bias_run(x, y, loss, config)
    finite = gaps[~np.isnan(gaps)]
    assert finite[-1] < finite[0]


def test_implicit_bias_rejects_unstable_step():
    x, y, _ = generate_separable(10, 2, 0.5, seed=60)
    loss = get_loss("logistic")
    bound = max_stable_step(x, loss.beta)
    with pytest.raises(ConfigError):
        implicit_bias_run(x, y, loss, GDConfig(step_size=bound, max_iters=10, grad_tol=0.0))


def test_implicit_bias_checks_the_labels():
    x, y, _ = generate_separable(10, 2, 0.5, seed=61)
    config = GDConfig(step_size=1e-3, max_iters=10, grad_tol=0.0)
    with pytest.raises(InvalidInput, match="labels must be -1/\\+1"):
        implicit_bias_run(x, 2.0 * y, get_loss("logistic"), config)
