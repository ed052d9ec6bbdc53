"""Tests for the gradient descent engine and the classification losses."""

import re
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from descentlab import descent, polyfit
from descentlab.descent import (
    DIVERGENCE_FACTOR,
    ExponentialLoss,
    GDConfig,
    LogisticLoss,
    gd_classification,
    gd_least_squares,
    gd_limit_point,
    get_loss,
    max_stable_step,
)
from descentlab.errors import ConfigError, DivergenceError, InvalidInput
from descentlab.linalg import kernel_projector, min_norm_solve, svd
from descentlab.seeding import substream


# ---------------------------------------------------------------- configs


def test_config_validation():
    GDConfig(step_size=0.1).validate()
    with pytest.raises(ConfigError):
        GDConfig(step_size=0.0).validate()
    with pytest.raises(ConfigError):
        GDConfig(step_size=np.inf).validate()
    with pytest.raises(ConfigError):
        GDConfig(step_size=0.1, max_iters=0).validate()
    with pytest.raises(ConfigError, match="max_iters must be an integer >= 1, got 2.5"):
        GDConfig(step_size=0.1, max_iters=2.5).validate()
    GDConfig(step_size=0.1, max_iters=np.int64(3)).validate()
    with pytest.raises(ConfigError):
        GDConfig(step_size=0.1, grad_tol=-1.0).validate()
    with pytest.raises(ConfigError, match="grad_tol must be >= 0, got nan"):
        gd_least_squares(
            [[1.0]], [1.0], GDConfig(step_size=0.5, max_iters=50, grad_tol=float("nan"))
        )
    # record_every is read by gd_classification alone, so only it checks it.
    for bad in (0, 2.5):
        with pytest.raises(ConfigError, match=f"record_every must be an integer >= 1, got {bad}"):
            gd_classification(
                [[1.0]], [1.0], get_loss("logistic"), GDConfig(step_size=0.1, record_every=bad)
            )
    run = gd_least_squares([[1.0]], [1.0], GDConfig(step_size=0.5, record_every=0))
    assert run.converged


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: gd_least_squares(
            [[1.0]], [1.0], GDConfig(step_size=0.5, max_iters=50), w0=[bad]
        ),
        lambda bad: gd_limit_point([[1.0, 0.0]], [1.0], w0=[bad, 1.0]),
        lambda bad: gd_classification(
            [[1.0]], [1.0], get_loss("logistic"), GDConfig(step_size=0.5), w0=[bad]
        ),
    ],
    ids=["least-squares", "limit-point", "classification"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_w0_is_rejected(call, bad):
    with pytest.raises(InvalidInput, match="w0 contains NaN or Inf entries"):
        call(bad)


@pytest.mark.parametrize(
    "y, message",
    [([1.0, 2.0], r"y has shape \(2,\), expected \(1,\)"), ([np.nan], "y contains NaN or Inf")],
)
@pytest.mark.parametrize(
    "fit",
    [gd_limit_point, lambda x, y: gd_least_squares(x, y, GDConfig(0.5))],
    ids=["limit-point", "least-squares"],
)
def test_bad_targets_are_rejected(fit, y, message):
    with pytest.raises(InvalidInput, match=message):
        fit([[1.0]], y)


def test_step_size_gate_on_least_squares():
    x = np.array([[2.0, 0.0]])  # sigma_max = 2, so the limit is 1/4
    with pytest.raises(ConfigError):
        gd_least_squares(x, [1.0], GDConfig(step_size=0.25))
    gd_least_squares(x, [1.0], GDConfig(step_size=0.24))  # just inside
    # sigma_max^2 underflows to 0 here, so no step size is refused.
    assert gd_least_squares([[1e-170]], [1.0], GDConfig(step_size=1.0)).converged


# ------------------------------------------------------- least squares GD


def test_hand_iterates_on_single_row():
    # X = [[1, 0]], y = [1], step 1/2: w_{k+1} = w_k - 0.5 (w_k - 1), so
    # the first coordinate walks 0, 1/2, 3/4, ... = 1 - 0.5^k and the
    # second coordinate never moves.
    config = GDConfig(step_size=0.5, max_iters=10, grad_tol=0.0)
    run = gd_least_squares([[1.0, 0.0]], [1.0], config)
    assert run.n_iters == 10
    assert run.w[0] == pytest.approx(1.0 - 0.5**10, abs=1e-15)
    assert run.w[1] == 0.0


def test_least_squares_divergence_backstop(monkeypatch):
    # The step-size gate keeps a real run from diverging, so report
    # sigma_max = 0.1 to let step 3 through on X = [[1]]: w walks 0, 3, -3
    # and the loss 0.5, 2, 8 passes DIVERGENCE_FACTOR times its start.
    monkeypatch.setattr(descent, "svd", lambda x: SimpleNamespace(s_max=0.1))
    config = GDConfig(step_size=3.0, max_iters=50, grad_tol=0.0)
    message = r"^loss reached 8 at iteration 2 \(started at 0\.5\); reduce step_size$"
    with pytest.raises(DivergenceError, match=message):
        gd_least_squares([[1.0]], [1.0], config)


def test_from_zero_reaches_min_norm():
    rng = substream(21, "gd-min-norm")
    x = rng.standard_normal((5, 12))
    y = rng.standard_normal(5)
    config = GDConfig(step_size=0.9 / svd(x).s_max ** 2, max_iters=50_000, grad_tol=1e-12)
    run = gd_least_squares(x, y, config)
    assert run.converged
    w_star = min_norm_solve(x, y)
    assert np.linalg.norm(run.w - w_star) / np.linalg.norm(w_star) <= 1e-8


def test_kernel_component_is_preserved():
    rng = substream(22, "gd-kernel")
    x = rng.standard_normal((4, 9))
    y = rng.standard_normal(4)
    v = kernel_projector(x) @ rng.standard_normal(9)
    config = GDConfig(step_size=0.9 / svd(x).s_max ** 2, max_iters=50_000, grad_tol=1e-12)
    run = gd_least_squares(x, y, config, w0=v)
    np.testing.assert_allclose(run.w, gd_limit_point(x, y, v), atol=1e-8)
    # The kernel offset survives in the limit.
    np.testing.assert_allclose(kernel_projector(x) @ run.w, v, atol=1e-8)


def test_limit_point_default_is_min_norm():
    rng = substream(23, "limit-default")
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal(3)
    np.testing.assert_allclose(gd_limit_point(x, y), min_norm_solve(x, y))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gd_limit_matches_closed_form(seed):
    rng = substream(seed, "gd-property")
    m = int(rng.integers(2, 6))
    n = m + int(rng.integers(1, 6))
    x = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    w0 = rng.standard_normal(n)
    step_size = 0.9 / svd(x).s_max ** 2
    config = GDConfig(step_size=step_size, max_iters=100_000, grad_tol=1e-12)
    run = gd_least_squares(x, y, config, w0=w0)
    # After k steps GD sits at w* + (I - eta X^T X)^k (w0 - w*), with w* the
    # limit point.  A well-conditioned draw is at w* itself; on an
    # ill-conditioned one 100k steps stop short of it, by exactly this much.
    w_star = gd_limit_point(x, y, w0)
    contraction = np.eye(n) - step_size * x.T @ x
    expected = w_star + np.linalg.matrix_power(contraction, run.n_iters) @ (w0 - w_star)
    np.testing.assert_allclose(run.w, expected, atol=1e-6)


# ------------------------------------------------------------------ losses


def _central_difference(f, v, h):
    return (f(v + h) - f(v - h)) / (2.0 * h)


def _weights(loss):
    return lambda v: loss.at_negated_margins(v)[1]


@pytest.mark.parametrize("loss", [ExponentialLoss(), LogisticLoss()])
def test_loss_gradient_finite_difference(loss):
    # d/dv loss(-v) = -loss'(-v): the weights are the slope of the terms.
    v = np.linspace(-8.0, 8.0, 41)
    fd = _central_difference(lambda v: loss.at_negated_margins(v)[0], v, 1e-6)
    np.testing.assert_allclose(_weights(loss)(v), fd, atol=1e-8)


@pytest.mark.parametrize("loss", [ExponentialLoss(), LogisticLoss()])
def test_loss_curvature_finite_difference(loss):
    # d weights/dv = loss''(-v): the smoothness at one margin bounds the
    # slope there, and over all margins it is the steepest slope.
    v = np.linspace(-8.0, 8.0, 41)
    slope = _central_difference(_weights(loss), v, 1e-5)
    local = np.array([loss.smoothness(np.array([-vi])) for vi in v])
    assert np.all(slope <= local * (1.0 + 1e-6))
    assert loss.smoothness(-v) == pytest.approx(slope.max(), rel=1e-6)


def test_logistic_smoothness_is_quarter():
    loss = LogisticLoss()
    assert loss.beta == 0.25
    v = np.linspace(-30.0, 30.0, 201)
    slope = _central_difference(_weights(loss), v, 1e-5)
    # Within the finite difference's own error of the 1/4 cap, reached at 0.
    assert np.max(slope) <= 0.25 + 1e-10
    at_zero = _central_difference(_weights(loss), np.array([0.0]), 1e-5)
    assert at_zero[0] == pytest.approx(0.25)
    assert loss.smoothness(-v) == 0.25


def test_exponential_smoothness_is_local():
    loss = ExponentialLoss()
    assert loss.beta is None
    u = np.array([-3.0, 0.0, 2.0])
    # Largest curvature sits at the most negative margin.
    assert loss.smoothness(u) == pytest.approx(np.exp(3.0))


def test_exponential_clamp_prevents_overflow():
    loss = ExponentialLoss()
    terms, weights = loss.at_negated_margins(np.array([1e6]))
    assert np.isfinite(terms).all() and np.isfinite(weights).all()
    clamped = loss.at_negated_margins(np.array([50.0]))
    assert (terms[0], weights[0]) == (clamped[0][0], clamped[1][0])


def test_logistic_tail_is_sandwiched_by_exponentials():
    # Exponential-tail property of -loss'(u): between 0.5 e^{-u} and
    # e^{-u} for u >= 0, which is what drives the max-margin limit.
    u = np.linspace(0.0, 30.0, 301)
    tail = _weights(LogisticLoss())(-u)
    assert np.all(tail <= np.exp(-u) + 1e-15)
    assert np.all(tail >= 0.5 * np.exp(-u) - 1e-15)


def test_logistic_weights_are_expit_and_exact_at_the_infinities():
    rng = substream(15, "logistic-weights")
    v = np.concatenate([rng.standard_normal(20000), 30.0 * rng.standard_normal(20000)])
    v = np.concatenate([v, np.linspace(-745.0, 745.0, 30001)])
    _, weights = LogisticLoss().at_negated_margins(v)
    # Within 1e-15 of scipy's expit wherever it is a normal number; below
    # that, expit's exp(-v) overflows to a 0 that the weights resolve.
    np.testing.assert_allclose(weights, expit(v), rtol=1e-15, atol=np.finfo(float).tiny)
    with np.errstate(all="raise"):
        _, weights = LogisticLoss().at_negated_margins(np.array([np.inf, -np.inf]))
    assert weights.tolist() == [1.0, 0.0]


def test_get_loss_lookup():
    assert get_loss("logistic").name == "logistic"
    assert get_loss("exponential").name == "exponential"
    with pytest.raises(InvalidInput):
        get_loss("hinge")


def test_max_stable_step_formula():
    x = np.array([[3.0, 0.0], [0.0, 1.0]])  # sigma_max = 3
    assert max_stable_step(x, 0.25) == pytest.approx(2.0 / (0.25 * 9.0))
    with pytest.raises(InvalidInput):
        max_stable_step(x, 0.0)
    with pytest.raises(InvalidInput):
        max_stable_step(np.zeros((2, 2)), 0.25)


# ---------------------------------------------------- classification runs


def _tiny_separable():
    x = np.array([[2.0, 0.0], [-1.0, 0.0], [0.5, 1.0]])
    y = np.array([1.0, -1.0, 1.0])
    return x, y


def test_classification_runs_to_max_iters():
    x, y = _tiny_separable()
    loss = get_loss("logistic")
    step = 0.5 * max_stable_step(x, loss.beta)
    config = GDConfig(step_size=step, max_iters=3000, grad_tol=0.0, record_every=100)
    run = gd_classification(x, y, loss, config)
    assert run.n_iters == 3000
    assert np.all(np.diff(run.loss) < 0)
    # The norm diverges while the normalized margin settles near the
    # max-margin value for this dataset, 1/sqrt(1.25).
    assert run.w_norm[-1] > run.w_norm[1]
    assert run.min_margin[-1] == pytest.approx(1.0 / np.sqrt(1.25), abs=0.05)


def test_classification_directions_are_unit():
    x, y = _tiny_separable()
    loss = get_loss("exponential")
    step = 0.2 * max_stable_step(x, loss.smoothness(np.zeros(3)))
    config = GDConfig(step_size=step, max_iters=500, grad_tol=0.0, record_every=50)
    run = gd_classification(x, y, loss, config)
    norms = np.linalg.norm(run.directions[1:], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # At w = 0 the direction is recorded as the zero vector.
    assert np.all(run.directions[0] == 0.0)


def test_classification_rejects_bad_labels():
    with pytest.raises(InvalidInput):
        gd_classification(
            np.eye(2), np.array([1.0, 2.0]), get_loss("logistic"), GDConfig(step_size=0.1)
        )


def test_classification_divergence_is_detected():
    # Two opposing points give loss 2 cosh(w); a huge step overshoots
    # back and forth with growing amplitude until the backstop fires.
    x = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 1.0])
    config = GDConfig(step_size=2.0, max_iters=50, grad_tol=0.0, record_every=1)
    with pytest.raises(DivergenceError):
        gd_classification(x, y, get_loss("exponential"), config, w0=np.array([3.0]))
    assert DIVERGENCE_FACTOR == 10.0


def test_effective_smoothness_tracks_the_start_point():
    # A stable exponential-loss run keeps the smoothness seen at w0; the
    # loss only decreases, so no re-estimation happens along the way.
    x = np.array([[1.0]])
    y = np.array([1.0])
    loss = get_loss("exponential")
    run = gd_classification(
        x,
        y,
        loss,
        GDConfig(step_size=0.3, max_iters=50, grad_tol=0.0, record_every=10),
        w0=np.array([-1.5]),
    )
    assert run.effective_smoothness == pytest.approx(np.exp(1.5))
    assert np.all(np.diff(run.loss) < 0)


# ----------------------------------- step loops against a reference idiom


def _reference_least_squares(x, y, config, w0):
    """The least-squares loop written with numpy's wrappers, as a reference;
    ``w0 = None`` starts from zero."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    w = np.zeros(x.shape[1]) if w0 is None else np.array(w0, float)
    grad_scale = 1.0 + float(np.linalg.norm(x.T @ y))
    converged, n_iters = False, 0
    for k in range(config.max_iters + 1):
        grad = x.T @ (x @ w - y)
        if np.linalg.norm(grad) <= config.grad_tol * grad_scale:
            converged, n_iters = True, k
            break
        if k == config.max_iters:
            n_iters = k
            break
        w = w - config.step_size * grad
    return w, converged, n_iters


def _reference_classification_run(x, y, loss, config, w0):
    """The classification loop written with numpy's wrappers, as a
    reference; returns the trajectory and the effective smoothness."""
    x, y, w = np.asarray(x, float), np.asarray(y, float), np.array(w0, float)
    signed = x * y[:, None]
    smax2 = svd(x).s_max ** 2
    ts, values, norms, margin_list, dirs = [], [], [], [], []

    def snapshot(k, w, margins, value):
        norm = float(np.linalg.norm(w))
        ts.append(k)
        values.append(value)
        norms.append(norm)
        margin_list.append(float(np.min(margins)) / norm if norm > 0 else 0.0)
        dirs.append(w / norm if norm > 0 else np.zeros_like(w))

    margins = signed @ w
    terms, weights = loss.at_negated_margins(-margins)
    value = float(np.sum(terms))
    initial_value = prev_value = value
    eff_beta = loss.smoothness(margins)
    n_iters = 0
    for k in range(config.max_iters + 1):
        if k % config.record_every == 0:
            snapshot(k, w, margins, value)
        grad = -weights @ signed
        if np.linalg.norm(grad) <= config.grad_tol:
            n_iters = k
            break
        if k == config.max_iters:
            n_iters = k
            break
        w = w - config.step_size * grad
        margins = signed @ w
        terms, weights = loss.at_negated_margins(-margins)
        value = float(np.sum(terms))
        if not np.isfinite(value) or value > DIVERGENCE_FACTOR * initial_value:
            raise DivergenceError(
                f"loss reached {value:g} at iteration {k + 1} "
                f"(started at {initial_value:g}); reduce step_size"
            )
        if value > prev_value:
            eff_beta = max(eff_beta, loss.smoothness(margins))
            safe = 2.0 / (eff_beta * smax2)
            if config.step_size > safe:
                raise DivergenceError(
                    f"loss increased at iteration {k + 1} and step_size "
                    f"{config.step_size:g} exceeds the local stability "
                    f"bound {safe:g}"
                )
        prev_value = value
    if ts[-1] != n_iters:
        snapshot(n_iters, w, margins, value)
    return (w, np.asarray(ts), np.asarray(values), np.asarray(norms),
            np.asarray(margin_list), np.asarray(dirs), eff_beta)


def _reference_classification(x, y, loss, config, w0):
    return _reference_classification_run(x, y, loss, config, w0)[:6]


def _least_squares_problem(with_w0=True, **config):
    """Four rows in seven unknowns at 0.9 of the stable step, from a random
    start or from zero; ``config`` overrides the GDConfig fields."""
    rng = substream(31, "gd-reference-ls")
    x = rng.standard_normal((4, 7))
    y = rng.standard_normal(4)
    w0 = rng.standard_normal(7)
    fields = dict(step_size=0.9 / svd(x).s_max ** 2, max_iters=3000, grad_tol=0.0) | config
    return x, y, GDConfig(**fields), w0 if with_w0 else None


def _assert_least_squares_matches(problem):
    """Run ``problem`` through ``gd_least_squares`` and the reference loop
    and compare bit for bit."""
    x, y, config, w0 = problem
    run = gd_least_squares(x, y, config, w0=w0)
    w, converged, n_iters = _reference_least_squares(x, y, config, w0)
    assert (run.converged, run.n_iters) == (converged, n_iters)
    np.testing.assert_array_equal(_bits(run.w), _bits(w))
    return run


@pytest.mark.parametrize("grad_tol", [0.0, 1e-6])
def test_least_squares_loop_matches_the_reference_bit_for_bit(grad_tol):
    run = _assert_least_squares_matches(_least_squares_problem(grad_tol=grad_tol))
    assert run.converged == (grad_tol > 0)


def _separable_problem(loss_name, **config):
    """Twelve points with an intercept column, a small random start and
    half the stable step; ``config`` overrides the GDConfig fields."""
    rng = substream(32, "gd-reference-cls")
    y = np.where(rng.uniform(size=12) < 0.5, -1.0, 1.0)
    x = rng.standard_normal((12, 3)) + 0.8 * y[:, None]
    x[:, 2] = 1.0  # an intercept column
    loss = get_loss(loss_name)
    w0 = 0.1 * rng.standard_normal(3)
    step = 0.5 * max_stable_step(x, loss.beta or loss.smoothness(x * y[:, None] @ w0))
    fields = dict(step_size=step, max_iters=1500, grad_tol=0.0, record_every=11) | config
    return x, y, loss, GDConfig(**fields), w0


def _assert_matches_the_reference(problem):
    """Run ``problem`` through both loops and compare every field bit for bit."""
    x, y, loss, config, w0 = problem
    run = gd_classification(x, y, loss, config, w0=w0)
    w, t, values, norms, margins, dirs, eff_beta = _reference_classification_run(
        x, y, loss, config, w0
    )
    assert run.n_iters == t[-1]
    assert run.effective_smoothness == eff_beta
    np.testing.assert_array_equal(run.w, w)
    np.testing.assert_array_equal(run.t, t)
    np.testing.assert_array_equal(run.loss, values)
    np.testing.assert_array_equal(run.w_norm, norms)
    np.testing.assert_array_equal(run.min_margin, margins)
    np.testing.assert_array_equal(run.directions, dirs)
    return run


@pytest.mark.parametrize("loss_name", ["logistic", "exponential"])
@pytest.mark.parametrize("grad_tol", [0.0, 0.1])
def test_classification_loop_matches_the_reference_bit_for_bit(loss_name, grad_tol):
    run = _assert_matches_the_reference(_separable_problem(loss_name, grad_tol=grad_tol))
    assert (run.n_iters < 1500) == (grad_tol > 0)


def _unstable_exponential_problem(seed, fraction):
    """A small exponential-loss problem whose step is ``fraction`` of the
    bound at ``w0``, large enough that the loss can rise along the way."""
    rng = substream(seed, "gd-reference-branch")
    n = int(rng.integers(3, 10))
    y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    x = rng.standard_normal((n, 2)) + 0.8 * y[:, None]
    w0 = rng.standard_normal(2)
    loss = get_loss("exponential")
    beta0 = loss.smoothness(x * y[:, None] @ w0)
    step = fraction * max_stable_step(x, beta0)
    config = GDConfig(step_size=step, max_iters=200, grad_tol=0.0, record_every=7)
    return x, y, loss, config, w0, beta0


@pytest.mark.parametrize("seed, fraction", [(212, 0.696), (257, 0.344)])
def test_reestimating_run_matches_the_reference_bit_for_bit(seed, fraction):
    # The loss rises at some step, the smoothness is re-estimated there,
    # and the step stays inside the new bound, so the run goes on.
    x, y, loss, config, w0, beta0 = _unstable_exponential_problem(seed, fraction)
    run = _assert_matches_the_reference((x, y, loss, config, w0))
    # Only a rise in the loss re-estimates the smoothness.
    assert run.effective_smoothness > beta0


def _opposing_points():
    # Two opposing points give loss 2 cosh(w); step 2 from w = 3 jumps
    # past the loss backstop on the first step.
    x = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 1.0])
    config = GDConfig(step_size=2.0, max_iters=50, grad_tol=0.0, record_every=1)
    return x, y, get_loss("exponential"), config, np.array([3.0])


@pytest.mark.parametrize(
    "problem, message",
    [
        (lambda: _unstable_exponential_problem(11, 2.633)[:5], "loss increased at iteration"),
        (lambda: _unstable_exponential_problem(63, 0.884)[:5], "loss increased at iteration"),
        (_opposing_points, "loss reached"),
    ],
)
def test_divergence_matches_the_reference(problem, message):
    # Both loops raise at the same iteration with the same message.
    x, y, loss, config, w0 = problem()
    with pytest.raises(DivergenceError) as expected:
        _reference_classification(x, y, loss, config, w0)
    with pytest.raises(DivergenceError) as raised:
        gd_classification(x, y, loss, config, w0=w0)
    assert str(expected.value).startswith(message)
    assert str(raised.value) == str(expected.value)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# The block engine against the reference loop, which checks every step.
# Events are put on a chosen row of a block by setting the block size.

B = descent.BLOCK_STEPS


def _put_step_on_block_row(monkeypatch, step, row):
    """Size the blocks so that ``step`` is on the first row of a block, a
    middle one (of the second block, for a step past 3) or the last."""
    size = {"first": step - 1 or B, "middle": 2 * step // 3, "last": step}[row]
    assert size * 12 <= descent.BLOCK_ELEMENTS  # no budget cap on these problems
    monkeypatch.setattr(descent, "BLOCK_STEPS", size)


@pytest.mark.parametrize("loss_name", ["logistic", "exponential"])
@pytest.mark.parametrize("max_iters", [1, B - 1, B, B + 1, 3 * B + 7])
def test_runs_ending_on_each_side_of_a_block_boundary_match(loss_name, max_iters):
    run = _assert_matches_the_reference(_separable_problem(loss_name, max_iters=max_iters))
    assert run.n_iters == max_iters


@pytest.mark.parametrize("record_every", [1, 7, B, B + 3])
def test_records_across_block_boundaries_match(record_every):
    problem = _separable_problem("logistic", max_iters=3 * B + 7, record_every=record_every)
    run = _assert_matches_the_reference(problem)
    assert run.t[1] == min(record_every, 3 * B + 7)


@pytest.mark.parametrize("loss_name", ["logistic", "exponential"])
@pytest.mark.parametrize("row", ["first", "middle", "last"])
def test_gradient_stop_on_a_block_row_matches(monkeypatch, loss_name, row):
    stop = _reference_classification(*_separable_problem(loss_name, grad_tol=0.1))[1][-1]
    assert 1 < stop < 1500
    _put_step_on_block_row(monkeypatch, stop, row)
    run = _assert_matches_the_reference(_separable_problem(loss_name, grad_tol=0.1))
    assert run.n_iters == stop


@pytest.mark.parametrize("with_w0", [True, False])
@pytest.mark.parametrize("max_iters", [1, B - 1, B, B + 1, 3 * B + 7])
def test_least_squares_runs_ending_on_each_side_of_a_block_boundary_match(with_w0, max_iters):
    run = _assert_least_squares_matches(_least_squares_problem(with_w0, max_iters=max_iters))
    assert (run.converged, run.n_iters) == (False, max_iters)


@pytest.mark.parametrize("with_w0", [True, False])
@pytest.mark.parametrize("row", ["first", "middle", "last"])
def test_least_squares_gradient_stop_on_a_block_row_matches(monkeypatch, with_w0, row):
    problem = _least_squares_problem(with_w0, grad_tol=1e-4)
    x, y, config, w0 = problem
    stop = _reference_least_squares(*problem)[2]
    assert 3 < stop < config.max_iters
    _put_step_on_block_row(monkeypatch, stop, row)
    run = _assert_least_squares_matches(problem)
    assert (run.converged, run.n_iters) == (True, stop)
    # A run whose last step passes the gradient test has converged.
    run = _assert_least_squares_matches((x, y, replace(config, max_iters=stop), w0))
    assert (run.converged, run.n_iters) == (True, stop)


@pytest.mark.parametrize("errstate", [{"all": "raise"}, {"under": "raise"}])
def test_least_squares_faults_past_the_stop_leave_the_reference_run(errstate):
    # r_k = -1e-150 / 2^k: the gradient test passes at step 7, and the
    # squares of the residuals underflow from step 13, inside the block
    # that holds step 7.  That block faults and is redone a step at a time.
    x, y = np.array([[1.0]]), np.array([1e-150])
    config = GDConfig(step_size=0.5, max_iters=B + 1, grad_tol=1e-152)
    with np.errstate(**errstate):
        with pytest.raises(FloatingPointError, match="underflow"):
            _reference_least_squares(x, y, replace(config, grad_tol=0.0), None)
        run = _assert_least_squares_matches((x, y, config, None))
    assert (run.converged, run.n_iters) == (True, 7)


def test_least_squares_on_no_samples_stops_at_the_start():
    run = gd_least_squares(np.zeros((0, 3)), [], GDConfig(step_size=0.5), w0=[1.0, -2.0, 3.0])
    assert (run.converged, run.n_iters) == (True, 0)
    np.testing.assert_array_equal(run.w, [1.0, -2.0, 3.0])


def test_a_wide_least_squares_run_holds_no_block_of_weight_rows():
    # A block of 64 rows of 100000 weights and gradients would be 100 MB;
    # the rows are capped by BLOCK_ELEMENTS, as the rows of margins are.
    x = np.vstack([np.ones(100_000), np.linspace(-1.0, 1.0, 100_000)])
    config = GDConfig(step_size=0.9 / svd(x).s_max ** 2, max_iters=3, grad_tol=0.0)
    tracemalloc.start()
    try:
        gd_least_squares(x, [1.0, 2.0], config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * x.nbytes


def test_polyfit_by_gradient_descent_is_the_reference_loop():
    # The sample of test_gradient_descent_fit_agrees_with_pseudo_inverse,
    # whose benign design converges well inside GD_MAX_ITERS.
    rng = substream(63, "gd-vs-pinv")
    xs = rng.uniform(-1.0, 1.0, 40)
    ys = rng.standard_normal(40)
    design = polyfit.legendre_design(xs, 8)
    config = GDConfig(0.9 / svd(design).s_max ** 2, polyfit.GD_MAX_ITERS, polyfit.GD_GRAD_TOL)
    w, converged, _ = _reference_least_squares(design, ys, config, None)
    assert converged
    coef = polyfit.fit_poly_min_norm(xs, ys, 8, via="gradient_descent")
    np.testing.assert_array_equal(_bits(coef), _bits(w))


def _reference_error(problem):
    with pytest.raises(DivergenceError) as expected:
        _reference_classification(*problem)
    return str(expected.value)


def _opposing_points_for_a_block():
    # _opposing_points with a block of steps after its divergence at step 1.
    x, y, loss, config, w0 = _opposing_points()
    return x, y, loss, replace(config, max_iters=B), w0


def _overflowing_points():
    # Two points on one side and one on the other under a 1e308 step: the
    # loss passes the backstop at step 1, and the step after next would
    # overflow w; the reference loop never reaches it.
    x = np.array([[1.0], [1.0], [-1.0]])
    config = GDConfig(step_size=1e308, max_iters=B, grad_tol=0.0, record_every=1)
    return x, np.ones(3), get_loss("logistic"), config, np.zeros(1)


class _SteepLoss:
    """The exponential loss's terms with the weights ``exp(14 min(v, 50))``,
    which are not their slope: a made-up loss whose gradient overflows
    at margins where the loss itself is finite."""

    name, beta, weights_sign = "steep", None, 1.0
    smoothness = ExponentialLoss().smoothness

    def at_negated_margins(self, v):
        terms = np.exp(np.minimum(v, -descent.MARGIN_CLAMP))
        return terms, np.exp(14.0 * np.minimum(v, -descent.MARGIN_CLAMP))

    def at_negated_margins_into(self, v, terms, scratch):
        terms[:], scratch[:] = self.at_negated_margins(v)
        return scratch


def _steep_points():
    # Two opposing points 1e5 from the origin: step 1 takes the margins
    # from -+0.01 to past -+50, so the loss passes the backstop there,
    # and the gradient at step 1, which the reference loop takes only
    # after that check, overflows.
    x, y, _, config, _ = _opposing_points_for_a_block()
    config = replace(config, step_size=1.8e-8)
    return 1e5 * x, y, _SteepLoss(), config, np.array([1e-7])


_DIVERGING = {
    "seed-11": lambda: _unstable_exponential_problem(11, 2.633)[:5],
    "seed-63": lambda: _unstable_exponential_problem(63, 0.884)[:5],
    "opposing": _opposing_points_for_a_block,
    "overflowing": _overflowing_points,
    "steep": _steep_points,
}


@pytest.mark.parametrize("name", list(_DIVERGING))
@pytest.mark.parametrize("row", ["first", "last"])
def test_divergence_on_a_block_row_matches(monkeypatch, name, row):
    message = _reference_error(_DIVERGING[name]())
    step = int(re.search(r"at iteration (\d+)", message).group(1))
    _put_step_on_block_row(monkeypatch, step, row)
    x, y, loss, config, w0 = _DIVERGING[name]()
    with pytest.raises(DivergenceError) as raised:
        gd_classification(x, y, loss, config, w0=w0)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "problem, errstate",
    [
        # Past its divergence _opposing_points underflows, never overflows.
        (_opposing_points_for_a_block, {"all": "raise"}),
        (_overflowing_points, {"over": "raise", "divide": "raise", "invalid": "raise"}),
        (_steep_points, {"over": "raise"}),
    ],
    ids=["opposing-underflow", "overflowing", "steep"],
)
def test_faults_past_a_divergence_leave_the_reference_error(problem, errstate):
    x, y, loss, config, w0 = problem()
    with np.errstate(**errstate):
        message = _reference_error(problem())
        with pytest.raises(DivergenceError) as raised:
            gd_classification(x, y, loss, config, w0=w0)
    assert str(raised.value) == message


def _warnings_and_outcome(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
            outcome = None
        except DivergenceError as exc:
            outcome = str(exc)
    return [(w.category, str(w.message)) for w in caught], outcome


@pytest.mark.parametrize("name", list(_DIVERGING))
def test_no_warning_the_reference_does_not_emit(name):
    # Under the default errstate a fault warns; the block that computes
    # steps past the divergence must not.
    x, y, loss, config, w0 = _DIVERGING[name]()
    expected = _warnings_and_outcome(lambda: _reference_classification(x, y, loss, config, w0))
    got = _warnings_and_outcome(lambda: gd_classification(x, y, loss, config, w0=w0))
    assert got == expected


@pytest.mark.parametrize("n", [1, 7, 50, 129, 5000])
def test_reducing_the_rows_together_sums_each_row_alone(n):
    # The loss values of a block come from one reduction along rows 1..8
    # of a buffer, written into a slice.
    terms = np.exp(substream(n, "row-sums").standard_normal((9, n)) * 20.0)
    together = np.empty(9)
    np.add.reduce(terms[1:], axis=1, out=together[1:])
    for i in range(1, 9):
        assert _bits(together[i]) == _bits(np.add.reduce(terms[i]))
    np.add.reduce(terms[1:2], axis=1, out=together[:1])
    assert _bits(together[0]) == _bits(together[1])


@pytest.mark.parametrize("seed, fraction", [(212, 0.696), (257, 0.344)])
@pytest.mark.parametrize("row", ["first", "last"])
def test_rise_across_a_block_boundary_matches(monkeypatch, seed, fraction, row):
    # The first rise compares the loss on one side of a block boundary
    # with the loss on the other ("first"), or ends a block ("last").
    x, y, loss, config, w0, _ = _unstable_exponential_problem(seed, fraction)
    values = _reference_classification(x, y, loss, replace(config, record_every=1), w0)[2]
    rise = int(np.flatnonzero(np.diff(values) > 0)[0]) + 1
    _put_step_on_block_row(monkeypatch, rise, row)
    _assert_matches_the_reference((x, y, loss, config, w0))


@settings(max_examples=200, deadline=None)
@given(
    v=hnp.arrays(
        np.float64,
        st.integers(1, 12),
        elements=st.one_of(
            st.floats(allow_nan=False),
            st.floats(-60.0, 60.0),  # around the exponential clamp at 50
            st.floats(-1e300, 1e300),
        ),
    )
)
def test_negated_margin_pieces_match_the_margin_form(v):
    # The step loop's one call on the loss stands in for the losses and
    # their negated derivatives at the margins u = -v, written out here;
    # any bit of difference would move the trajectory.  The logistic
    # weights are pinned to scipy's expit above.
    u = -v
    exp_terms, exp_weights = ExponentialLoss().at_negated_margins(v)
    clamped = np.exp(-np.clip(u, descent.MARGIN_CLAMP, None))
    np.testing.assert_array_equal(_bits(exp_terms), _bits(clamped))
    np.testing.assert_array_equal(_bits(exp_weights), _bits(clamped))
    logistic_terms, _ = LogisticLoss().at_negated_margins(v)
    np.testing.assert_array_equal(_bits(logistic_terms), _bits(np.logaddexp(0.0, -u)))
