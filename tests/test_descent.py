"""Tests for the gradient descent engine and the classification losses."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from descentlab import descent
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
    with pytest.raises(ConfigError):
        GDConfig(step_size=0.1, grad_tol=-1.0).validate()
    # record_every is read by gd_classification alone, so only it checks it.
    with pytest.raises(ConfigError, match="record_every must be >= 1, got 0"):
        gd_classification(
            [[1.0]], [1.0], get_loss("logistic"), GDConfig(step_size=0.1, record_every=0)
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
    message = r"^loss grew to 8 at iteration 2 \(started at 0\.5\)$"
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
    """The least-squares loop written with numpy's wrappers, as a reference."""
    x, y, w = np.asarray(x, float), np.asarray(y, float), np.array(w0, float)
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


@pytest.mark.parametrize("grad_tol", [0.0, 1e-6])
def test_least_squares_loop_matches_the_reference_bit_for_bit(grad_tol):
    rng = substream(31, "gd-reference-ls")
    x = rng.standard_normal((4, 7))
    y = rng.standard_normal(4)
    w0 = rng.standard_normal(7)
    config = GDConfig(step_size=0.9 / svd(x).s_max ** 2, max_iters=3000, grad_tol=grad_tol)
    run = gd_least_squares(x, y, config, w0=w0)
    w, converged, n_iters = _reference_least_squares(x, y, config, w0)
    assert (run.converged, run.n_iters) == (converged, n_iters)
    assert converged == (grad_tol > 0)
    np.testing.assert_array_equal(run.w, w)


@pytest.mark.parametrize("loss_name", ["logistic", "exponential"])
@pytest.mark.parametrize("grad_tol", [0.0, 0.1])
def test_classification_loop_matches_the_reference_bit_for_bit(loss_name, grad_tol):
    rng = substream(32, "gd-reference-cls")
    y = np.where(rng.uniform(size=12) < 0.5, -1.0, 1.0)
    x = rng.standard_normal((12, 3)) + 0.8 * y[:, None]
    x[:, 2] = 1.0  # an intercept column
    loss = get_loss(loss_name)
    w0 = 0.1 * rng.standard_normal(3)
    step = 0.5 * max_stable_step(x, loss.beta or loss.smoothness(x * y[:, None] @ w0))
    config = GDConfig(step_size=step, max_iters=1500, grad_tol=grad_tol, record_every=11)
    run = gd_classification(x, y, loss, config, w0=w0)
    w, t, values, norms, margins, dirs = _reference_classification(x, y, loss, config, w0)
    assert run.n_iters == t[-1]
    assert (run.n_iters < config.max_iters) == (grad_tol > 0)
    np.testing.assert_array_equal(run.w, w)
    np.testing.assert_array_equal(run.t, t)
    np.testing.assert_array_equal(run.loss, values)
    np.testing.assert_array_equal(run.w_norm, norms)
    np.testing.assert_array_equal(run.min_margin, margins)
    np.testing.assert_array_equal(run.directions, dirs)


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
    run = gd_classification(x, y, loss, config, w0=w0)
    w, t, values, norms, margins, dirs, eff_beta = _reference_classification_run(
        x, y, loss, config, w0
    )
    # Only a rise in the loss re-estimates the smoothness.
    assert run.effective_smoothness == eff_beta > beta0
    np.testing.assert_array_equal(run.w, w)
    np.testing.assert_array_equal(run.t, t)
    np.testing.assert_array_equal(run.loss, values)
    np.testing.assert_array_equal(run.w_norm, norms)
    np.testing.assert_array_equal(run.min_margin, margins)
    np.testing.assert_array_equal(run.directions, dirs)


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
