"""Gradient descent on least squares and on separable classification.

Two regimes share this module because they illustrate the same theme from
opposite ends.  On least squares, gradient descent started inside the row
space of the data converges to the minimum-norm interpolant, exactly the
pseudo-inverse solution.  On linearly separable classification with
exponential-tail losses, the iterates never converge at all: the norm
grows without bound while the *direction* approaches the max-margin
separator.  Least squares is judged by its final iterate alone;
classification records a trajectory to watch the direction settle.

Least-squares objective: ``L(w) = 0.5 ||X w - y||^2`` with gradient
``X^T (X w - y)``.  The step size must stay below ``1 / sigma_max(X)^2``,
comfortably inside the classical ``2 / sigma_max(X)^2`` stability limit
for this objective; the stricter bound is enforced up front.

Classification objective: ``L(w) = sum_i loss(y_i x_i^T w)`` for labels
in {-1, +1}.  Stability depends on the loss curvature along the
trajectory, so the engine tracks an effective smoothness constant and
re-checks the step size whenever the loss fails to decrease.

A loss is what the step reads: its ``name``, a global smoothness
``beta`` (None where the curvature is unbounded), ``smoothness(u)``, the
largest curvature at margins ``u``, and ``at_negated_margins(v)``.  The
step runs on the negated margins ``v = -(y_i x_i^T w)``, the quantity
both losses exponentiate, and ``at_negated_margins(v)`` returns the
per-sample losses ``terms = loss(-v)`` and the gradient weights
``weights = -loss'(-v)``.  With ``N`` the matrix of rows ``-y_i x_i``,
formed once, a step is ``v = N w``, that one call, and the gradient
``weights @ N``: no array is negated inside the loop.  Negating a
float is exact and rounding to nearest is symmetric under sign, so
this gives the same bits as the step written on ``u = -v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, InvalidInput
from .linalg import _as_matrix, kernel_projector, min_norm_solve, svd

# Margins are clamped below at this value before exponentiation so that a
# single badly misclassified point cannot overflow the loss to inf.
MARGIN_CLAMP = -50.0

# A loss exceeding its initial value by this factor means the run has
# left the stable regime, whatever the smoothness estimate claims.
DIVERGENCE_FACTOR = 10.0

_SMOOTHNESS_FLOOR = 1e-12


@dataclass(frozen=True)
class GDConfig:
    """Knobs for a gradient descent run; ``record_every`` applies to
    ``gd_classification`` alone."""

    step_size: float
    max_iters: int = 10_000
    grad_tol: float = 1e-10
    record_every: int = 100

    def validate(self) -> None:
        if not np.isfinite(self.step_size) or self.step_size <= 0:
            raise ConfigError(f"step_size must be positive and finite, got {self.step_size}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise ConfigError(f"grad_tol must be >= 0, got {self.grad_tol}")


class ExponentialLoss:
    """``loss(u) = exp(-u)`` with margins clamped below at MARGIN_CLAMP.

    Curvature is unbounded below, so ``beta`` is None (declared
    unbounded); ``smoothness`` reports the largest curvature at the
    supplied margins instead, which is only a local constant.
    """

    name = "exponential"
    beta = None

    def smoothness(self, u: np.ndarray) -> float:
        # loss''(u) = exp(-u) is largest at the smallest clamped margin.
        return max(float(np.max(np.exp(-np.clip(u, MARGIN_CLAMP, None)))), _SMOOTHNESS_FLOOR)

    def at_negated_margins(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``terms = loss(-v)`` and ``weights = -loss'(-v)``, both
        ``exp(min(v, -MARGIN_CLAMP))``, from one ``exp``."""
        e = np.exp(np.minimum(v, -MARGIN_CLAMP))
        return e, e


class LogisticLoss:
    """``loss(u) = log(1 + exp(-u))``, evaluated without overflow."""

    name = "logistic"
    beta = 0.25

    def smoothness(self, u: np.ndarray) -> float:
        # Curvature is globally capped at 1/4 regardless of the margins.
        return self.beta

    def at_negated_margins(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``terms = loss(-v) = log(1 + exp(v))`` and ``weights =
        -loss'(-v) = 1 / (1 + exp(-v))``, computed as ``1 - exp(-terms)``:
        no overflow, and exactly 1 and 0 at +inf and -inf."""
        terms = np.logaddexp(0.0, v)
        return terms, -np.expm1(-terms)


_LOSSES = {
    ExponentialLoss.name: ExponentialLoss,
    LogisticLoss.name: LogisticLoss,
}


def get_loss(name: str):
    try:
        return _LOSSES[name]()
    except KeyError:
        raise InvalidInput(
            f"unknown loss {name!r}; expected one of {sorted(_LOSSES)}"
        ) from None


def max_stable_step(x, beta: float) -> float:
    """Step-size bound ``2 / (beta * sigma_max(X)^2)`` for beta-smooth losses."""
    if not np.isfinite(beta) or beta <= 0:
        raise InvalidInput(f"beta must be positive and finite, got {beta}")
    smax = svd(x).s_max
    if smax == 0:
        raise InvalidInput("zero matrix has no finite stability bound")
    return 2.0 / (beta * smax**2)


@dataclass(frozen=True)
class LeastSquaresGD:
    """Outcome of gradient descent on the squared-error objective."""

    w: np.ndarray
    converged: bool
    n_iters: int


@dataclass(frozen=True)
class ClassificationGD:
    """Recorded trajectory of gradient descent on a classification loss.

    ``directions`` holds the unit vector ``w / ||w||`` at each recorded
    iteration (a zero row while ``w = 0``), and ``min_margin`` is the
    smallest normalized margin ``min_i y_i x_i^T w / ||w||``.
    """

    w: np.ndarray
    n_iters: int
    t: np.ndarray
    loss: np.ndarray
    w_norm: np.ndarray
    min_margin: np.ndarray
    directions: np.ndarray
    effective_smoothness: float


def _check_xy(x, y):
    x = _as_matrix(x)
    y = np.asarray(y, dtype=float)
    if y.shape != (x.shape[0],):
        raise InvalidInput(f"y has shape {y.shape}, expected ({x.shape[0]},)")
    if not np.all(np.isfinite(y)):
        raise InvalidInput("y contains NaN or Inf entries")
    return x, y


def _check_labels(x, y):
    """``_check_xy`` for classification: labels must be -1 or +1."""
    x, y = _check_xy(x, y)
    if not np.all(np.abs(y) == 1.0):
        raise InvalidInput(f"labels must be -1/+1, got values {sorted(set(y.tolist()))}")
    return x, y


def _check_w0(x, w0):
    w = np.zeros(x.shape[1]) if w0 is None else np.array(w0, dtype=float)
    if w.shape != (x.shape[1],):
        raise InvalidInput(f"w0 has shape {w.shape}, expected ({x.shape[1]},)")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("w0 contains NaN or Inf entries")
    return w


def gd_least_squares(x, y, config: GDConfig, w0=None) -> LeastSquaresGD:
    """Run gradient descent on ``0.5 ||X w - y||^2`` from ``w0`` (default 0).

    Stops when ``||grad|| <= grad_tol * (1 + ||X^T y||)`` or after
    ``max_iters`` steps.  Step sizes at or above ``1 / sigma_max(X)^2``
    are rejected with ConfigError.  A loss exceeding ten times its
    initial value raises DivergenceError; with the step-size gate in
    place this is a backstop, not an expected path.  No trajectory is
    kept: the result is the last iterate, whether the gradient test
    passed, and the step count.
    """
    config.validate()
    x, y = _check_xy(x, y)
    w = _check_w0(x, w0)

    smax = svd(x).s_max
    if smax > 0 and config.step_size >= 1.0 / smax**2:
        raise ConfigError(
            f"step_size {config.step_size:g} is not below the stability "
            f"limit 1/sigma_max^2 = {1.0 / smax**2:g}"
        )

    grad_scale = 1.0 + float(np.linalg.norm(x.T @ y))
    # The step loop reads only locals: for small problems the attribute
    # lookups and numpy's Python-level wrappers cost more than the
    # arithmetic.  math.sqrt(g @ g) is exactly np.linalg.norm(g) for a
    # real vector, so the iterates are unchanged.
    step_size, max_iters = config.step_size, config.max_iters
    grad_limit = config.grad_tol * grad_scale
    converged = False
    n_iters = 0
    initial_value = None
    for k in range(max_iters + 1):
        resid = x @ w - y
        value = 0.5 * float(resid @ resid)
        if initial_value is None:
            initial_value = value
        elif value > DIVERGENCE_FACTOR * initial_value:
            raise DivergenceError(
                f"loss grew to {value:g} at iteration {k} "
                f"(started at {initial_value:g})"
            )
        grad = x.T @ resid
        if math.sqrt(grad @ grad) <= grad_limit:
            converged = True
            n_iters = k
            break
        if k == max_iters:
            n_iters = k
            break
        w = w - step_size * grad
    return LeastSquaresGD(w=w, converged=converged, n_iters=n_iters)


def gd_limit_point(x, y, w0=None) -> np.ndarray:
    """Closed-form limit of stable gradient descent on least squares.

    The iteration leaves the component of ``w0`` in ``ker(X)`` untouched
    and drives the row-space component to the minimum-norm solution, so
    the limit is ``P_ker(X) w0 + pinv(X) y``.  With ``w0 = 0`` this is
    the minimum-norm interpolant itself.
    """
    x, y = _check_xy(x, y)
    base = min_norm_solve(x, y)
    if w0 is None:
        return base
    return kernel_projector(x) @ _check_w0(x, w0) + base


def gd_classification(x, y, loss, config: GDConfig, w0=None) -> ClassificationGD:
    """Gradient descent on ``sum_i loss(y_i x_i^T w)`` for labels +-1.

    The run records ``(t, loss, ||w||, direction, min normalized margin)``
    every ``record_every`` iterations.  On separable data the iterates do
    not converge (the norm keeps growing), so the run simply stops at
    ``max_iters``.  If the loss increases, the local smoothness is
    re-estimated; a step size above the implied bound
    ``2 / (beta * sigma_max^2)``, or a loss past DIVERGENCE_FACTOR times
    the initial value, raises DivergenceError.
    """
    config.validate()
    if config.record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {config.record_every}")
    x, y = _check_labels(x, y)
    w = _check_w0(x, w0)

    smax2 = svd(x).s_max ** 2
    neg = -(x * y[:, None])  # row i is -y_i x_i, so v = neg @ w

    ts, losses, norms, margin_list, dirs = [], [], [], [], []

    def snapshot(k, w, margins, value):
        norm = math.sqrt(w @ w)
        ts.append(k)
        losses.append(value)
        norms.append(norm)
        if norm > 0:
            margin_list.append(float(margins.min()) / norm)
            dirs.append(w / norm)
        else:
            margin_list.append(0.0)
            dirs.append(np.zeros_like(w))

    # The step loop works on the negated margins (module docstring) and
    # reads only locals: np.dot and np.add.reduce skip numpy's
    # Python-level wrappers, math.sqrt(g . g) is exactly np.linalg.norm(g),
    # and math.isfinite tests the Python float.
    step_size, max_iters, record_every = config.step_size, config.max_iters, config.record_every
    grad_tol = config.grad_tol
    at_negated_margins, dot, add_reduce = loss.at_negated_margins, np.dot, np.add.reduce
    v = dot(neg, w)
    terms, weights = at_negated_margins(v)
    value = float(add_reduce(terms))
    initial_value = value
    prev_value = value
    eff_beta = loss.smoothness(-v)
    n_iters = 0
    for k in range(max_iters + 1):
        if k % record_every == 0:
            snapshot(k, w, -v, value)
        grad = dot(weights, neg)
        if math.sqrt(dot(grad, grad)) <= grad_tol:
            n_iters = k
            break
        if k == max_iters:
            n_iters = k
            break
        w = w - step_size * grad
        v = dot(neg, w)
        terms, weights = at_negated_margins(v)
        value = float(add_reduce(terms))
        if not math.isfinite(value) or value > DIVERGENCE_FACTOR * initial_value:
            raise DivergenceError(
                f"loss reached {value:g} at iteration {k + 1} "
                f"(started at {initial_value:g}); reduce step_size"
            )
        if value > prev_value:
            # A convex smooth objective cannot increase under a stable
            # step, so re-estimate the smoothness where we actually are.
            eff_beta = max(eff_beta, loss.smoothness(-v))
            safe = 2.0 / (eff_beta * smax2)
            if step_size > safe:
                raise DivergenceError(
                    f"loss increased at iteration {k + 1} and step_size "
                    f"{step_size:g} exceeds the local stability "
                    f"bound {safe:g}"
                )
        prev_value = value
    if ts[-1] != n_iters:
        snapshot(n_iters, w, -v, value)

    return ClassificationGD(
        w=w,
        n_iters=n_iters,
        t=np.asarray(ts),
        loss=np.asarray(losses),
        w_norm=np.asarray(norms),
        min_margin=np.asarray(margin_list),
        directions=np.asarray(dirs),
        effective_smoothness=eff_beta,
    )
