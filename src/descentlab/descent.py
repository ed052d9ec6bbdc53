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
for this objective; the stricter bound is enforced up front.  It runs
on the one step engine below, ``_descend``, as a loss (``_SquaredResidual``).

Classification objective: ``L(w) = sum_i loss(y_i x_i^T w)`` for labels
in {-1, +1}.  Stability depends on the loss curvature along the
trajectory, so the engine tracks an effective smoothness constant and
re-checks the step size whenever the loss fails to decrease.

A loss is what the step reads: its ``name``, a global smoothness
``beta`` (None where the curvature is unbounded), ``smoothness(u)``, the
largest curvature at margins ``u``, ``at_negated_margins(v)`` and its
in-place form.  The step runs on the negated margins
``v = -(y_i x_i^T w)``, the quantity both losses exponentiate, and
``at_negated_margins(v)`` returns the per-sample losses
``terms = loss(-v)`` and the gradient weights ``weights = -loss'(-v)``.
``at_negated_margins_into(v, terms, scratch)`` writes the terms into
``terms`` and returns the row, ``terms`` or ``scratch``, that holds
``weights_sign * weights``: the exponential loss's weights are its
terms, and the logistic loss returns ``expm1(-terms)`` without the
negation that would make it the weights.  With ``N`` the matrix of
rows ``-y_i x_i``, formed once, a step is ``v = N w``, that one call,
and the gradient ``(weights_sign * weights) @ (weights_sign * N)``: no
array is negated inside the loop but the logistic loss's own
``-terms``.  Negating a float is exact and rounding to nearest is
symmetric under sign, so ``(-a)(-b) = ab`` and this gives the same bits
as the step written on ``u = -v``.

Steps of either objective run in blocks of up to ``BLOCK_STEPS``, each
step's arrays in a row of preallocated buffers.  A step makes only the
calls that feed the next: the ``w`` update, ``v = N w``, the loss
pieces and the gradient, each written in place.  Once per block,
``np.add.reduce`` along the rows gives every step's loss value, and the
checks are scanned in step order: divergence, a rise in the loss
(which re-estimates the smoothness), the ``record_every`` snapshot and
the gradient stop test.  The first event that ends the run wins, and
the result comes from its row.  The bits are those of a loop that
checks every step: each row comes from the same calls, a reduction
along a row is numpy's pairwise sum of that row alone, and the stop is
decided by the same ``sqrt(g . g) <= grad_tol`` (a batched norm only
picks the rows to test).  The last step of a block takes its gradient
and stop test after its other checks, as that loop does.

A block computes steps past the one that ends the run, and those may
overflow where that loop never went.  So a block runs with every
float fault the caller's ``np.errstate`` does not ignore raised, and a
block that faults is run again one step per block under the caller's
own errstate, the same code at a block size of one.  The run then
raises, warns or diverges exactly where a loop that checks every step
does.
"""

from __future__ import annotations

import math
import numbers
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

# The engine runs its steps in blocks of BLOCK_STEPS, fewer where the
# rows of n margins or of d weights would pass BLOCK_ELEMENTS floats.
# Past a few dozen rows a longer block is no faster, only larger.
BLOCK_STEPS = 64
BLOCK_ELEMENTS = 2**14


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
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ConfigError(f"max_iters must be an integer >= 1, got {self.max_iters}")
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
    weights_sign = 1.0

    def smoothness(self, u: np.ndarray) -> float:
        # loss''(u) = exp(-u) is largest at the smallest clamped margin.
        return max(float(np.max(np.exp(-np.clip(u, MARGIN_CLAMP, None)))), _SMOOTHNESS_FLOOR)

    def at_negated_margins(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``terms = loss(-v)`` and ``weights = -loss'(-v)``, both
        ``exp(min(v, -MARGIN_CLAMP))``, from one ``exp``."""
        e = self.at_negated_margins_into(v, np.empty(np.shape(v)), None)
        return e, e

    def at_negated_margins_into(self, v, terms, scratch):
        """The terms written into ``terms``, which also holds the weights."""
        np.minimum(v, -MARGIN_CLAMP, out=terms)
        return np.exp(terms, out=terms)


class LogisticLoss:
    """``loss(u) = log(1 + exp(-u))``, evaluated without overflow."""

    name = "logistic"
    beta = 0.25
    weights_sign = -1.0

    def smoothness(self, u: np.ndarray) -> float:
        # Curvature is globally capped at 1/4 regardless of the margins.
        return self.beta

    def at_negated_margins(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``terms = loss(-v) = log(1 + exp(v))`` and ``weights =
        -loss'(-v) = 1 / (1 + exp(-v))``, computed as ``1 - exp(-terms)``:
        no overflow, and exactly 1 and 0 at +inf and -inf."""
        terms = np.empty(np.shape(v))
        return terms, -self.at_negated_margins_into(v, terms, np.empty(np.shape(v)))

    def at_negated_margins_into(self, v, terms, scratch):
        """The terms written into ``terms`` and ``expm1(-terms)``, the
        negated weights, into ``scratch``."""
        np.logaddexp(0.0, v, out=terms)
        np.negative(terms, out=scratch)
        return np.expm1(scratch, out=scratch)


@dataclass(frozen=True)
class _SquaredResidual:
    """``0.5 ||X w - y||^2`` as a loss on ``v = X w``: weights ``r = v - y``
    (the gradient ``r @ X`` is ``X^T (X w - y)``), terms ``r^2 / 2`` and
    curvature 1, so under the step gate a rise in the loss never raises."""

    y: np.ndarray

    def smoothness(self, u):
        return 1.0

    def at_negated_margins_into(self, v, terms, scratch):
        np.subtract(v, self.y, out=scratch)
        np.square(scratch, out=terms)
        np.multiply(terms, 0.5, out=terms)
        return scratch


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
    place this is a backstop, not an expected path.  It runs on the one
    step engine (module docstring) and keeps no trajectory: the result
    is the last iterate, whether the gradient test passed, and the step count.
    """
    config.validate()
    x, y = _check_xy(x, y)
    w = _check_w0(x, w0)

    smax2 = svd(x).s_max ** 2
    if smax2 > 0 and config.step_size >= 1.0 / smax2:
        raise ConfigError(
            f"step_size {config.step_size:g} is not below the stability "
            f"limit 1/sigma_max^2 = {1.0 / smax2:g}"
        )

    tol = config.grad_tol * (1.0 + float(np.linalg.norm(x.T @ y)))
    run, stopped = _descend(x, x, _SquaredResidual(y), config, w, smax2, tol, config.max_iters + 1)
    return LeastSquaresGD(w=run.w, converged=stopped, n_iters=run.n_iters)


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
    the initial value, raises DivergenceError.  The steps run in blocks
    (module docstring).
    """
    config.validate()
    record_every = config.record_every
    if not isinstance(record_every, numbers.Integral) or record_every < 1:
        raise ConfigError(f"record_every must be an integer >= 1, got {record_every}")
    x, y = _check_labels(x, y)
    w = _check_w0(x, w0)

    smax2 = svd(x).s_max ** 2
    neg = -(x * y[:, None])  # row i is -y_i x_i, so v = neg @ w
    gmat = loss.weights_sign * neg  # the gradient is signed weights @ gmat
    return _descend(neg, gmat, loss, config, w, smax2, config.grad_tol, record_every)[0]


def _descend(neg, gmat, loss, config, w, smax2, grad_tol, record_every):
    """The steps (module docstring) to ``config.max_iters`` or ``||grad|| <= grad_tol``:
    the run, recorded every ``record_every`` steps, and whether the stop test ended it."""
    ts, losses, norms, margin_list, dirs = [], [], [], [], []

    def snapshot(k, w, margins, value):
        norm = math.sqrt(w @ w)
        ts.append(k)
        losses.append(value)
        norms.append(norm)
        if norm > 0:
            # ``initial``: a least-squares design may have no rows.
            margin_list.append(float(margins.min(initial=math.inf)) / norm)
            dirs.append(w / norm)
        else:
            margin_list.append(0.0)
            dirs.append(np.zeros_like(w))

    # Row 0 of each buffer holds the step a block starts from and rows
    # 1..steps the block's steps.  The lists of row views and the locals
    # spare the step loop numpy's Python-level wrappers and lookups.
    n, d = neg.shape
    rows = max(1, min(BLOCK_STEPS, BLOCK_ELEMENTS // max(n, d, 1)))
    W, G = np.empty((2, rows + 1, d))
    V, T, S = np.empty((3, rows + 1, n))
    vals = np.empty(rows + 1)
    w_, g_, v_, t_, s_ = (list(a) for a in (W, G, V, T, S))
    weights = [None] * (rows + 1)  # the row holding each step's signed weights
    tmp = np.empty(d)
    step_size, max_iters = config.step_size, config.max_iters
    into, dot, add_reduce = loss.at_negated_margins_into, np.dot, np.add.reduce
    multiply, subtract = np.multiply, np.subtract

    def stops(r):
        """The gradient at row ``r`` and the stop test on it."""
        dot(weights[r], gmat, out=g_[r])
        return math.sqrt(dot(g_[r], g_[r])) <= grad_tol

    def compute(steps):
        """Rows 1..steps, each from the calls that feed the next step, and
        their loss values; returns the squared gradient norms of rows
        1..steps-1 (the last row's gradient comes with its checks)."""
        for r in range(1, steps + 1):
            multiply(g_[r - 1], step_size, out=tmp)
            subtract(w_[r - 1], tmp, out=w_[r])
            dot(neg, w_[r], out=v_[r])
            weights[r] = into(v_[r], t_[r], s_[r])
            if r < steps:
                dot(weights[r], gmat, out=g_[r])
        add_reduce(T[1 : steps + 1], axis=1, out=vals[1 : steps + 1])
        return add_reduce(np.square(G[1:steps]), axis=1)

    def scan(steps, grad_sq):
        """Check rows 1..steps, steps k+1..k+steps, in the serial loop's
        order.  Returns the row the run stops at, or None after carrying
        the last row to row 0."""
        nonlocal k, eff_beta
        new = vals[1 : steps + 1]
        last = int((new <= cap).argmin())  # rows 1..last pass the divergence check
        if new[last] <= cap:
            last = steps
        stop = None
        # A batched norm only picks candidates; the stop test decides.
        for i in (grad_sq[:last] <= near_sq).nonzero()[0].tolist():
            if math.sqrt(dot(g_[i + 1], g_[i + 1])) <= grad_tol:
                stop = last = i + 1
                break
        rises = {i + 1 for i in (new[:last] > vals[:last]).nonzero()[0].tolist()}
        first = record_every - k % record_every
        for r in sorted(rises.union(range(first, last + 1, record_every))):
            if r in rises:
                # A convex smooth objective cannot increase under a stable
                # step, so re-estimate the smoothness where we actually are.
                eff_beta = max(eff_beta, loss.smoothness(-v_[r]))
                safe = 2.0 / (eff_beta * smax2)
                if step_size > safe:
                    raise DivergenceError(
                        f"loss increased at iteration {k + r} and step_size "
                        f"{step_size:g} exceeds the local stability "
                        f"bound {safe:g}"
                    )
            if (k + r) % record_every == 0:
                snapshot(k + r, w_[r], -v_[r], float(vals[r]))
        if stop is not None:
            return stop
        if last < steps:
            raise DivergenceError(
                f"loss reached {float(new[last]):g} at iteration {k + last + 1} "
                f"(started at {initial_value:g}); reduce step_size"
            )
        if stops(steps) or k + steps == max_iters:
            return steps
        W[0], G[0], vals[0] = W[steps], G[steps], vals[steps]
        k += steps
        return None

    k = 0
    W[0] = w
    dot(neg, w_[0], out=v_[0])
    weights[0] = into(v_[0], t_[0], s_[0])
    vals[0] = initial_value = float(add_reduce(t_[0]))
    limit = DIVERGENCE_FACTOR * initial_value
    # A loss value, a sum of nonnegative terms, passes the divergence
    # check if it is at most cap: the limit or, where that is inf, the
    # largest float.
    cap = min(limit, np.finfo(float).max)
    # A batched sum of squares and dot(g, g) each lie within d rounding
    # errors of the exact sum, plus underflow's absolute error, so a row
    # the stop test could pass has a batched square norm within near_sq.
    near_tol = grad_tol * (1.0 + 2.0**-20) + 2.0**-500
    near_sq = near_tol * near_tol
    eff_beta = loss.smoothness(-v_[0])
    snapshot(0, w_[0], -v_[0], initial_value)
    end = 0 if stops(0) else None
    # A block runs with every float fault the caller does not ignore
    # raised; a faulting block is redone a step at a time under the
    # caller's own errstate, where it faults as the serial loop would.
    strict = {kind: "ignore" if how == "ignore" else "raise" for kind, how in np.geterr().items()}
    while end is None:
        steps = min(rows, max_iters - k)
        try:
            with np.errstate(**strict):
                grad_sq = compute(steps)
        except FloatingPointError:
            for _ in range(steps):
                end = scan(1, compute(1))
                if end is not None:
                    break
        else:
            end = scan(steps, grad_sq)

    n_iters = k + end
    w = W[end].copy()
    if ts[-1] != n_iters:
        snapshot(n_iters, w, -V[end], float(vals[end]))
    # Every way a run ends has taken the gradient of its last row.
    stopped = math.sqrt(dot(g_[end], g_[end])) <= grad_tol

    return ClassificationGD(
        w=w,
        n_iters=n_iters,
        t=np.asarray(ts),
        loss=np.asarray(losses),
        w_norm=np.asarray(norms),
        min_margin=np.asarray(margin_list),
        directions=np.asarray(dirs),
        effective_smoothness=eff_beta,
    ), stopped
