"""Hard-margin SVM and direction-convergence diagnostics for separable data.

The implicit-bias experiment needs three pieces: datasets that are
linearly separable through the origin with a known margin, a reference
solver for the hard-margin SVM

    min 0.5 ||w||^2   subject to   y_i x_i^T w >= 1,

and a way to measure how far a gradient-descent iterate's direction is
from the SVM direction.  There is no bias term anywhere, so the SVM is a
nearest-point problem (Wolfe 1976): with ``A = diag(y) X``, the point
``u*`` of the convex hull of the rows of ``A`` nearest the origin gives
the solution ``w = u* / ||u*||^2`` and the margin ``||u*||``.  The
origin lies in that hull exactly when no direction through the origin
separates the data (Gordan's theorem), so one finite Lawson-Hanson
(1974) active-set solve, polished on its support and certified, both
decides separability and gives the direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descent import (
    ClassificationGD,
    GDConfig,
    _check_labels,
    gd_classification,
    max_stable_step,
)
from .errors import ConfigError, InvalidInput, NotSeparableError, NumericalFailure
from .linalg import min_norm_solve
from .seeding import substream


def generate_separable(
    n: int, d: int, margin: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample an origin-separable dataset with margin at least ``margin``.

    A random unit direction ``w*`` is drawn, points and labels are
    sampled independently, and any point whose signed margin falls short
    of ``margin`` is shifted along ``+- w*`` until it sits exactly at
    ``margin``.  Returns the points, the +-1 labels and ``w*``, the
    witness direction.  A margin near rounding level can leave some point
    at a computed margin of zero or below; that raises NumericalFailure
    here, before any solve.
    """
    if n < 2:
        raise InvalidInput(f"n must be >= 2, got {n}")
    if d < 1:
        raise InvalidInput(f"d must be >= 1, got {d}")
    if not np.isfinite(margin) or margin <= 0:
        raise InvalidInput(f"margin must be positive and finite, got {margin}")
    rng = substream(seed, "separable-dataset")
    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    x = rng.standard_normal((n, d))
    y = rng.choice((-1.0, 1.0), size=n)
    margins = y * (x @ w_star)
    shortfall = np.clip(margin - margins, 0.0, None)
    x = x + (shortfall * y)[:, None] * w_star
    worst = float(np.min(y * (x @ w_star)))
    if worst <= 0:
        raise NumericalFailure(
            f"margin {margin:g} is below float64 rounding: the witness leaves "
            f"a point at margin {worst:g}"
        )
    return x, y, w_star


@dataclass(frozen=True)
class SVMSolution:
    """Primal and dual description of the max-margin separator."""

    w: np.ndarray
    alpha: np.ndarray
    support: np.ndarray  # indices with alpha > 0
    margin: float  # geometric margin min_i y_i x_i^T w / ||w||
    n_passes: int  # active-set iterations: passive-set least-squares solves

    @property
    def direction(self) -> np.ndarray:
        return self.w / np.linalg.norm(self.w)


def _hull_weights(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``l >= 0`` minimizing ``||A^T l||^2 + (1^T l - 1)^2``, which is the
    hull weights of ``u*`` times ``1 / (1 + ||u*||^2)``, and the number of
    passive-set solves.  Lawson-Hanson on ``E = [A^T; 1^T]``, ``b =
    e_{d+1}``: the index of largest dual ``E^T (b - E l)`` enters while it
    exceeds the rounding level of forming it, and a weight the new
    least-squares solution would make nonpositive stops the step at the
    boundary and leaves.  Finite in exact arithmetic; like Lawson and
    Hanson's own code, this gives up after 3n solves.
    """
    n, d = a.shape
    e = np.vstack([a.T, np.ones(n)])
    b = np.zeros(d + 1)
    b[d] = 1.0
    tol = (n + d + 1) * np.finfo(float).eps * float(np.abs(e).sum(axis=0).max()) ** 2
    l, passive, solves = np.zeros(n), np.zeros(n, dtype=bool), 0
    while solves < 3 * n:
        dual = np.where(passive, -np.inf, e.T @ (b - e @ l))
        j = int(np.argmax(dual))
        if not dual[j] > tol:
            return l, solves
        passive[j] = True
        while True:
            solves += 1
            s = np.zeros(n)
            # A one-member stack: numpy's SVD and linalg's rank cut.
            s[passive] = min_norm_solve(e[None][..., passive], b[None])[0]
            if np.all(s[passive] > 0):
                break
            out = np.flatnonzero(passive & (s <= 0))
            ratios = l[out] / (l[out] - s[out])
            k = int(np.argmin(ratios))
            l += ratios[k] * (s - l)
            l[out[k]] = 0.0
            passive &= l > 0
        l = s
    raise NumericalFailure(f"the max-margin active set did not settle in {3 * n} solves")


def hard_margin_svm(x, y, witness=None) -> SVMSolution:
    """Solve the hard-margin SVM through the origin by one nearest-point solve.

    ``u*`` at zero to rounding raises NotSeparableError.  ``w = u* /
    ||u*||^2`` is polished to the min-norm solution of ``A_S w = 1`` on
    the support ``S`` and certified by its duality gap, or
    NumericalFailure is raised.  No point of the hull is nearer the
    origin than the optimal margin, so ``w``'s margin must reach, less
    ``(n + d) eps max_i ||x_i||``, the norm of ``v``, one Gilbert (1966)
    step from ``u*`` toward the point ``a_k`` of least ``a_k^T u*``, and
    the ``witness``'s margin, when given.  The step finds the nearer of
    two points that the active set's duals cannot tell apart, as at
    ``d = 1`` where ``A_S w = 1`` has no solution for two such points.
    That rounding bound is normwise: ``generate_separable``'s points carry
    the rounding of a shift relative to the point before it.
    """
    x, y = _check_labels(x, y)
    n, d = x.shape
    a = x * y[:, None]
    tol = (n + d) * np.finfo(float).eps * float(np.linalg.norm(x, axis=1).max())
    witness_margin = -np.inf
    if witness is not None:
        witness = np.asarray(witness, dtype=float)
        if witness.shape != (d,) or not np.all(np.isfinite(witness)) or not np.any(witness):
            raise InvalidInput(f"witness must be a finite nonzero vector of length {d}")
        witness_margin = float(np.min(a @ witness) / np.linalg.norm(witness))
    l, solves = _hull_weights(a)
    u = (l @ a) / l.sum()
    if not np.linalg.norm(u) > tol:
        if witness_margin > 0:
            raise NumericalFailure(
                f"the witness separates at margin {witness_margin:g}, but the "
                "max-margin solve cannot tell the hull of the points from the origin"
            )
        raise NotSeparableError(
            "the origin lies in the convex hull of the points y_i x_i: no "
            "direction through the origin separates them"
        )
    support = np.flatnonzero(l > 0)
    w = min_norm_solve(a[None, support], np.ones((1, len(support))))[0]
    margin = float(np.min(a @ w)) / float(np.linalg.norm(w))
    v, step = u, a[np.argmin(a @ u)] - u
    if step @ step > 0:
        v = u + min(max(-(u @ step) / (step @ step), 0.0), 1.0) * step
    bound = max(float(np.linalg.norm(v)), witness_margin)
    if not margin >= bound - tol:
        raise NumericalFailure(
            f"max-margin solve not certified: margin {margin:.17g} is below "
            f"{bound:.17g} by more than rounding"
        )
    alpha = l / (l.sum() * (u @ u))
    return SVMSolution(w=w, alpha=alpha, support=support, margin=margin, n_passes=solves)


def direction_gap(w, reference) -> float:
    """Distance ``|| w/||w|| - r/||r|| ||`` between two directions.

    Zero exactly when the vectors point the same way, 2 when antipodal.
    """
    w = np.asarray(w, dtype=float)
    reference = np.asarray(reference, dtype=float)
    wnorm = np.linalg.norm(w)
    rnorm = np.linalg.norm(reference)
    if wnorm == 0 or rnorm == 0:
        raise InvalidInput("direction_gap needs two nonzero vectors")
    return float(np.linalg.norm(w / wnorm - reference / rnorm))


def implicit_bias_run(
    x, y, loss, config: GDConfig, witness=None
) -> tuple[ClassificationGD, np.ndarray]:
    """Run classification GD from zero and measure its drift toward the
    SVM direction; returns the trajectory and the gap series.

    ``gap_series[i]`` is the direction gap at the i-th recorded step; it
    is NaN while ``w_t = 0``, where the direction is undefined (exactly
    the ``t = 0`` record).  The step size must lie strictly below
    ``max_stable_step`` for the loss's smoothness at ``w = 0`` (for the
    exponential loss that constant is only local, and the descent engine
    keeps watching it).  ``witness`` is handed to ``hard_margin_svm``.
    """
    bound = max_stable_step(x, loss.smoothness(np.zeros(len(y))))
    if config.step_size >= bound:
        raise ConfigError(
            f"step_size {config.step_size:g} is not below max_stable_step "
            f"= {bound:g} for the {loss.name} loss at w = 0"
        )
    ref = hard_margin_svm(x, y, witness=witness).direction
    trajectory = gd_classification(x, y, loss, config)
    gaps = np.full(len(trajectory.t), np.nan)
    for i, direction in enumerate(trajectory.directions):
        if np.any(direction != 0.0):
            gaps[i] = direction_gap(direction, ref)
    return trajectory, gaps
