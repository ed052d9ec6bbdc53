"""Hard-margin SVM and direction-convergence diagnostics for separable data.

The implicit-bias experiment needs three pieces: datasets that are
linearly separable through the origin with a known margin, a reference
solver for the hard-margin SVM

    min 0.5 ||w||^2   subject to   y_i x_i^T w >= 1,

and a way to measure how far a gradient-descent iterate's direction is
from the SVM direction.  There is no bias term anywhere, so the SVM dual

    max  sum_i a_i - 0.5 || sum_i a_i y_i x_i ||^2,   a_i >= 0,

has no equality constraint coupling the multipliers, and coordinate
ascent on one ``a_i`` at a time is exact and simple: each update has a
closed form, and the iteration converges whenever the data are
separable.  Separability itself is certified first, by a budgeted
perceptron or by a witness direction supplied with the data.
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
from .seeding import substream

# Dual ascent stops once no projected dual gradient exceeds SVM_TOL, which
# is also the multiplier size that counts a point as a support vector.
SVM_TOL = 1e-8
SVM_MAX_PASSES = 1_000_000


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
    here, before any solver spends its budget on the data.
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


def find_separator(x, y, witness=None, max_updates: int = 100_000) -> np.ndarray:
    """Certify separability: budgeted perceptron, then the witness.

    Returns some separating vector.  The perceptron's mistake bound is
    ``(R / gamma)^2``, so the default budget covers any margin down to
    roughly ``R / 300``; genuinely infeasible data exhaust the budget and,
    absent a valid witness, raise NotSeparableError.
    """
    x, y = _check_labels(x, y)
    w = np.zeros(x.shape[1])
    updates = 0
    while updates <= max_updates:
        clean = True
        for i in range(x.shape[0]):
            if y[i] * (x[i] @ w) <= 0:
                w = w + y[i] * x[i]
                updates += 1
                clean = False
                if updates > max_updates:
                    break
        if clean:
            return w
    if witness is not None:
        witness = np.asarray(witness, dtype=float)
        if witness.shape == (x.shape[1],) and np.min(y * (x @ witness)) > 0:
            return witness
    raise NotSeparableError(
        f"perceptron made {max_updates} updates without separating the "
        "data and no valid witness was supplied"
    )


@dataclass(frozen=True)
class SVMSolution:
    """Primal and dual description of the max-margin separator."""

    w: np.ndarray
    alpha: np.ndarray
    support: np.ndarray  # indices with alpha above tolerance
    margin: float  # geometric margin min_i y_i x_i^T w / ||w||
    n_passes: int

    @property
    def direction(self) -> np.ndarray:
        return self.w / np.linalg.norm(self.w)


def hard_margin_svm(x, y, witness=None) -> SVMSolution:
    """Solve the hard-margin SVM through the origin by dual coordinate ascent.

    Separability is certified first (see ``find_separator``); infeasible
    data raise NotSeparableError there.  The ascent then sweeps
    coordinates cyclically, maintaining ``w = sum_i alpha_i y_i x_i``
    incrementally, and stops when the largest projected dual gradient
    falls below ``SVM_TOL``.  On certified-separable data failure to
    reach ``SVM_TOL`` within ``SVM_MAX_PASSES`` is a NumericalFailure, not
    a separability verdict.
    """
    x, y = _check_labels(x, y)
    sq_norms = np.einsum("ij,ij->i", x, x)
    if np.any(sq_norms == 0):
        # A zero sample can never achieve positive margin.
        raise NotSeparableError("dataset contains the zero vector")
    find_separator(x, y, witness=witness)

    n = x.shape[0]
    alpha = np.zeros(n)
    w = np.zeros(x.shape[1])
    for sweep in range(1, SVM_MAX_PASSES + 1):
        worst = 0.0
        for i in range(n):
            g = 1.0 - y[i] * (x[i] @ w)
            viol = abs(g) if alpha[i] > 0 else max(g, 0.0)
            if viol > worst:
                worst = viol
            if viol == 0.0:
                continue
            new_alpha = max(0.0, alpha[i] + g / sq_norms[i])
            delta = new_alpha - alpha[i]
            if delta != 0.0:
                w = w + delta * y[i] * x[i]
                alpha[i] = new_alpha
        if worst <= SVM_TOL:
            support = np.flatnonzero(alpha > SVM_TOL)
            norm = float(np.linalg.norm(w))
            margin = float(np.min(y * (x @ w)) / norm)
            return SVMSolution(
                w=w, alpha=alpha, support=support, margin=margin, n_passes=sweep
            )
    raise NumericalFailure(
        f"dual ascent did not reach tol={SVM_TOL:g} within {SVM_MAX_PASSES} "
        "passes on certified-separable data"
    )


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
