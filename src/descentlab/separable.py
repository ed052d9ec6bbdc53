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
perceptron or by the dataset's stored witness.
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


@dataclass(frozen=True)
class SeparableDataset:
    """Points, labels, and (optionally) a witness direction.

    The witness is any vector giving every point a strictly positive
    margin; datasets from ``generate_separable`` store the direction
    they were built around.
    """

    points: np.ndarray
    labels: np.ndarray
    witness: np.ndarray | None = None

    def __post_init__(self):
        x, y = _check_labels(self.points, self.labels)
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "labels", y)
        if self.witness is not None:
            w = np.asarray(self.witness, dtype=float)
            if w.shape != (x.shape[1],):
                raise InvalidInput(f"witness has shape {w.shape}, expected ({x.shape[1]},)")
            if np.min(y * (x @ w)) <= 0:
                raise InvalidInput("witness does not separate the dataset")
            object.__setattr__(self, "witness", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def generate_separable(n: int, d: int, margin: float, seed: int) -> SeparableDataset:
    """Sample an origin-separable dataset with margin at least ``margin``.

    A random unit direction ``w*`` is drawn, points and labels are
    sampled independently, and any point whose signed margin falls short
    of ``margin`` is shifted along ``+- w*`` until it sits exactly at
    ``margin``.  The direction is stored as the witness.
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
    return SeparableDataset(points=x, labels=y, witness=w_star)


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


def hard_margin_svm(
    x, y, witness=None, tol: float = 1e-8, max_passes: int = 1_000_000
) -> SVMSolution:
    """Solve the hard-margin SVM through the origin by dual coordinate ascent.

    Separability is certified first (see ``find_separator``); infeasible
    data raise NotSeparableError there.  The ascent then sweeps
    coordinates cyclically, maintaining ``w = sum_i alpha_i y_i x_i``
    incrementally, and stops when the largest projected dual gradient
    falls below ``tol``.  On certified-separable data failure to reach
    ``tol`` within ``max_passes`` is a NumericalFailure, not a
    separability verdict.
    """
    x, y = _check_labels(x, y)
    if tol <= 0:
        raise InvalidInput(f"tol must be > 0, got {tol}")
    sq_norms = np.einsum("ij,ij->i", x, x)
    if np.any(sq_norms == 0):
        # A zero sample can never achieve positive margin.
        raise NotSeparableError("dataset contains the zero vector")
    find_separator(x, y, witness=witness)

    n = x.shape[0]
    alpha = np.zeros(n)
    w = np.zeros(x.shape[1])
    for sweep in range(1, max_passes + 1):
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
        if worst <= tol:
            support = np.flatnonzero(alpha > tol)
            norm = float(np.linalg.norm(w))
            margin = float(np.min(y * (x @ w)) / norm)
            return SVMSolution(
                w=w, alpha=alpha, support=support, margin=margin, n_passes=sweep
            )
    raise NumericalFailure(
        f"dual ascent did not reach tol={tol:g} within {max_passes} passes "
        "on certified-separable data; raise max_passes or tol"
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


@dataclass(frozen=True)
class ImplicitBiasResult:
    """Gradient-descent trajectory next to its max-margin reference.

    ``gap_series[i]`` is the direction gap at the i-th recorded step;
    entries are NaN while ``w_t = 0`` (the direction is undefined there,
    which with ``w0 = 0`` affects exactly the ``t = 0`` record).
    """

    trajectory: ClassificationGD
    svm: SVMSolution
    gap_series: np.ndarray


def implicit_bias_run(
    dataset: SeparableDataset, loss, config: GDConfig, w0=None
) -> ImplicitBiasResult:
    """Run classification GD and measure its drift toward the SVM direction.

    The step size must lie strictly below ``max_stable_step`` for the
    loss's smoothness at ``w0`` (for the exponential loss that constant
    is only local, and the descent engine keeps watching it).
    """
    x, y = dataset.points, dataset.labels
    w_start = np.zeros(dataset.d) if w0 is None else np.asarray(w0, dtype=float)
    beta0 = loss.smoothness(y * (x @ w_start))
    bound = max_stable_step(x, beta0)
    if config.step_size >= bound:
        raise ConfigError(
            f"step_size {config.step_size:g} is not below max_stable_step "
            f"= {bound:g} for the {loss.name} loss at w0"
        )
    svm = hard_margin_svm(x, y, witness=dataset.witness)
    trajectory = gd_classification(x, y, loss, config, w0=w0)
    ref = svm.direction
    gaps = np.full(len(trajectory.t), np.nan)
    for i, direction in enumerate(trajectory.directions):
        if np.any(direction != 0.0):
            gaps[i] = direction_gap(direction, ref)
    return ImplicitBiasResult(trajectory=trajectory, svm=svm, gap_series=gaps)
