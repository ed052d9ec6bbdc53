"""Risk of min-norm regression that sees only a subset of the features.

Data model: ``x ~ N(0, I_d)``, ``y = x^T w + noise_scale * eps`` with
``eps ~ N(0, 1)``.  The learner observes ``p`` of the ``d`` coordinates
(a SubsetSelection), fits minimum-norm least squares of ``y`` on the
sub-design, predicts with zeros on the discarded coordinates, and is
scored by squared prediction error on fresh draws.

For a fixed subset the exact expected risk splits into three regimes.
Writing ``a = ||w_kept||^2`` for the captured signal energy, ``b =
||w_discarded||^2`` for the missed energy, and ``s2`` for the noise
variance:

* ``p <= n - 2``      risk = (b + s2) * (1 + p / (n - p - 1))
* ``n-1 <= p <= n+1`` risk = +inf (the inverse-Wishart factor has no mean)
* ``p >= n + 2``      risk = a * (1 - n/p) + (b + s2) * (1 + n/(p - n - 1))

The expression is affine in ``(a, b)``, so averaging over a uniformly
random size-``p`` subset just substitutes ``a -> (p/d) ||w||^2`` and
``b -> (1 - p/d) ||w||^2``.  That averaged curve is the double-descent
curve: risk climbs toward the interpolation threshold ``p = n``, blows
up in the band around it, and descends again as ``p`` grows past ``n``
(the weak-features model of Belkin, Hsu & Xu, "Two models of double
descent for weak features", 2020).

The +inf band is represented by ``math.inf`` and serialized downstream
as the literal string ``inf``; it is a regime marker, not an overflow.
A Monte Carlo estimator (fresh data and fresh test points per trial,
each trial on its own derived substream) serves as an independent check
on both closed forms.  Its trials run on every usable CPU through
``parallel.map_trials``; the risks are averaged in trial order, so the
estimate does not depend on the CPU count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import min_norm_solve
from .parallel import map_trials
from .seeding import derive_seed, substreams


@dataclass(frozen=True)
class GaussianLinearProblem:
    """Ground truth for the sparsified-regression experiments."""

    w_true: np.ndarray
    noise_scale: float
    n: int

    def __post_init__(self):
        w = np.asarray(self.w_true, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInput(f"w_true must be a nonempty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInput("w_true contains NaN or Inf entries")
        object.__setattr__(self, "w_true", w)
        if not math.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise InvalidInput(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise InvalidInput(f"n must be a positive integer, got {self.n}")

    @property
    def d(self) -> int:
        return self.w_true.size


@dataclass(frozen=True)
class SubsetSelection:
    """A size-``p`` set of kept feature indices out of ``d``."""

    kept: np.ndarray
    d: int

    def __post_init__(self):
        kept = np.asarray(self.kept)
        if kept.ndim != 1:
            raise InvalidInput("kept must be a 1-d index array")
        if kept.size and not np.issubdtype(kept.dtype, np.integer):
            raise InvalidInput(f"kept indices must be integers, got dtype {kept.dtype}")
        kept = np.sort(kept.astype(int))
        if kept.size and (kept[0] < 0 or kept[-1] >= self.d):
            raise InvalidInput(f"kept indices out of range for d = {self.d}")
        if np.any(kept[1:] == kept[:-1]):
            raise InvalidInput("kept indices must be distinct")
        object.__setattr__(self, "kept", kept)

    @property
    def p(self) -> int:
        return int(self.kept.size)

    @classmethod
    def random(cls, d: int, p: int, rng: np.random.Generator) -> "SubsetSelection":
        """Uniformly random subset: shuffle all d indices, take the first p."""
        if not 0 <= p <= d:
            raise InvalidInput(f"p must lie in [0, {d}], got {p}")
        return cls(kept=rng.permutation(d)[:p], d=d)


def fit_subset_min_norm(x, y, sel: SubsetSelection) -> np.ndarray:
    """Min-norm fit on the kept columns, zeros on the discarded ones.

    The returned coefficients live in the full d-dimensional space, so
    they apply to complete feature vectors directly.  An empty subset
    yields the zero vector.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != sel.d:
        raise InvalidInput(f"x must have shape (n, {sel.d}), got {x.shape}")
    coef = np.zeros(sel.d)
    if sel.p > 0:
        coef[sel.kept] = min_norm_solve(x[:, sel.kept], y)
    return coef


def _three_case_risk(a: float, b: float, p: int, n: int, s2: float) -> float:
    if p <= n - 2:
        return (b + s2) * (1.0 + p / (n - p - 1.0))
    if p >= n + 2:
        return a * (1.0 - n / p) + (b + s2) * (1.0 + n / (p - n - 1.0))
    return math.inf


def analytic_risk_fixed_subset(w_true, sel: SubsetSelection, noise_scale: float, n: int) -> float:
    """Exact risk when the learner always regresses on ``sel.kept``.

    ``noise_scale`` is the standard deviation of the additive noise (its
    square enters the formula).  Returns ``math.inf`` inside the band
    ``n - 1 <= p <= n + 1``.
    """
    w = np.asarray(w_true, dtype=float)
    if w.ndim != 1 or w.size != sel.d:
        raise InvalidInput(f"w_true must be a vector of length {sel.d}")
    if noise_scale < 0:
        raise InvalidInput(f"noise_scale must be >= 0, got {noise_scale}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidInput(f"n must be a positive integer, got {n}")
    a = float(np.sum(w[sel.kept] ** 2))
    b = float(np.sum(w**2)) - a
    return _three_case_risk(a, b, sel.p, n, noise_scale**2)


def analytic_risk_random_subset(
    w_norm_sq: float, noise_var: float, d: int, n: int, p: int
) -> float:
    """Risk averaged over a uniformly random size-``p`` subset of features.

    ``noise_var`` is the noise *variance*.  Only the total signal energy
    ``w_norm_sq = ||w||^2`` matters: each coordinate lands in the subset
    with probability ``p/d``, and the fixed-subset formula is affine in
    the split of the energy.
    """
    if w_norm_sq < 0 or noise_var < 0:
        raise InvalidInput("w_norm_sq and noise_var must be >= 0")
    if not (isinstance(d, numbers.Integral) and isinstance(n, numbers.Integral)) or d < 1 or n < 1:
        raise InvalidInput(f"d and n must be positive integers, got {d} and {n}")
    if not isinstance(p, numbers.Integral) or not 0 <= p <= d:
        raise InvalidInput(f"p must be an integer in [0, {d}], got {p}")
    frac = p / d
    return _three_case_risk(frac * w_norm_sq, (1.0 - frac) * w_norm_sq, p, n, noise_var)


def monte_carlo_risk(
    problem: GaussianLinearProblem,
    p: int,
    trials: int,
    test_points: int,
    seed: int,
    subset: SubsetSelection | None = None,
) -> tuple[float, float]:
    """Estimate the risk by training on fresh data and scoring fresh draws.

    Returns the mean risk over the trials and its standard error (inf
    for a single trial).  Each trial uses its own substream derived from
    ``seed`` (training set, noise, test set, and, unless ``subset`` pins
    it, the feature subset), so the estimate is independent of trial
    ordering, and the trials run in contiguous blocks on every usable CPU
    (``parallel.map_trials``).
    """
    d, n = problem.d, problem.n
    if not isinstance(p, numbers.Integral) or not 0 <= p <= d:
        raise InvalidInput(f"p must be an integer in [0, {d}], got {p}")
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise InvalidInput(f"trials must be an integer >= 1, got {trials}")
    if not isinstance(test_points, numbers.Integral) or test_points < 1:
        raise InvalidInput(f"test_points must be an integer >= 1, got {test_points}")
    if subset is not None and (subset.d != d or subset.p != p):
        raise InvalidInput("pinned subset does not match the requested (d, p)")

    w = problem.w_true
    sigma = problem.noise_scale
    risks = np.empty(trials)

    def trial(rng: np.random.Generator) -> float:
        # A function, so that a trial's arrays are freed before the next
        # trial draws its own.
        sel = subset if subset is not None else SubsetSelection.random(d, p, rng)
        x = rng.standard_normal((n, d))
        y = x @ w + sigma * rng.standard_normal(n)
        coef = fit_subset_min_norm(x, y, sel)
        xt = rng.standard_normal((test_points, d))
        yt = xt @ w + sigma * rng.standard_normal(test_points)
        return float(np.mean((yt - xt @ coef) ** 2))

    def chunk(lo: int, hi: int) -> None:
        for i, rng in zip(range(lo, hi), substreams(seed, "sparse-mc-trial", lo, hi)):
            risks[i] = trial(rng)

    map_trials(chunk, trials, risks)

    stderr = float(np.std(risks, ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return float(np.mean(risks)), stderr


@dataclass(frozen=True)
class RiskCurveRow:
    """One point of the risk-vs-p curve: closed form next to Monte Carlo."""

    p: int
    analytic_risk: float
    mc_risk: float
    mc_stderr: float
    trials: int


def risk_curve(
    signal_norm_sq: float,
    noise_var: float,
    d: int,
    n: int,
    p_grid,
    trials: int,
    test_points: int,
    seed: int,
) -> list[RiskCurveRow]:
    """Evaluate analytic and Monte Carlo risk at every ``p`` in the grid.

    ``signal_norm_sq`` is ``||w||^2`` and ``noise_var`` the noise
    variance, as in ``analytic_risk_random_subset``.  Each ``p`` gets its
    own substream family, so adding or reordering grid points does not
    perturb the other rows.
    """
    if d < 1 or not (signal_norm_sq >= 0 and noise_var >= 0):
        raise InvalidInput("need d >= 1, signal_norm_sq >= 0 and noise_var >= 0")
    # The analytic curve depends on w only through its norm; an evenly
    # spread vector realizes that norm without extra randomness.
    problem = GaussianLinearProblem(
        w_true=np.full(d, math.sqrt(signal_norm_sq / d)),
        noise_scale=math.sqrt(noise_var),
        n=n,
    )
    rows = []
    for p in p_grid:
        p = int(p)
        # The analytic column takes the given scalars directly; recovering
        # them from the problem (a sum of d squares, a squared square root)
        # perturbs the last bits and the printed values.
        analytic = analytic_risk_random_subset(signal_norm_sq, noise_var, d, n, p)
        mc_risk, mc_stderr = monte_carlo_risk(
            problem, p, trials, test_points, derive_seed(seed, "risk-curve-p", p)
        )
        rows.append(
            RiskCurveRow(
                p=p,
                analytic_risk=analytic,
                mc_risk=mc_risk,
                mc_stderr=mc_stderr,
                trials=trials,
            )
        )
    return rows
