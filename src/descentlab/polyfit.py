"""Legendre polynomial regression and the bias-variance decomposition.

The basis is evaluated by the Bonnet recurrence

    (k+1) P_{k+1}(x) = (2k+1) x P_k(x) - k P_{k-1}(x),

which is numerically stable on [-1, 1] where |P_k| <= 1; inputs outside
that interval are rejected.  Fitting is minimum-norm least squares in this
basis, either through the pseudo-inverse or through gradient descent
from zero; the two agree because gradient descent from the origin
converges to the min-norm solution.

The striking demo: with n = 20 noisy samples of a cubic, the min-norm
fit of degree 1000 tracks the cubic more closely than the degree-20 fit,
which interpolates the noise wildly.  Capacity, measured as parameter
count, stops being the right complexity axis exactly here.

The bias-variance decomposition fits its trials in blocks of
``BLOCK_TRIALS``, one basis recurrence and one stacked SVD per block.
An estimator takes a block's ``(B, n)`` samples and targets and returns
its fits on the probe grid ``PROBE``, broadcastable to
``(B, PROBE.size)``.  Each trial has its own random substream (each
process's trials get theirs from one ``seeding.substreams``), and the
blocks are spread over forked children (``parallel.map_trials``), so
neither the block size nor the CPU count changes a result.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput
from .linalg import min_norm_solve, svd
from .parallel import map_trials
from .seeding import substream, substreams

# The gradient-descent route of fit_poly_min_norm stops at this relative
# gradient norm, or after this many steps.
GD_MAX_ITERS = 100_000
GD_GRAD_TOL = 1e-12


def legendre_design(xs, degree: int) -> np.ndarray:
    """Evaluate the Legendre basis up to ``degree`` at points in [-1, 1].

    The design has shape ``xs.shape + (degree + 1,)``: entry k of the
    last axis holds P_k at each point.  A ``(B, n)`` stack of sample
    vectors thus gives the ``(B, n, degree + 1)`` stack of their design
    matrices from one pass of the recurrence.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise InvalidInput("xs contains NaN or Inf entries")
    if xs.size and (np.min(xs) < -1.0 or np.max(xs) > 1.0):
        raise InvalidInput("xs must lie in [-1, 1]")
    if not isinstance(degree, numbers.Integral) or degree < 0:
        raise InvalidInput(f"degree must be a nonnegative integer, got {degree}")

    design = np.empty(xs.shape + (degree + 1,))
    design[..., 0] = 1.0
    if degree >= 1:
        design[..., 1] = xs
    for k in range(1, degree):
        design[..., k + 1] = ((2 * k + 1) * xs * design[..., k] - k * design[..., k - 1]) / (k + 1)
    return design


def legendre_predict(coef, xs) -> np.ndarray:
    """Evaluate the polynomial with the given Legendre coefficients at
    points ``xs`` of any shape."""
    coef = np.asarray(coef, dtype=float)
    if coef.ndim != 1 or coef.size == 0:
        raise InvalidInput("coef must be a nonempty vector")
    return legendre_design(xs, coef.size - 1) @ coef


def fit_poly_min_norm(xs, ys, degree: int, via: str = "pseudo_inverse") -> np.ndarray:
    """Min-norm least-squares coefficients in the Legendre basis.

    ``via="pseudo_inverse"`` solves through the stacked SVD of
    ``linalg.min_norm_solve``, a lone fit as a one-member stack, so it
    gets exactly the numbers of a trial in a block;
    ``via="gradient_descent"`` runs descent from zero with a step just
    inside the stability limit, reaching the same coefficients up to the
    stopping tolerance ``GD_GRAD_TOL`` (or after ``GD_MAX_ITERS`` steps).
    With ``via="pseudo_inverse"``, ``xs`` and ``ys`` may also be
    ``(B, n)`` stacks of samples, giving ``(B, degree + 1)``
    coefficients, row for row equal to separate fits.
    """
    ys = np.asarray(ys, dtype=float)
    design = legendre_design(xs, degree)
    if ys.shape != design.shape[:-1]:
        raise InvalidInput(f"ys has shape {ys.shape}, expected {design.shape[:-1]}")
    if via == "pseudo_inverse":
        return min_norm_solve(design[None], ys[None])[0]
    if via == "gradient_descent":
        # Only this route needs ``descent``.
        from .descent import GDConfig, gd_least_squares

        smax = svd(design).s_max
        if smax == 0:
            return np.zeros(degree + 1)
        config = GDConfig(
            step_size=0.9 / smax**2,
            max_iters=GD_MAX_ITERS,
            grad_tol=GD_GRAD_TOL,
        )
        return gd_least_squares(design, ys, config).w
    raise InvalidInput(f"via must be 'pseudo_inverse' or 'gradient_descent', got {via!r}")


def random_target_poly(degree: int, seed: int) -> np.ndarray:
    """Standard normal Legendre coefficients for a random target polynomial."""
    if not isinstance(degree, numbers.Integral) or degree < 0:
        raise InvalidInput(f"degree must be a nonnegative integer, got {degree}")
    return substream(seed, "target-poly").standard_normal(degree + 1)


@dataclass(frozen=True)
class BiasVariance:
    """Bias-variance decomposition with an independently measured total.

    ``total`` is the empirical squared error against fresh noisy targets
    at the probe grid, so ``bias_sq + variance + noise`` matches it only
    up to Monte Carlo error; ``total_stderr`` quantifies that error.  The
    fields, in order, are the columns of the bias-variance CSV, one row
    per record.
    """

    degree: int
    n: int
    noise_scale: float
    trials: int
    bias_sq: float
    variance: float
    noise: float
    total: float
    total_stderr: float


Estimator = Callable[[np.ndarray, np.ndarray], np.ndarray]

# The points at which ``bias_variance_decompose`` compares the fits with
# the truth.
PROBE = np.linspace(-1.0, 1.0, 101)

# Trials fitted together by ``bias_variance_decompose``: enough to pay the
# per-call overhead of the basis and the SVD once per block, few enough
# to keep the stacked design small.
BLOCK_TRIALS = 64


def bias_variance_decompose(
    truth_fn: Callable[[np.ndarray], np.ndarray],
    degree: int,
    n: int,
    noise_scale: float,
    trials: int,
    seed: int,
    estimator: Estimator | None = None,
) -> BiasVariance:
    """Decompose the expected squared error on the probe grid ``PROBE``.

    Each trial draws ``n`` uniform sample points on [-1, 1] and noisy
    targets; the estimator (min-norm Legendre regression of ``degree``
    unless another is supplied) returns its fits on the probe grid, one
    call per block of trials.  Bias and variance come from the spread of
    those predictions; the total is measured separately against fresh
    noisy targets so the identity ``bias^2 + variance + noise = total``
    is an empirical check rather than an algebraic tautology.
    """
    if not isinstance(trials, numbers.Integral) or trials < 2:
        raise InvalidInput(f"trials must be an integer >= 2, got {trials}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidInput(f"n must be a positive integer, got {n}")
    if noise_scale < 0:
        raise InvalidInput(f"noise_scale must be >= 0, got {noise_scale}")
    if estimator is None:
        probe_design = legendre_design(PROBE, degree)

        def estimator(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
            # A stacked matmul makes one matrix-vector product per trial,
            # with the bits of a lone ``probe_design @ c``; a single
            # matrix product over the block can change the last bits.
            coef = fit_poly_min_norm(xs, ys, degree)
            return np.matmul(probe_design, coef[..., None])[..., 0]

    truth_on_probe = np.asarray(truth_fn(PROBE), dtype=float)

    preds = np.empty((trials, PROBE.size))
    totals = np.empty(trials)

    def chunk(lo: int, hi: int) -> None:
        streams = substreams(seed, "bias-variance-trial", lo, hi)
        for start in range(lo, hi, BLOCK_TRIALS):
            block = slice(start, min(start + BLOCK_TRIALS, hi))
            size = block.stop - start
            xs = np.empty((size, n))
            noise = np.empty((size, n))
            fresh_noise = np.empty((size, PROBE.size))
            for i, rng in zip(range(size), streams):
                xs[i] = rng.uniform(-1.0, 1.0, size=n)
                rng.standard_normal(out=noise[i])
                rng.standard_normal(out=fresh_noise[i])
            ys = np.asarray(truth_fn(xs), dtype=float) + noise_scale * noise
            preds[block] = estimator(xs, ys)
            fresh = truth_on_probe + noise_scale * fresh_noise
            totals[block] = np.mean((preds[block] - fresh) ** 2, axis=1)

    map_trials(chunk, trials, preds, totals)

    avg_pred = preds.mean(axis=0)
    bias_sq = float(np.mean((truth_on_probe - avg_pred) ** 2))
    variance = float(np.mean((preds - avg_pred) ** 2))
    total = float(np.mean(totals))
    total_stderr = float(np.std(totals, ddof=1) / np.sqrt(trials))
    return BiasVariance(
        degree=degree,
        n=n,
        noise_scale=noise_scale,
        trials=trials,
        bias_sq=bias_sq,
        variance=variance,
        noise=noise_scale**2,
        total=total,
        total_stderr=total_stderr,
    )
