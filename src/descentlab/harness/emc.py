"""Effective Model Complexity: the largest n a procedure still interpolates.

A training procedure here is any callable that takes ``(x, y)`` and
returns the training error it achieved.  The estimator walks an
increasing grid of sample sizes, averages the training error over
independent trials at each size, and returns the largest size whose
mean error stays at or below the threshold.  Training error is expected
to be monotone in ``n`` for the procedures studied here, so the scan
stops at the first failing size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InvalidInput
from ..linalg import min_norm_solve
from ..seeding import substream


@dataclass(frozen=True)
class EMCPoint:
    """Mean training error at one sample size of the scan."""

    n: int
    mean_train_error: float
    interpolates: bool


def min_norm_linear_procedure(x, y) -> float:
    """Training MSE of the min-norm linear fit; the canonical procedure."""
    return float(np.mean((x @ min_norm_solve(x, y) - y) ** 2))


def emc_scan(
    procedure: Callable[[np.ndarray, np.ndarray], float],
    sample_fn: Callable[[int, np.random.Generator], tuple[np.ndarray, np.ndarray]],
    eps: float,
    n_grid,
    trials: int,
    seed: int,
) -> tuple[int, list[EMCPoint]]:
    """Scan the grid and return (EMC estimate, per-size records).

    The estimate is 0 when even the smallest size fails.  Sizes after
    the first failure are not visited (early exit), so the record list
    covers a prefix of the grid.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise InvalidInput("n_grid must be nonempty")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InvalidInput(f"n_grid must be strictly increasing, got {n_grid}")
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    if not eps >= 0:
        raise InvalidInput(f"eps must be >= 0, got {eps}")

    emc = 0
    points = []
    for n in n_grid:
        errors = np.empty(trials)
        for t in range(trials):
            rng = substream(seed, f"emc-n-{n}", t)
            x, y = sample_fn(n, rng)
            errors[t] = procedure(x, y)
        mean_error = float(np.mean(errors))
        ok = mean_error <= eps
        points.append(EMCPoint(n=n, mean_train_error=mean_error, interpolates=ok))
        if not ok:
            break
        emc = n
    return emc, points
