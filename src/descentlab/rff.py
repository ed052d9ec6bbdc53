"""Random Fourier features approximating the Gaussian kernel.

A feature map of width ``N`` is ``z(x)_i = sqrt(2/N) cos(w_i^T x + b_i)``
with frequencies ``w_i ~ N(0, I / bandwidth^2)`` and phases ``b_i ~
Uniform[0, 2 pi)``.  With that frequency scale the features are an
unbiased kernel estimate,

    E[z(x)^T z(y)] = exp(-||x - y||^2 / (2 bandwidth^2)),

so ridgeless regression on ``z`` interpolates between a random sketch
(small ``N``) and Gaussian kernel interpolation (``N -> infinity``).
Sweeping ``N`` across the interpolation threshold ``N = n_train`` is the
canonical double-descent experiment; the sweep helper here records the
train and test errors at each width along with the norm of the fitted
coefficients.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInput
from .linalg import _gram, _matmul, _norm, min_norm_solve
from .parallel import usable_cpus
from .seeding import substream


# The elementwise tail of a featurization (phase shift, cos, scale) runs
# on blocks of this many rows, one block per task on a thread pool; numpy
# releases the GIL inside the ufunc loops, so the blocks run on all the
# CPUs the process may use.  Each element is computed by the same ufunc
# calls whatever the blocking, so the features do not depend on it.  Each
# task runs in a copy of the caller's context, where numpy keeps its
# ``errstate``, so a float fault in a block is handled as the caller asked.
BLOCK_ROWS = 64

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _featurize_pool() -> ThreadPoolExecutor:
    """The shared pool, started on first use with one thread per usable CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=usable_cpus(), thread_name_prefix="rff-featurize"
            )
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads, so
    # work handed to it would never run; the child starts its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _check_bandwidth(bandwidth: float) -> float:
    bandwidth = float(bandwidth)
    if not math.isfinite(bandwidth) or bandwidth <= 0:
        raise InvalidInput(f"bandwidth must be positive and finite, got {bandwidth}")
    return bandwidth


def gaussian_kernel(a, b, bandwidth: float) -> np.ndarray:
    """Gram matrix ``K[i, j] = exp(-||a_i - b_j||^2 / (2 bandwidth^2))``."""
    bandwidth = _check_bandwidth(bandwidth)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sq = cdist(a, b, metric="sqeuclidean")
    return np.exp(-sq / (2.0 * bandwidth**2))


@dataclass(frozen=True)
class RandomFeatureMap:
    """Frozen draw of frequencies and phases defining one feature map."""

    omega: np.ndarray  # (n_features, input_dim)
    phase: np.ndarray  # (n_features,)
    bandwidth: float

    @property
    def n_features(self) -> int:
        return self.omega.shape[0]

    @property
    def input_dim(self) -> int:
        return self.omega.shape[1]

    def transform(self, x) -> np.ndarray:
        """Featurize one vector (1-d input) or a stack of rows (2-d input)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self.input_dim:
            raise InvalidInput(
                f"x has {x.shape[1]} columns, feature map expects {self.input_dim}"
            )
        # In place: same arithmetic as scale * cos(x @ omega.T + phase),
        # without the two extra (rows, n_features) temporaries.  The GEMM
        # runs on scipy's BLAS, as the solve does (see ``linalg``), and
        # stays whole, because splitting it into row blocks could move bits.
        z = _matmul(x, self.omega.T)
        scale = math.sqrt(2.0 / self.n_features)

        def tail(block: np.ndarray) -> None:
            block += self.phase
            np.cos(block, out=block)
            block *= scale

        if z.shape[0] <= BLOCK_ROWS:
            tail(z)
        else:
            pool = _featurize_pool()
            tasks = [
                pool.submit(contextvars.copy_context().run, tail, z[i : i + BLOCK_ROWS])
                for i in range(0, z.shape[0], BLOCK_ROWS)
            ]
            # Reading every result re-raises any error from a block.
            for task in tasks:
                task.result()
        return z[0] if single else z


def sample_map(
    n_features: int, input_dim: int, bandwidth: float, seed: int, index: int = 0
) -> RandomFeatureMap:
    """Draw a feature map from a substream of ``seed``.

    Distinct ``index`` values give independent maps of the same width,
    which is how repeated draws in a sweep stay order-independent.
    """
    if n_features < 1 or input_dim < 1:
        raise InvalidInput("n_features and input_dim must be >= 1")
    bandwidth = _check_bandwidth(bandwidth)
    rng = substream(seed, f"rff-map-{n_features}", index)
    omega = rng.standard_normal((n_features, input_dim)) / bandwidth
    phase = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    return RandomFeatureMap(omega=omega, phase=phase, bandwidth=bandwidth)


def kernel_approx_error(feature_map: RandomFeatureMap, points) -> tuple[float, float]:
    """Worst and average error of ``z(x)^T z(y)`` against the true kernel.

    Errors are taken over all point pairs including the diagonal, where
    ``z(x)^T z(x)`` fluctuates around 1 by the cos^2 terms.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        raise InvalidInput("need at least two points to compare pairs")
    z = feature_map.transform(points)
    approx = _gram(z)
    exact = gaussian_kernel(points, points, feature_map.bandwidth)
    idx = np.triu_indices(points.shape[0])
    errs = np.abs(approx - exact)[idx]
    return float(np.max(errs)), float(np.mean(errs))


def _mse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((pred - y) ** 2))


def _zero_one(pred: np.ndarray, y: np.ndarray) -> float:
    """Fraction misclassified: argmax rows for one-hot, sign otherwise."""
    if y.ndim == 2:
        return float(np.mean(np.argmax(pred, axis=1) != np.argmax(y, axis=1)))
    return float(np.mean(np.sign(pred) != np.sign(y)))


def fit_rff(feature_map: RandomFeatureMap, x, y) -> tuple[np.ndarray, float]:
    """Fit minimum-norm least squares in feature space.

    Returns the coefficients ``beta``, of shape ``(n_features,)`` or
    ``(n_features, n_outputs)``, and the training MSE, computed from the
    features of the fit so that ``x`` is not featurized again.  ``y`` may
    be a vector or a one-hot matrix; columns are fitted jointly from a
    single factorization of the feature matrix.  The prediction at new
    inputs is ``feature_map.transform(x_new) @ beta``.
    """
    z = feature_map.transform(x)
    y = np.asarray(y, dtype=float)
    beta = min_norm_solve(z, y)
    return beta, _mse(_matmul(z, beta), y)


@dataclass(frozen=True)
class RFFSweepPoint:
    """Aggregated metrics for one feature count in a width sweep.

    Losses are means over the repeated map draws; ``beta_norm`` is the
    median, since the coefficient norm is heavy tailed right at the
    interpolation threshold.
    """

    n_features: int
    train_mse: float
    test_mse: float
    test_zero_one: float
    beta_norm: float
    repeats: int


def double_descent_sweep(
    x_train,
    y_train,
    x_test,
    y_test,
    n_features_grid,
    bandwidth: float,
    seed: int,
    repeats: int = 1,
) -> list[RFFSweepPoint]:
    """Fit min-norm RFF regression at each width and aggregate over redraws.

    Every (width, repeat) pair draws its feature map from its own
    substream of ``seed``, so results do not depend on the order of the
    grid or on how repeats are scheduled.  Each map featurizes the
    training inputs once, for the fit and the train error, and the test
    inputs once, for both test metrics.
    """
    if repeats < 1:
        raise InvalidInput(f"repeats must be >= 1, got {repeats}")
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    x_test = np.atleast_2d(np.asarray(x_test, dtype=float))
    y_test = np.asarray(y_test, dtype=float)
    if y_test.shape[:1] != x_test.shape[:1]:
        raise InvalidInput(f"y_test has shape {y_test.shape}, x_test has {x_test.shape[0]} rows")
    input_dim = x_train.shape[1]

    points = []
    for n in n_features_grid:
        n = int(n)
        per_repeat = np.empty((repeats, 4))
        for r in range(repeats):
            fmap = sample_map(n, input_dim, bandwidth, seed, index=r)
            beta, train_mse = fit_rff(fmap, x_train, y_train)
            pred_test = _matmul(fmap.transform(x_test), beta)
            per_repeat[r] = (
                train_mse,
                _mse(pred_test, y_test),
                _zero_one(pred_test, y_test),
                _norm(beta),
            )
        points.append(
            RFFSweepPoint(
                n_features=n,
                train_mse=float(np.mean(per_repeat[:, 0])),
                test_mse=float(np.mean(per_repeat[:, 1])),
                test_zero_one=float(np.mean(per_repeat[:, 2])),
                beta_norm=float(np.median(per_repeat[:, 3])),
                repeats=repeats,
            )
        )
    return points
