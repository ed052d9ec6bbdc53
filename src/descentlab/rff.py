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

Each fit solves through the Cholesky factor of the smaller Gram matrix
(``z z^T`` or ``z^T z``) with iterative refinement, which is several
times cheaper than an SVD away from the threshold.  Near ``N = n_train``
the features are numerically singular and squaring the condition
number would lose the answer, so those fits, and any other whose
Gram solve cannot be certified, go to LAPACK ``gelsd`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from .errors import InvalidInput, NumericalFailure
from .linalg import EPS, _as_matrix
from .seeding import substream


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
        # without the two extra (rows, n_features) temporaries.
        z = x @ self.omega.T
        z += self.phase
        np.cos(z, out=z)
        z *= math.sqrt(2.0 / self.n_features)
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
    approx = z @ z.T
    exact = gaussian_kernel(points, points, feature_map.bandwidth)
    idx = np.triu_indices(points.shape[0])
    errs = np.abs(approx - exact)[idx]
    return float(np.max(errs)), float(np.mean(errs))


# Iterative refinement of a Gram-route solve: at most this many
# correction steps, each at least halving the one before, until a
# correction is at most REFINE_TOL times the solution norm.
REFINE_STEPS = 8
REFINE_TOL = 1e-10


def _gram_min_norm(z: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Min-norm least squares through a Cholesky factor of the Gram matrix.

    A wide ``z`` (at least as many columns as rows) gives ``beta = z^T a``
    with ``(z z^T) a = y``; a tall one solves ``(z^T z) beta = z^T y``.
    The Gram matrix squares the condition number, so a solution is only
    returned when the Cholesky factorization succeeds, the LAPACK
    estimate of its reciprocal condition number exceeds the square of the
    ``gelsd`` cutoff (so no singular value ``gelsd`` would drop is kept),
    and iterative refinement, with residuals ``y - z beta`` taken from
    ``z`` itself, converges.  Otherwise the result is None.
    """
    m, n = z.shape
    if min(m, n) == 0:
        return None
    wide = n >= m
    gram = z @ z.T if wide else z.T @ z
    anorm = np.abs(gram).sum(axis=0).max()
    chol, info = scipy.linalg.lapack.dpotrf(gram, clean=False)
    if info != 0:
        return None
    rcond, info = scipy.linalg.lapack.dpocon(chol, anorm)
    if info != 0 or not rcond > (EPS * max(m, n)) ** 2:
        return None

    def solve(residual: np.ndarray) -> np.ndarray:
        a, _ = scipy.linalg.lapack.dpotrs(chol, residual if wide else z.T @ residual)
        return z.T @ a if wide else a

    rhs = y.reshape(m, -1)
    beta = solve(rhs)
    last = math.inf
    for _ in range(REFINE_STEPS):
        step = solve(rhs - z @ beta)
        beta += step
        size = np.linalg.norm(step)
        if size <= REFINE_TOL * np.linalg.norm(beta):
            return beta.reshape((n,) + y.shape[1:])
        if not size <= 0.5 * last:
            return None
        last = size
    return None


def _min_norm_multi(z, y: np.ndarray) -> np.ndarray:
    """Min-norm least squares supporting a matrix of right-hand sides.

    Well-conditioned systems go through the refined Cholesky of the Gram
    matrix (``_gram_min_norm``).  The rest, near-singular and
    rank-deficient ones, fall back to LAPACK ``gelsd``: SVD-based, it
    drops singular values at or below ``EPS * max(m, n) * s_max``, the
    rank rule of ``linalg.svd``, but never forms the singular vectors.
    """
    z = _as_matrix(z)
    beta = _gram_min_norm(z, y)
    if beta is not None:
        return beta
    try:
        beta, _, rank, _ = scipy.linalg.lstsq(
            z, y, cond=EPS * max(z.shape), check_finite=False, lapack_driver="gelsd"
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge for shape {z.shape}") from exc
    if rank == 0:
        return np.zeros((z.shape[1],) + y.shape[1:])
    return beta


def _mse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((pred - y) ** 2))


def _zero_one(pred: np.ndarray, y: np.ndarray) -> float:
    """Fraction misclassified: argmax rows for one-hot, sign otherwise."""
    if y.ndim == 2:
        return float(np.mean(np.argmax(pred, axis=1) != np.argmax(y, axis=1)))
    return float(np.mean(np.sign(pred) != np.sign(y)))


@dataclass(frozen=True)
class RFFModel:
    """Feature map plus min-norm regression coefficients on top of it."""

    feature_map: RandomFeatureMap
    beta: np.ndarray  # (n_features,) or (n_features, n_outputs)
    train_mse: float  # on the fitted data, from the features of the fit

    def predict(self, x) -> np.ndarray:
        return self.feature_map.transform(x) @ self.beta

    def mse(self, x, y) -> float:
        return _mse(self.predict(x), np.asarray(y, dtype=float))

    def zero_one_error(self, x, y) -> float:
        """Fraction misclassified: argmax rows for one-hot, sign otherwise."""
        return _zero_one(self.predict(x), np.asarray(y, dtype=float))

    @property
    def beta_norm(self) -> float:
        return float(np.linalg.norm(self.beta))


def fit_rff(feature_map: RandomFeatureMap, x, y) -> RFFModel:
    """Fit minimum-norm least squares in feature space.

    ``y`` may be a vector or a one-hot matrix; columns are fitted jointly
    from a single factorization of the feature matrix, which also gives
    the training error without featurizing ``x`` again.
    """
    z = feature_map.transform(x)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != z.shape[0]:
        raise InvalidInput(f"y has {y.shape[0]} rows, x has {z.shape[0]}")
    beta = _min_norm_multi(z, y)
    return RFFModel(feature_map=feature_map, beta=beta, train_mse=_mse(z @ beta, y))


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
            model = fit_rff(fmap, x_train, y_train)
            pred_test = model.predict(x_test)
            per_repeat[r] = (
                model.train_mse,
                _mse(pred_test, y_test),
                _zero_one(pred_test, y_test),
                model.beta_norm,
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
