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

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import min_norm_solve
from .parallel import balanced_order, map_trials
from .seeding import substream


def _check_bandwidth(bandwidth: float) -> float:
    bandwidth = float(bandwidth)
    if not math.isfinite(bandwidth) or bandwidth <= 0:
        raise InvalidInput(f"bandwidth must be positive and finite, got {bandwidth}")
    return bandwidth


def gaussian_kernel(a, b, bandwidth: float) -> np.ndarray:
    """Gram matrix ``K[i, j] = exp(-||a_i - b_j||^2 / (2 bandwidth^2))``.

    The squared distances are summed over the input dimensions in order,
    as ``scipy.spatial.distance.cdist``'s ``sqeuclidean`` sums them (the
    same bits), in one ``m x n`` scratch beside the result.
    """
    bandwidth = _check_bandwidth(bandwidth)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise InvalidInput(f"points of dimension {a.shape[1]} and {b.shape[1]}")
    sq = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(sq)
    for k in range(a.shape[1]):
        np.subtract(a[:, k, None], b[None, :, k], out=diff)
        diff *= diff
        sq += diff
    sq /= -2.0 * bandwidth**2
    return np.exp(sq, out=sq)


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

    def transform(self, x, out=None) -> np.ndarray:
        """Featurize one vector (1-d input) or a stack of rows (2-d input).

        With ``out``, a C-contiguous float64 array of the result's shape,
        ``(rows, n_features)`` or ``(n_features,)``, the features are
        written into it and it is returned: the same products on the same
        shapes, so the same bits as a fresh result.  A caller that
        featurizes many inputs can so reuse one buffer.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self.input_dim:
            raise InvalidInput(
                f"x has {x.shape[1]} columns, feature map expects {self.input_dim}"
            )
        shape = (x.shape[0], self.n_features)
        if out is not None:
            want = shape[1:] if single else shape
            if not isinstance(out, np.ndarray):
                raise InvalidInput(f"out must be a numpy array, got {type(out).__name__}")
            if out.shape != want or out.dtype != np.float64 or not out.flags.c_contiguous:
                layout = "C-contiguous" if out.flags.c_contiguous else "not C-contiguous"
                raise InvalidInput(
                    f"out must be a C-contiguous float64 array of shape {want}, "
                    f"got {out.dtype} of shape {out.shape}, {layout}"
                )
        # In place: same arithmetic as scale * cos(x @ omega.T + phase),
        # without the two extra (rows, n_features) temporaries.
        z = np.matmul(x, self.omega.T, out=None if out is None else out.reshape(shape))
        z += self.phase
        np.cos(z, out=z)
        z *= math.sqrt(2.0 / self.n_features)
        if out is not None:
            return out
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
    # In place, as ω may be the largest array of a fit (8000 x 784 floats
    # in the MNIST sweep): the same bits as a division into a new array.
    omega = rng.standard_normal((n_features, input_dim))
    omega /= bandwidth
    phase = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    return RandomFeatureMap(omega=omega, phase=phase, bandwidth=bandwidth)


def kernel_approx_error(feature_map: RandomFeatureMap, points) -> tuple[float, float]:
    """Worst and average error of ``z(x)^T z(y)`` against the true kernel.

    Errors are taken over all point pairs including the diagonal, where
    ``z(x)^T z(x)`` fluctuates around 1 by the cos^2 terms.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n < 2:
        raise InvalidInput("need at least two points to compare pairs")
    # In place, and the kernel dropped once used: at most two n x n
    # matrices and the features are alive at once.
    exact = gaussian_kernel(points, points, feature_map.bandwidth)
    z = feature_map.transform(points)
    errs = z @ z.T
    errs -= exact
    del exact
    np.abs(errs, out=errs)
    # The upper triangle in row order, as ``np.triu_indices`` lists it,
    # picked by a boolean mask an eighth the size of the index arrays.
    errs = errs[np.arange(n)[:, None] <= np.arange(n)]
    return float(np.max(errs)), float(np.mean(errs))


def _mse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((pred - y) ** 2))


def _zero_one(pred: np.ndarray, y: np.ndarray) -> float:
    """Fraction misclassified: argmax rows for one-hot, sign otherwise."""
    if y.ndim == 2:
        return float(np.mean(np.argmax(pred, axis=1) != np.argmax(y, axis=1)))
    return float(np.mean(np.sign(pred) != np.sign(y)))


def fit_rff(feature_map: RandomFeatureMap, x, y, out=None) -> tuple[np.ndarray, float]:
    """Fit minimum-norm least squares in feature space.

    Returns the coefficients ``beta``, of shape ``(n_features,)`` or
    ``(n_features, n_outputs)``, and the training MSE, computed from the
    features of the fit so that ``x`` is not featurized again.  ``y`` may
    be a vector or a one-hot matrix; columns are fitted jointly from a
    single factorization of the feature matrix.  The prediction at new
    inputs is ``feature_map.transform(x_new) @ beta``.  ``out`` is passed
    to ``transform``: the features of ``x`` are written there, and the
    buffer is free again once the fit returns.
    """
    z = feature_map.transform(x, out=out)
    y = np.asarray(y, dtype=float)
    beta = min_norm_solve(z, y)
    return beta, _mse(z @ beta, y)


def median(values) -> np.float64:
    """Median of a nonempty 1-d array of finite floats, with numpy's bits.

    The middle value after a sort, or the mean of the two middle values
    as ``(s[h-1] + s[h]) / 2`` on numpy scalars, so ``np.errstate`` still
    governs an overflow.  numpy's own median would import ``numpy.ma`` on
    its first call.
    """
    s = np.sort(values)
    h = s.size // 2
    return s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2


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
    grid or on how pairs are scheduled.  The pairs run on every usable CPU
    through ``parallel.map_trials``, dealt by width
    (``parallel.balanced_order``); each fills one row of metrics, and the
    rows are aggregated per width in grid order.  Each map featurizes the
    training inputs once, for the fit and the train error, and the test
    inputs once, for both test metrics.

    Each process allocates one feature buffer for its block of pairs,
    ``max(n_train, n_test)`` rows by the widest width in the block, and
    every fit writes its train features, then its test features, into a
    ``(rows, width)`` view of it (``transform(..., out=)``).  Fresh
    feature matrices of every width would leave the allocator holding
    freed pages; the bits are those of fresh matrices.
    """
    if repeats < 1:
        raise InvalidInput(f"repeats must be >= 1, got {repeats}")
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    x_test = np.atleast_2d(np.asarray(x_test, dtype=float))
    y_test = np.asarray(y_test, dtype=float)
    if y_test.shape[:1] != x_test.shape[:1]:
        raise InvalidInput(f"y_test has shape {y_test.shape}, x_test has {x_test.shape[0]} rows")
    input_dim = x_train.shape[1]

    grid = [int(n) for n in n_features_grid]
    pairs = [(n, r) for n in grid for r in range(repeats)]
    order = balanced_order([n for n, _ in pairs])
    # Row i holds pair order[i]: train MSE, test MSE, 0-1 error, beta norm.
    rows = np.empty((len(pairs), 4))

    def chunk(lo: int, hi: int) -> None:
        widest = max((pairs[order[i]][0] for i in range(lo, hi)), default=0)
        buffer = np.empty(max(len(x_train), len(x_test)) * widest)

        def features(x, n: int) -> np.ndarray:
            return buffer[: len(x) * n].reshape(len(x), n)

        for i in range(lo, hi):
            n, r = pairs[order[i]]
            fmap = sample_map(n, input_dim, bandwidth, seed, index=r)
            beta, train_mse = fit_rff(fmap, x_train, y_train, out=features(x_train, n))
            pred_test = fmap.transform(x_test, out=features(x_test, n)) @ beta
            norm = np.linalg.norm(beta)
            rows[i] = (train_mse, _mse(pred_test, y_test), _zero_one(pred_test, y_test), norm)
            del fmap  # free this ω before the next map draws its own

    map_trials(chunk, len(pairs), rows)
    by_pair = np.empty_like(rows)
    by_pair[order] = rows
    points = []
    for n, per_repeat in zip(grid, by_pair.reshape(len(grid), repeats, 4)):
        points.append(
            RFFSweepPoint(
                n_features=n,
                train_mse=float(np.mean(per_repeat[:, 0])),
                test_mse=float(np.mean(per_repeat[:, 1])),
                test_zero_one=float(np.mean(per_repeat[:, 2])),
                beta_norm=float(median(per_repeat[:, 3])),
                repeats=repeats,
            )
        )
    return points
