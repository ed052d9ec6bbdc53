"""Minimum-norm least squares via the singular value decomposition.

The central object is the Moore-Penrose pseudo-inverse computed from a
truncated SVD.  Singular values below ``cutoff = eps * max(m, n) * s_max``
are treated as exact zeros; this mirrors the usual numerical-rank
convention and keeps the pseudo-inverse stable for rank-deficient
matrices.

Of all vectors minimizing ``||X w - y||``, the pseudo-inverse picks the
one of least Euclidean norm, and the full solution set of the normal
equations is ``pinv(X) y + ker(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure

EPS = 1e-12


@dataclass(frozen=True)
class SVDResult:
    """Thin SVD ``a = u @ diag(s) @ vt`` with a numerical rank attached."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int
    cutoff: float

    @property
    def s_max(self) -> float:
        return float(self.s[0]) if self.s.size else 0.0

    @property
    def s_min_positive(self) -> float:
        """Smallest singular value above the truncation cutoff."""
        if self.rank == 0:
            return 0.0
        return float(self.s[self.rank - 1])


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains NaN or Inf entries")
    return a


def svd(a) -> SVDResult:
    """Thin SVD with numerical rank via the relative cutoff rule."""
    a = _as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge for shape {a.shape}") from exc
    cutoff = EPS * max(a.shape) * (float(s[0]) if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return SVDResult(u=u, s=s, vt=vt, rank=rank, cutoff=cutoff)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below cutoff dropped."""
    f = svd(a)
    r = f.rank
    if r == 0:
        return np.zeros((f.vt.shape[1], f.u.shape[0]))
    inv_s = 1.0 / f.s[:r]
    return (f.vt[:r].T * inv_s) @ f.u[:, :r].T


def min_norm_solve(x, y) -> np.ndarray:
    """Least-norm minimizer of ``||X w - y||`` without forming pinv(X).

    Applies ``V_r diag(1/s_r) U_r^T`` to ``y`` directly, which is cheaper
    and slightly better conditioned than materializing the pseudo-inverse
    when only one right-hand side is needed.
    """
    x = _as_matrix(x)
    y = np.asarray(y, dtype=float)
    if y.shape != (x.shape[0],):
        raise InvalidInput(f"y has shape {y.shape}, expected ({x.shape[0]},)")
    f = svd(x)
    r = f.rank
    if r == 0:
        return np.zeros(x.shape[1])
    return f.vt[:r].T @ ((f.u[:, :r].T @ y) / f.s[:r])


def kernel_projector(a) -> np.ndarray:
    """Orthogonal projector onto ``ker(a)``, i.e. ``I - pinv(a) a``."""
    a = _as_matrix(a)
    f = svd(a)
    r = f.rank
    n = a.shape[1]
    # I - V_r V_r^T, assembled from the right singular vectors directly.
    p = np.eye(n)
    if r > 0:
        vr = f.vt[:r]
        p -= vr.T @ vr
    return p


def penrose_residuals(a, a_pinv) -> tuple[float, float, float, float]:
    """Relative residuals of the four Penrose identities.

    Each residual is the Frobenius distance between the two sides of the
    identity, divided by the Frobenius norm of the right-hand side (or
    left unnormalized when that norm is zero, as for the zero matrix).
    """
    a = _as_matrix(a)
    g = _as_matrix(a_pinv)

    def rel(lhs: np.ndarray, rhs: np.ndarray) -> float:
        scale = np.linalg.norm(rhs)
        err = np.linalg.norm(lhs - rhs)
        return float(err / scale) if scale > 0 else float(err)

    aga = a @ g @ a
    gag = g @ a @ g
    ag = a @ g
    ga = g @ a
    return (
        rel(aga, a),
        rel(gag, g),
        rel(ag.T, ag),
        rel(ga.T, ga),
    )


@dataclass(frozen=True)
class LinearPredictor:
    """A fitted linear map ``x -> x @ coef``.

    ``active`` optionally names the coordinates the fit was allowed to
    use; coefficients outside it are structurally zero.  None means all
    coordinates were available.
    """

    coef: np.ndarray
    active: np.ndarray | None = None

    def predict(self, x) -> np.ndarray:
        x = _as_matrix(x)
        return x @ self.coef

    def mse(self, x, y) -> float:
        y = np.asarray(y, dtype=float)
        resid = self.predict(x) - y
        return float(np.mean(resid**2))


def fit_min_norm(x, y) -> LinearPredictor:
    """Fit the minimum-norm least-squares predictor."""
    return LinearPredictor(coef=min_norm_solve(x, y))
