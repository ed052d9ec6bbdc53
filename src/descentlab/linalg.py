"""Minimum-norm least squares via the singular value decomposition.

The central object is the Moore-Penrose pseudo-inverse computed from a
truncated SVD.  Singular values below ``cutoff = eps * max(m, n) * s_max``
are treated as exact zeros; this mirrors the usual numerical-rank
convention and keeps the pseudo-inverse stable for rank-deficient
matrices.

Of all vectors minimizing ``||X w - y||``, the pseudo-inverse picks the
one of least Euclidean norm, and the full solution set of the normal
equations is ``pinv(X) y + ker(X)``.

A single fit solves through the Cholesky factor of the smaller Gram
matrix (``X X^T`` or ``X^T X``) with iterative refinement, which is
several times cheaper than an SVD for a well-conditioned ``X``.  When
``X`` is numerically singular, squaring the condition number would lose
the answer, so those fits, and any other whose Gram solve cannot be
certified, go to LAPACK ``gelsd`` instead: SVD-based, with the same
cutoff, but it never forms the singular vectors.  A stack of fits is
factored by one stacked SVD call.

Products are numpy's operators.  The thread count of numpy's and
scipy's OpenBLAS moves their last bits: inside ``parallel.map_trials``
every process computes on one BLAS thread, whether the library is
imported or run through the CLI; outside it, a program that imports the
library keeps OpenBLAS's default.

scipy is reached only through ``_scipy_linalg``, which imports it on
first need: ``svd``, the stacked solve and the projectors are numpy
alone, so a run that uses nothing else (bias-variance) never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .parallel import _one_thread_on_loaded_pools

EPS = 1e-12


@cache
def _scipy_linalg():
    """``scipy.linalg``, imported on the first call; inside
    ``parallel.map_trials`` its OpenBLAS then joins numpy's on one thread."""
    import scipy.linalg

    _one_thread_on_loaded_pools()
    return scipy.linalg


@dataclass(frozen=True)
class SVDResult:
    """Thin SVD ``a = u @ diag(s) @ vt`` with a numerical rank attached."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int

    @property
    def s_max(self) -> float:
        return float(self.s[0]) if self.s.size else 0.0


def _as_matrix(a, stacked: bool = False) -> np.ndarray:
    """``a`` as a finite float matrix, or with ``stacked`` a stack ``(..., m, n)``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        expected = "a 2-d array or a stack of them" if stacked else "a 2-d array"
        raise InvalidInput(f"expected {expected}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains NaN or Inf entries")
    return a


def _factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD factors of a matrix or, in one LAPACK call, of a stack."""
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge for shape {a.shape}") from exc


def _rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of one matrix from its singular values: how many exceed the cutoff."""
    cutoff = EPS * max(shape) * (float(s[0]) if s.size else 0.0)
    return int(np.count_nonzero(s > cutoff))


def svd(a) -> SVDResult:
    """Thin SVD with numerical rank via the relative cutoff rule."""
    a = _as_matrix(a)
    u, s, vt = _factors(a)
    return SVDResult(u=u, s=s, vt=vt, rank=_rank(s, a.shape))


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below cutoff dropped."""
    f = svd(a)
    r = f.rank
    if r == 0:
        return np.zeros((f.vt.shape[1], f.u.shape[0]))
    inv_s = 1.0 / f.s[:r]
    return (f.vt[:r].T * inv_s) @ f.u[:, :r].T


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
    # Symmetric, so its transpose is the same matrix in Fortran order, which
    # dpotrf factors in place; dlange takes the 1-norm column by column,
    # as numpy's ``np.abs(gram).sum(axis=0).max()`` did.
    gram = (z @ z.T if wide else z.T @ z).T
    lapack = _scipy_linalg().lapack
    anorm = lapack.dlange("1", gram)
    chol, info = lapack.dpotrf(gram, clean=False, overwrite_a=1)
    if info != 0:
        return None
    rcond, info = lapack.dpocon(chol, anorm)
    if info != 0 or not rcond > (EPS * max(m, n)) ** 2:
        return None

    def solve(residual: np.ndarray) -> np.ndarray:
        a, _ = lapack.dpotrs(chol, residual if wide else z.T @ residual)
        return z.T @ a if wide else a

    beta = solve(y)
    last = math.inf
    for _ in range(REFINE_STEPS):
        step = solve(y - z @ beta)
        beta += step
        size = np.linalg.norm(step)
        if size <= REFINE_TOL * np.linalg.norm(beta):
            return beta
        if not size <= 0.5 * last:
            return None
        last = size
    return None


def min_norm_solve(x, y) -> np.ndarray:
    """Least-norm minimizer of ``||X w - y||`` without forming pinv(X).

    For a matrix ``x`` of shape ``(m, n)``, ``y`` is a vector ``(m,)`` or
    a matrix ``(m, k)`` of right-hand sides solved jointly.  The refined
    Gram solve (``_gram_min_norm``) is tried first; the systems it
    declines go to LAPACK ``gelsd``, which drops singular values at or
    below the cutoff of ``svd``.

    ``x`` may also be a stack ``(..., m, n)`` with ``y`` of shape
    ``(..., m)``: the stack is factored by one SVD call, then each member
    gets its own rank cut and ``V_r diag(1/s_r) U_r^T y``, so the per-call
    overhead is paid once and no member's cut depends on the others.
    """
    x = _as_matrix(x, stacked=True)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidInput("y contains NaN or Inf entries")
    if x.ndim == 2:
        m = x.shape[0]
        if y.ndim not in (1, 2) or y.shape[0] != m:
            raise InvalidInput(f"y has shape {y.shape}, expected ({m},) or ({m}, k)")
        w = _gram_min_norm(x, y)
        if w is not None:
            return w
        try:
            w, _, rank, _ = _scipy_linalg().lstsq(
                x, y, cond=EPS * max(x.shape), check_finite=False, lapack_driver="gelsd"
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"SVD did not converge for shape {x.shape}") from exc
        return w if rank > 0 else np.zeros((x.shape[1],) + y.shape[1:])
    if y.shape != x.shape[:-1]:
        raise InvalidInput(f"y has shape {y.shape}, expected {x.shape[:-1]}")
    k, (m, n) = math.prod(x.shape[:-2]), x.shape[-2:]
    u, s, vt = _factors(x.reshape(k, m, n))
    w = np.empty(x.shape[:-2] + (n,))
    for i, (wi, yi) in enumerate(zip(w.reshape(k, n), y.reshape(k, m))):
        r = _rank(s[i], (m, n))
        wi[...] = vt[i, :r].T @ ((u[i, :, :r].T @ yi) / s[i, :r])
    return w


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
