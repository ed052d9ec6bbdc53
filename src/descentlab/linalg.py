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
certified, go to LAPACK ``gelsd`` instead (``np.linalg.lstsq``):
SVD-based, with the same cutoff, but it never forms the singular
vectors.  A stack of fits is factored by one stacked SVD call and, where
every singular value is kept, solved by two stacked products.

numpy is the only dependency.  The Gram solve calls ``dlange``,
``dpotrf``, ``dpocon`` and ``dpotrs`` of the OpenBLAS bundled in numpy's
wheel through ctypes (``parallel._openblas``).  On a numpy without those
symbols (built against another BLAS, or another wheel layout) the Gram
route declines, and every single fit goes to ``gelsd``: the same
solutions up to rounding, more slowly, with no error.

Products are numpy's operators.  The thread count of numpy's OpenBLAS
moves their last bits: inside ``parallel.map_trials`` every process
computes on one BLAS thread, whether the library is imported or run
through the CLI; outside it, a program that imports the library keeps
OpenBLAS's default.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .parallel import _openblas

EPS = 1e-12


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


def _lapack():
    """``dlange``, ``dpotrf``, ``dpocon`` and ``dpotrs`` of numpy's OpenBLAS,
    or None where any of them is not found.  These are Fortran calls: every
    argument is an address, and every integer is 64-bit."""
    p = ctypes.c_void_p
    calls = (
        _openblas("dlange_", ctypes.c_double, *[p] * 6),
        _openblas("dpotrf_", None, *[p] * 5),
        _openblas("dpocon_", None, *[p] * 9),
        _openblas("dpotrs_", None, *[p] * 8),
    )
    return None if None in calls else calls


# ctypes releases the GIL during a call, so the calls share nothing: each
# solve allocates its own scalars and workspace.
_LAPACK = _lapack()


def _gram_min_norm(z: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Min-norm least squares through a Cholesky factor of the Gram matrix.

    A wide ``z`` (at least as many columns as rows) gives ``beta = z^T a``
    with ``(z z^T) a = y``; a tall one solves ``(z^T z) beta = z^T y``.
    The Gram matrix squares the condition number, so a solution is only
    returned when the Cholesky factorization succeeds, the LAPACK
    estimate of its reciprocal condition number exceeds the square of the
    ``gelsd`` cutoff (so no singular value ``gelsd`` would drop is kept),
    and iterative refinement, with residuals ``y - z beta`` taken from
    ``z`` itself, converges.  Otherwise, or where numpy's OpenBLAS lacks
    the LAPACK calls, the result is None.
    """
    m, n = z.shape
    if min(m, n) == 0 or _LAPACK is None:
        return None
    dlange, dpotrf, dpocon, dpotrs = _LAPACK
    wide = n >= m
    # Symmetric, so read in Fortran order it is the same matrix, which
    # dpotrf factors in place; dlange takes the 1-norm column by column,
    # as numpy's ``np.abs(gram).sum(axis=0).max()`` did.
    gram = z @ z.T if wide else z.T @ z
    # Every argument of a Fortran call is an address, taken once per solve.
    # ints: k, nrhs, info, then dpocon's iwork.  reals: anorm, rcond, then
    # dpocon's work.  rhs: the right-hand sides, which dpotrs solves in
    # place, in Fortran order as the transpose of the C-order ``rows``.
    k, nrhs = gram.shape[0], math.prod(y.shape[1:])
    ints = (ctypes.c_int64 * (3 + k))(k, nrhs)
    reals = (ctypes.c_double * (2 + 3 * k))()
    rows = np.empty(y.shape[1:] + (k,))
    rhs = rows.T
    # For a C-contiguous array ``addressof(c_char.from_buffer(a))`` is
    # ``a.ctypes.data`` at a third of the cost.
    g = ctypes.addressof(ctypes.c_char.from_buffer(gram))
    b = ctypes.addressof(ctypes.c_char.from_buffer(rows))
    i, r = ctypes.addressof(ints), ctypes.addressof(reals)
    pk, pnrhs, info, iwork = i, i + 8, i + 16, i + 24
    anorm, rcond, work = r, r + 8, r + 16
    reals[0] = dlange(b"1", pk, pk, g, pk, work)
    dpotrf(b"U", pk, g, pk, info)
    if ints[2] != 0:
        return None
    dpocon(b"U", pk, g, pk, anorm, rcond, work, iwork, info)
    if ints[2] != 0 or not reals[1] > (EPS * max(m, n)) ** 2:
        return None

    def solve(residual: np.ndarray) -> np.ndarray:
        rhs[...] = residual if wide else z.T @ residual
        dpotrs(b"U", pk, pnrhs, g, pk, b, pk, info)
        return z.T @ rhs if wide else rhs.copy(order="F")

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
    ``(..., m)``: the stack is factored by one SVD call, and each member
    gets its own rank cut and ``V_r diag(1/s_r) U_r^T y``, so the per-call
    overhead is paid once and no member's cut depends on the others.  The
    full-rank members are solved together by two stacked products, with
    the bits of one member's product; a rank-deficient or all-zero member
    is solved alone, on its kept singular values only.
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
            return np.linalg.lstsq(x, y, rcond=EPS * max(x.shape))[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"SVD did not converge for shape {x.shape}") from exc
    if y.shape != x.shape[:-1]:
        raise InvalidInput(f"y has shape {y.shape}, expected {x.shape[:-1]}")
    k, (m, n) = math.prod(x.shape[:-2]), x.shape[-2:]
    u, s, vt = _factors(x.reshape(k, m, n))
    y = y.reshape(k, m)
    # Singular values come in descending order, so a member keeps them
    # all when its last one is above its cutoff.
    full = s[:, -1] > (EPS * max(m, n)) * s[:, 0] if s.shape[1] else np.ones(k, dtype=bool)
    # Every member's V diag(1/s) U^T y in two stacked products: numpy's
    # matmul makes for each member the BLAS call of the per-member product
    # below, so a full-rank member gets its bits.  Only full-rank members
    # are divided by their singular values; the others are solved again
    # one at a time, with their own rank cut.
    z = np.matmul(u.transpose(0, 2, 1), y[..., None])
    np.divide(z, s[..., None], out=z, where=full[:, None, None])
    w = np.matmul(vt.transpose(0, 2, 1), z)[..., 0]
    for i in np.flatnonzero(~full):
        r = _rank(s[i], (m, n))
        w[i] = vt[i, :r].T @ ((u[i, :, :r].T @ y[i]) / s[i, :r])
    return w.reshape(x.shape[:-2] + (n,))


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
