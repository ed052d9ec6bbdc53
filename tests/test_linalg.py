"""Tests for the SVD / pseudo-inverse / minimum-norm layer."""

import ctypes
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import linalg, parallel
from descentlab.descent import gd_limit_point
from descentlab.errors import InvalidInput
from descentlab.harness.datasets import make_rkhs_regression
from descentlab.linalg import (
    EPS,
    REFINE_STEPS,
    REFINE_TOL,
    _gram_min_norm,
    kernel_projector,
    min_norm_solve,
    penrose_residuals,
    pseudo_inverse,
    svd,
)
from descentlab.rff import sample_map
from descentlab.seeding import substream


def _random_matrix(seed, rank_deficient=False):
    rng = substream(seed, "linalg-test-matrix")
    m = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    if rank_deficient and min(m, n) > 1:
        r = int(rng.integers(1, min(m, n)))
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return rng.standard_normal((m, n))


def test_pinv_of_wide_ones_row():
    # pinv([[1, 1]]) = [[0.5], [0.5]]: the min-norm preimage splits evenly.
    g = pseudo_inverse([[1.0, 1.0]])
    np.testing.assert_allclose(g, [[0.5], [0.5]])


def test_pinv_matches_row_space_shortcut():
    rng = substream(5, "shortcut-wide")
    a = rng.standard_normal((4, 9))
    expected = a.T @ np.linalg.inv(a @ a.T)
    np.testing.assert_allclose(pseudo_inverse(a), expected, atol=1e-10)


def test_pinv_matches_column_space_shortcut():
    rng = substream(6, "shortcut-tall")
    a = rng.standard_normal((9, 4))
    expected = np.linalg.inv(a.T @ a) @ a.T
    np.testing.assert_allclose(pseudo_inverse(a), expected, atol=1e-10)


def test_pinv_of_zero_matrix():
    g = pseudo_inverse(np.zeros((3, 5)))
    assert g.shape == (5, 3)
    assert np.all(g == 0.0)
    assert all(r == 0.0 for r in penrose_residuals(np.zeros((3, 5)), g))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), deficient=st.booleans())
def test_penrose_identities_hold(seed, deficient):
    a = _random_matrix(seed, rank_deficient=deficient)
    residuals = penrose_residuals(a, pseudo_inverse(a))
    assert max(residuals) <= 1e-8


def test_numerical_rank_of_outer_product():
    rng = substream(7, "rank-one")
    a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
    assert svd(a).rank == 1


def test_svd_extreme_singular_values():
    a = np.diag([3.0, 2.0, 1e-3])
    f = svd(a)
    assert f.s_max == pytest.approx(3.0)
    assert f.rank == 3
    assert svd(np.zeros((2, 2))).rank == 0


def test_svd_rejects_bad_input():
    with pytest.raises(InvalidInput):
        svd(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInput):
        svd(np.array([[1.0, np.nan]]))


def test_min_norm_solve_agrees_with_lstsq():
    rng = substream(8, "lstsq-oracle")
    for m, n in ((3, 7), (7, 3), (5, 5)):
        x = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        expected = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(min_norm_solve(x, y), expected, atol=1e-10)


def _stack_members(rng, m, n):
    """Full-rank, rank-one, all-zero, duplicate-column and tiny members.

    The tiny member sits far below the others' cutoffs, so a rank cut
    shared across the stack would zero it.
    """
    full = rng.standard_normal((m, n))
    rank_one = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    dup = rng.standard_normal((m, n))
    dup[:, -1] = 3.0 * dup[:, 0]
    tiny = 1e-14 * rng.standard_normal((m, n))
    return np.stack([full, rank_one, np.zeros((m, n)), dup, tiny])


def _per_member_min_norm(x, y):
    """Each member's ``V_r diag(1/s_r) U_r^T y`` from the stack's SVD, one
    member at a time, with its own rank cut."""
    m, n = x.shape[-2:]
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    w = np.empty(x.shape[:-2] + (n,))
    for i in range(x.shape[0]):
        cutoff = EPS * max(m, n) * (float(s[i, 0]) if s.shape[1] else 0.0)
        r = int(np.count_nonzero(s[i] > cutoff))
        w[i] = vt[i, :r].T @ ((u[i, :, :r].T @ y[i]) / s[i, :r])
    return w


@pytest.mark.parametrize("shape", [(9, 4), (4, 9), (6, 6), (1, 5), (5, 1)])
def test_stacked_min_norm_solve_equals_per_matrix_calls(shape):
    # Tall, wide and square stacks, each holding rank-deficient and
    # all-zero members; every member's solution must be exactly the one
    # of the per-member product and of a one-member stack, rank cut
    # included, and agree with the single-matrix route (Gram or gelsd) to
    # rounding.  Rank-deficient and all-zero members divide by none of
    # their small or zero singular values, so nothing warns.
    rng = substream(12, "stacked-solve", 10 * shape[0] + shape[1])
    x = _stack_members(rng, *shape)
    y = rng.standard_normal(x.shape[:-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = min_norm_solve(x, y)
    assert w.shape == (x.shape[0], shape[1])
    np.testing.assert_array_equal(w, _per_member_min_norm(x, y))
    for i in range(x.shape[0]):
        np.testing.assert_array_equal(w[i], min_norm_solve(x[i : i + 1], y[i : i + 1])[0])
        np.testing.assert_allclose(w[i], min_norm_solve(x[i], y[i]), rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(w[2], np.zeros(shape[1]))
    assert np.any(w[4] != 0)
    # Extra stack axes are kept.
    w4 = min_norm_solve(x.reshape((1,) + x.shape), y.reshape((1,) + y.shape))
    np.testing.assert_array_equal(w4[0], w)


@pytest.mark.parametrize("shape", [(64, 20, 4), (64, 20, 21), (7, 12, 12)])
def test_full_rank_stacks_equal_the_per_member_product(shape):
    # Every member full rank: the stacked products run on the factors
    # themselves, with no copy, at the shapes of bias-variance's blocks.
    rng = substream(13, "full-rank-stack", shape[2])
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape[:-1])
    np.testing.assert_array_equal(min_norm_solve(x, y), _per_member_min_norm(x, y))


def test_stacked_min_norm_solve_rejects_bad_input():
    x = np.ones((3, 4, 2))
    with pytest.raises(InvalidInput):
        min_norm_solve(x, np.ones((3, 2)))
    with pytest.raises(InvalidInput):
        min_norm_solve(x, np.ones(4))
    bad = x.copy()
    bad[2, 1, 0] = np.nan
    with pytest.raises(InvalidInput):
        min_norm_solve(bad, np.ones((3, 4)))
    with pytest.raises(InvalidInput):
        min_norm_solve(np.ones(4), np.ones(4))
    with pytest.raises(InvalidInput):
        svd(x)


def _svd_min_norm(z, y):
    """Reference: ``V_r diag(1/s_r) U_r^T y`` from the truncated thin SVD."""
    f = svd(z)
    r = f.rank
    coeffs = (f.u[:, :r].T @ y).T / f.s[:r]
    return f.vt[:r].T @ coeffs.T


def _solve_cases():
    rng = substream(20, "gelsd-cases")
    tall = rng.standard_normal((60, 20))
    wide = rng.standard_normal((20, 60))
    # Rank 20 of 30: the duplicated rows give ten exactly dependent rows.
    base = rng.standard_normal((20, 30))
    square = np.vstack([base, base[:10]])
    labels = rng.integers(0, 4, size=20)
    one_hot = np.zeros((20, 4))
    one_hot[np.arange(20), labels] = 1.0
    return {
        "tall": (tall, rng.standard_normal(60)),
        "wide": (wide, rng.standard_normal(20)),
        "square-rank-deficient": (square, rng.standard_normal(30)),
        "one-hot": (wide, one_hot),
    }


@pytest.mark.parametrize("case", list(_solve_cases()))
def test_gelsd_solve_agrees_with_truncated_svd(case):
    z, y = _solve_cases()[case]
    beta = min_norm_solve(z, y)
    assert beta.shape == (z.shape[1],) + y.shape[1:]
    np.testing.assert_allclose(beta, _svd_min_norm(z, y), rtol=1e-9, atol=0.0)


def test_gelsd_solve_returns_zero_for_a_zero_matrix():
    beta = min_norm_solve(np.zeros((5, 3)), np.ones((5, 2)))
    np.testing.assert_array_equal(beta, np.zeros((3, 2)))


def _gelsd(z, y):
    """Reference: the ``gelsd`` solve with the ``linalg`` cutoff rule."""
    return scipy.linalg.lstsq(z, y, cond=EPS * max(z.shape), lapack_driver="gelsd")[0]


@pytest.mark.parametrize("case", ["tall", "wide", "one-hot"])
def test_gram_route_agrees_with_gelsd(case):
    z, y = _solve_cases()[case]
    beta = _gram_min_norm(z, y)
    assert beta is not None and beta.shape == (z.shape[1],) + y.shape[1:]
    np.testing.assert_allclose(beta, _gelsd(z, y), rtol=1e-9, atol=0.0)
    np.testing.assert_array_equal(min_norm_solve(z, y), beta)


def _fallback_cases():
    # Square RFF features at N = n: condition number near 3e10, so the
    # Cholesky factorization of the Gram matrix breaks down.
    ds = make_rkhs_regression(200, 1, input_dim=5, n_centers=20, bandwidth=1.0, seed=21)
    near_singular = sample_map(200, 5, 3.0, seed=21).transform(ds.x_train)
    square, y = _solve_cases()["square-rank-deficient"]
    return {
        "near-singular": (near_singular, ds.y_train),
        "duplicated-rows": (square, y),
        "zero": (np.zeros((5, 3)), np.ones((5, 2))),
        "empty": (np.zeros((0, 3)), np.zeros(0)),
    }


@pytest.mark.parametrize("case", list(_fallback_cases()))
def test_ill_conditioned_solves_fall_back_to_gelsd(case):
    z, y = _fallback_cases()[case]
    assert _gram_min_norm(z, y) is None
    np.testing.assert_array_equal(min_norm_solve(z, y), _gelsd(z, y))


@pytest.mark.parametrize("case", ["wide", "tall", "square-rank-deficient"])
def test_without_the_lapack_calls_every_solve_is_gelsds(monkeypatch, case):
    # numpy built against another BLAS, or another wheel layout: one missing
    # call makes the Gram route decline, and the solve is gelsd's.
    def openblas(name, *types):
        return None if name == "dpotrs_" else parallel._openblas(name, *types)

    monkeypatch.setattr(linalg, "_openblas", openblas)
    monkeypatch.setattr(linalg, "_LAPACK", linalg._lapack())
    assert linalg._LAPACK is None
    z, y = _solve_cases()[case]
    assert _gram_min_norm(z, y) is None
    np.testing.assert_array_equal(min_norm_solve(z, y), _gelsd(z, y))


def test_a_condition_estimate_past_the_cutoff_declines_the_gram_route(monkeypatch):
    # A well-conditioned z passes Cholesky and refinement, so only the
    # dpocon gate can decline it: report rcond = 1e-30 after the real call.
    dlange, dpotrf, dpocon, dpotrs = linalg._LAPACK

    def ill_conditioned(uplo, n, a, lda, anorm, rcond, work, iwork, info):
        dpocon(uplo, n, a, lda, anorm, rcond, work, iwork, info)
        ctypes.c_double.from_address(rcond).value = 1e-30

    rng = substream(37, "dpocon-gate")
    z, y = rng.standard_normal((20, 50)), rng.standard_normal(20)
    assert _gram_min_norm(z, y) is not None
    monkeypatch.setattr(linalg, "_LAPACK", (dlange, dpotrf, ill_conditioned, dpotrs))
    assert _gram_min_norm(z, y) is None
    want = np.linalg.lstsq(z, y, rcond=EPS * max(z.shape))[0]
    np.testing.assert_array_equal(min_norm_solve(z, y), want)


def test_solves_in_two_threads_get_the_bits_of_a_serial_run():
    # ctypes releases the GIL inside each LAPACK call, so the two threads'
    # solves interleave; each must keep its scalars and workspace apart.
    rng = substream(36, "threaded-solves")
    x = rng.standard_normal((60, 100))
    systems = [(x[:40, :p], x[:40, 0]) for p in (10, 30, 50, 100)]
    systems += [(x[:, :20], x[:, 30:33]), (x[:20], x[20:40, 0])]
    systems += [_solve_cases()["square-rank-deficient"], _fallback_cases()["near-singular"]]
    jobs = [systems[i % len(systems)] for i in range(200)]
    results = [[None] * len(jobs) for _ in range(3)]

    def run(out):
        for i, (z, y) in enumerate(jobs):
            out[i] = min_norm_solve(z, y)

    interval = sys.getswitchinterval()
    # One BLAS thread, so the bits do not depend on how OpenBLAS splits a
    # product between concurrent callers.
    with parallel._one_blas_thread():
        run(results[0])
        threads = [threading.Thread(target=run, args=(out,)) for out in results[1:]]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results[1:]:
        for got, want in zip(out, results[0]):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_matrices(bad):
    z = np.ones((4, 3))
    z[2, 1] = bad
    with pytest.raises(InvalidInput):
        min_norm_solve(z, np.ones(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_targets(bad):
    rng = substream(8, "non-finite-targets")
    x = rng.standard_normal((4, 3))
    y = np.ones(4)
    y[1] = bad
    with pytest.raises(InvalidInput, match="y contains"):
        min_norm_solve(x, y)
    ys = np.ones((4, 2))
    ys[3, 1] = bad
    with pytest.raises(InvalidInput, match="y contains"):
        min_norm_solve(x, ys)
    stack_y = np.ones((3, 4))
    stack_y[2, 1] = bad
    with pytest.raises(InvalidInput, match="y contains"):
        min_norm_solve(rng.standard_normal((3, 4, 3)), stack_y)


def test_min_norm_is_the_smallest_minimizer():
    rng = substream(9, "min-norm-min")
    x = rng.standard_normal((4, 10))
    y = rng.standard_normal(4)
    w_star = min_norm_solve(x, y)
    for k in range(5):
        other = gd_limit_point(x, y, rng.standard_normal(10))
        # Same residual, never smaller norm.
        np.testing.assert_allclose(x @ other, x @ w_star, atol=1e-9)
        assert np.linalg.norm(other) >= np.linalg.norm(w_star) - 1e-9


def test_solution_set_hand_case():
    # X = [[1, 0]], y = [2]: solutions are (2, t).  The min-norm one is
    # (2, 0), and offsetting by u = (5, 7) keeps only the kernel part:
    # pinv(X) y + (I - pinv(X) X) u, the limit of GD started at u.
    x = [[1.0, 0.0]]
    np.testing.assert_allclose(min_norm_solve(x, [2.0]), [2.0, 0.0])
    member = gd_limit_point(x, [2.0], [5.0, 7.0])
    np.testing.assert_allclose(member, [2.0, 7.0])


def test_kernel_projector_properties():
    rng = substream(10, "projector")
    x = rng.standard_normal((3, 8))
    p = kernel_projector(x)
    np.testing.assert_allclose(p, p.T, atol=1e-12)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(x @ p, np.zeros((3, 8)), atol=1e-12)
    # Rank of the projector is the kernel dimension.
    assert int(round(np.trace(p))) == 8 - svd(x).rank


def test_shape_validation_messages():
    with pytest.raises(InvalidInput):
        min_norm_solve(np.eye(3), np.ones(4))
    with pytest.raises(InvalidInput):
        min_norm_solve(np.eye(3), np.ones((3, 2, 1)))
    with pytest.raises(InvalidInput):
        gd_limit_point(np.eye(3), np.ones(3), np.ones(5))


# -------------------------------------- the Gram solve against its plain form


def _numpy_gram_min_norm(z, y):
    """Reference: the Gram solve written plainly on numpy's operators, with
    numpy's 1-norm and a factorization that does not overwrite the Gram
    matrix in place."""
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

    def solve(residual):
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


def _gram_bit_cases():
    cases = {}
    for name, (z, y) in _solve_cases().items():
        cases[f"{name}-C"] = (z, y)
        cases[f"{name}-F"] = (np.asfortranarray(z), y)
    # sparse-risk solves on an F-ordered column subset of its design.
    rng = substream(34, "gram-bits-subset")
    x, y = rng.standard_normal((40, 100)), rng.standard_normal(40)
    for p in (10, 30, 50, 100):
        cases[f"subset-40x{p}"] = (x[:, np.sort(rng.choice(100, p, replace=False))], y)
    cases["column-y"] = (x[:, :10], y[:, None])
    cases["one-row"] = (x[:1], y[:1])
    cases["strided"] = (x[::2, ::3], y[::2])
    cases["near-singular"] = _fallback_cases()["near-singular"]
    return cases


@pytest.mark.parametrize("case", list(_gram_bit_cases()))
def test_gram_solve_matches_the_numpy_operator_version_bit_for_bit(case):
    # The solve factors its Gram matrix in place and takes the 1-norm with
    # dlange; neither may move a bit for any memory order of the design.
    z, y = _gram_bit_cases()[case]
    if case.startswith("subset"):
        assert z.flags.f_contiguous and not z.flags.c_contiguous
    got, want = _gram_min_norm(z, y), _numpy_gram_min_norm(z, y)
    declined = case == "near-singular" or case.startswith("square-rank-deficient")
    assert (got is None) == (want is None) == declined
    if want is not None:
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
