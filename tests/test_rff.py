"""Tests for random Fourier features and the kernel machinery."""

import math
import os
import warnings

import numpy as np
import pytest

from descentlab import parallel, rff
from descentlab.errors import InvalidInput
from descentlab.harness.datasets import make_rkhs_regression
from descentlab.linalg import min_norm_solve
from descentlab.rff import (
    RandomFeatureMap,
    double_descent_sweep,
    fit_rff,
    gaussian_kernel,
    kernel_approx_error,
    sample_map,
)
from descentlab.seeding import substream


def test_kernel_hand_values():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    k = gaussian_kernel(x, x, bandwidth=1.0)
    np.testing.assert_allclose(np.diag(k), [1.0, 1.0])
    # Squared distance 2, bandwidth 1: k = exp(-1).
    assert k[0, 1] == pytest.approx(math.exp(-1.0))
    # Doubling the bandwidth quarters the exponent.
    k2 = gaussian_kernel(x, x, bandwidth=2.0)
    assert k2[0, 1] == pytest.approx(math.exp(-0.25))


def test_kernel_sums_the_squared_differences_in_order():
    # The squared distance is the float sum over the input dimensions,
    # first to last, as scipy's cdist "sqeuclidean" forms it.
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((5, 9)) * 3.0, rng.standard_normal((4, 9))
    sq = np.zeros((5, 4))
    for i, j in np.ndindex(sq.shape):
        for ak, bk in zip(a[i].tolist(), b[j].tolist()):
            sq[i, j] += (ak - bk) * (ak - bk)
    want = np.exp(-sq / (2.0 * 1.7**2))
    np.testing.assert_array_equal(gaussian_kernel(a, b, bandwidth=1.7), want)


def test_kernel_rejects_bad_bandwidth():
    with pytest.raises(InvalidInput):
        gaussian_kernel(np.eye(2), np.eye(2), bandwidth=0.0)
    with pytest.raises(InvalidInput, match="dimension"):
        gaussian_kernel(np.eye(2), np.eye(3), bandwidth=1.0)
    with pytest.raises(InvalidInput):
        sample_map(10, 2, -1.0, seed=0)


def test_feature_map_shapes_and_scale():
    fmap = sample_map(n_features=32, input_dim=3, bandwidth=1.5, seed=12)
    assert fmap.n_features == 32
    assert fmap.input_dim == 3
    z = fmap.transform(np.zeros((5, 3)))
    assert z.shape == (5, 32)
    assert np.max(np.abs(z)) <= math.sqrt(2.0 / 32) + 1e-12
    # A single vector comes back 1-d.
    assert fmap.transform(np.zeros(3)).shape == (32,)
    with pytest.raises(InvalidInput):
        fmap.transform(np.zeros((5, 4)))


def test_map_sampling_is_deterministic_per_index():
    a = sample_map(16, 2, 1.0, seed=3, index=0)
    b = sample_map(16, 2, 1.0, seed=3, index=0)
    c = sample_map(16, 2, 1.0, seed=3, index=1)
    np.testing.assert_array_equal(a.omega, b.omega)
    np.testing.assert_array_equal(a.phase, b.phase)
    assert not np.array_equal(a.omega, c.omega)


def test_map_frequencies_are_the_normal_draws_over_the_bandwidth():
    # sample_map divides in place; the bits are those of a new quotient.
    fmap = sample_map(40, 7, 0.3, seed=5, index=2)
    rng = substream(5, "rff-map-40", 2)
    omega = rng.standard_normal((40, 7)) / 0.3
    np.testing.assert_array_equal(fmap.omega, omega)
    np.testing.assert_array_equal(fmap.phase, rng.uniform(0.0, 2.0 * math.pi, size=40))


@pytest.mark.parametrize("rows", [None, 9, 389], ids=["1-d", "9-rows", "389-rows"])
def test_transform_matches_the_feature_formula_bit_for_bit(rows):
    # The elementwise tail runs in place on the GEMM's output.
    fmap = sample_map(n_features=64, input_dim=3, bandwidth=0.7, seed=19)
    x = substream(19, "transform-points").uniform(-1.0, 1.0, size=(rows or 1, 3))
    points = x[0] if rows is None else x
    expected = math.sqrt(2.0 / 64) * np.cos(points @ fmap.omega.T + fmap.phase)
    np.testing.assert_array_equal(fmap.transform(points), expected)


@pytest.mark.parametrize("order_omega", ["C", "F"])
@pytest.mark.parametrize("order_x", ["C", "F"])
@pytest.mark.parametrize(
    "m, k, p",
    [(5, 7, 3), (1, 7, 3), (5, 7, 1), (1, 7, 1), (5, 1, 3), (9, 2, 9), (40, 30, 20), (3, 64, 33)],
    ids=[
        "matrix", "one-row", "one-feature", "one-by-one", "inner-1", "inner-2", "40x30x20", "wide"
    ],
)
def test_transform_matches_the_feature_formula_for_every_memory_order(
    m, k, p, order_x, order_omega
):
    # m points of dimension k, p features; numpy picks the BLAS call for
    # x @ omega.T from the shapes and memory orders, the in-place tail
    # must not change what it returns.
    rng = substream(31, "transform-orders", 10_000 * m + 100 * k + p)
    fmap = RandomFeatureMap(
        omega=np.asarray(rng.standard_normal((p, k)), order=order_omega),
        phase=rng.uniform(0.0, 2.0 * math.pi, size=p),
        bandwidth=1.0,
    )
    x = np.asarray(rng.standard_normal((m, 2 * k)), order=order_x)
    points = [x[:, :k], x[:, ::2], x[::2, :k]]  # a block and strided views
    if m == 1:
        points.append(x[0, :k])
    for view in points:
        expected = math.sqrt(2.0 / p) * np.cos(view @ fmap.omega.T + fmap.phase)
        got = fmap.transform(view)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        # Into the front of a larger flat buffer, as the sweep writes.
        buffer = np.full(expected.size + 5, np.nan)
        out = buffer[: expected.size].reshape(expected.shape)
        assert fmap.transform(view, out=out) is out
        np.testing.assert_array_equal(out, got)
        assert np.isnan(buffer[expected.size:]).all()


@pytest.mark.parametrize(
    "x, out",
    [
        (np.zeros((5, 3)), np.empty((5, 63))),
        (np.zeros((5, 3)), np.empty((64, 5))),
        (np.zeros((5, 3)), np.empty((5, 64), dtype=np.float32)),
        (np.zeros((5, 3)), np.empty((5, 64), order="F")),
        (np.zeros((5, 3)), np.empty((5, 128))[:, ::2]),
        (np.zeros(3), np.empty((1, 64))),
        (np.zeros((1, 3)), np.empty(64)),
        (np.zeros((5, 3)), [[0.0] * 64] * 5),
    ],
    ids=["columns", "transposed", "float32", "fortran", "strided", "1-d-x", "1-d-out", "list"],
)
def test_transform_refuses_an_out_it_cannot_fill_in_place(x, out):
    fmap = sample_map(n_features=64, input_dim=3, bandwidth=1.0, seed=4)
    with pytest.raises(InvalidInput, match="^out must be ") as info:
        fmap.transform(x, out=out)
    assert "\n" not in str(info.value)


def test_transform_keeps_the_callers_float_error_state():
    # x @ omega.T overflows to +-inf, whose cos is an invalid operation.
    fmap = sample_map(n_features=16, input_dim=1, bandwidth=1e-3, seed=2)
    x = np.full((200, 1), 1e308)
    with np.errstate(over="ignore", invalid="raise"):
        with pytest.raises(FloatingPointError, match="cos"):
            fmap.transform(x)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(fmap.transform(x)).any()


def test_sweep_takes_the_gram_route_past_the_threshold(monkeypatch):
    # gelsd runs only where the Gram route gives up; record the widths.  On
    # one CPU every pair runs in this process, where the calls are seen.  At
    # this bandwidth the N = n fits are near-singular and give up; no wider
    # fit may.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    fallback_widths = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(z, *args, **kwargs):
        fallback_widths.append(z.shape[1])
        return lstsq(z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    n = 200
    ds = make_rkhs_regression(n, 50, input_dim=5, n_centers=20, bandwidth=1.0, seed=21)
    double_descent_sweep(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                         (50, n, 2 * n, 4 * n, 8 * n), bandwidth=2.0, seed=21, repeats=2)
    assert n in fallback_widths, fallback_widths
    assert all(width <= n for width in fallback_widths), fallback_widths


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_features(bad):
    x = np.zeros((4, 2))
    x[0, 0] = bad
    with pytest.raises(InvalidInput), np.errstate(invalid="ignore"):
        fit_rff(sample_map(8, 2, 1.0, seed=0), x, np.ones(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rejects_non_finite_targets(bad):
    y = np.ones(4)
    y[2] = bad
    with pytest.raises(InvalidInput, match="y contains"):
        fit_rff(sample_map(8, 2, 1.0, seed=0), np.zeros((4, 2)), y)


def test_features_are_unbiased_for_the_kernel():
    # Average z(x)^T z(y) over many independent maps at one fixed pair.
    rng = substream(13, "unbias-pair")
    x, y = rng.uniform(0.0, 1.0, size=(2, 4))
    exact = gaussian_kernel(x[None], y[None], bandwidth=1.0)[0, 0]
    estimates = np.empty(300)
    for m in range(estimates.size):
        fmap = sample_map(24, 4, 1.0, seed=13, index=m)
        estimates[m] = fmap.transform(x) @ fmap.transform(y)
    stderr = estimates.std(ddof=1) / math.sqrt(estimates.size)
    assert abs(estimates.mean() - exact) <= 5.0 * stderr


def test_kernel_approx_error_shrinks_with_width():
    rng = substream(14, "approx-points")
    points = rng.uniform(0.0, 1.0, size=(20, 3))
    medians = {}
    for n in (50, 5000):
        max_errs = [
            kernel_approx_error(sample_map(n, 3, 1.0, seed=14, index=m), points)[0]
            for m in range(10)
        ]
        medians[n] = np.median(max_errs)
    assert medians[5000] < medians[50] / 3.0


def test_kernel_approx_error_needs_two_points():
    fmap = sample_map(8, 3, 1.0, seed=0)
    with pytest.raises(InvalidInput):
        kernel_approx_error(fmap, np.zeros((1, 3)))


def test_fit_rff_interpolates_when_overparameterized():
    rng = substream(15, "rff-fit")
    x = rng.uniform(0.0, 1.0, size=(30, 4))
    y = rng.standard_normal(30)
    fmap = sample_map(120, 4, 1.0, seed=15)
    beta, train_mse = fit_rff(fmap, x, y)
    assert train_mse <= 1e-12
    assert train_mse == float(np.mean((fmap.transform(x) @ beta - y) ** 2))
    assert beta.shape == (120,)
    assert np.linalg.norm(beta) > 0.0


def test_fit_rff_multioutput_one_hot():
    rng = substream(16, "rff-multi")
    x = rng.uniform(0.0, 1.0, size=(20, 3))
    labels = rng.integers(0, 3, size=20)
    y = np.zeros((20, 3))
    y[np.arange(20), labels] = 1.0
    fmap = sample_map(80, 3, 1.0, seed=16)
    beta, _ = fit_rff(fmap, x, y)
    assert beta.shape == (80, 3)
    pred = fmap.transform(x) @ beta
    assert np.mean((pred - y) ** 2) <= 1e-10
    np.testing.assert_array_equal(np.argmax(pred, axis=1), labels)


def test_fit_rff_rejects_row_mismatch():
    fmap = sample_map(8, 2, 1.0, seed=0)
    with pytest.raises(InvalidInput):
        fit_rff(fmap, np.zeros((4, 2)), np.zeros(5))


@pytest.mark.parametrize("size", [1, 2, 5, 8])
def test_median_has_the_bits_of_numpy_median(size):
    values = substream(44, "median", size).standard_normal(size) * 1e3
    got = rff.median(values)
    assert type(got) is np.float64
    assert got.view(np.int64) == np.median(values).view(np.int64)


def test_median_keeps_the_callers_float_error_state():
    # The two middle values are summed as numpy scalars, so an overflow
    # raises under errstate as np.median's mean does.
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        rff.median(np.array([1.7e308, 1.7e308]))


def test_sweep_shows_the_interpolation_peak():
    # Small instance of the width sweep: test error at the threshold
    # N = n exceeds the wide regime, train error vanishes past it, and
    # the coefficient norm comes down.
    rng = substream(17, "sweep-data")
    n = 80
    centers = rng.uniform(0.0, 1.0, size=(10, 3))
    alpha = rng.standard_normal(10)
    xs = rng.uniform(0.0, 1.0, size=(n + 200, 3))
    ys = gaussian_kernel(xs, centers, 0.5) @ alpha
    points = double_descent_sweep(
        xs[:n], ys[:n], xs[n:], ys[n:], (n, 8 * n), bandwidth=1.0, seed=17, repeats=3
    )
    at_n, wide = points
    assert at_n.n_features == n and wide.n_features == 8 * n
    assert at_n.train_mse <= 1e-6 and wide.train_mse <= 1e-6
    assert at_n.test_mse > wide.test_mse
    assert at_n.beta_norm > wide.beta_norm
    assert at_n.repeats == 3


def _svd_sweep(x_train, y_train, x_test, y_test, grid, bandwidth, seed, repeats):
    """The width sweep as a plain loop over the truncated-SVD solve, which
    ``min_norm_solve`` applies to a one-member stack."""
    rows = []
    for n in grid:
        per_repeat = []
        for r in range(repeats):
            fmap = sample_map(n, x_train.shape[1], bandwidth, seed, index=r)
            z = fmap.transform(x_train)
            beta = min_norm_solve(z[None], y_train[None])[0]
            pred = fmap.transform(x_test) @ beta
            per_repeat.append((
                np.mean((z @ beta - y_train) ** 2),
                np.mean((pred - y_test) ** 2),
                np.mean(np.sign(pred) != np.sign(y_test)),
                np.linalg.norm(beta),
            ))
        per_repeat = np.array(per_repeat)
        rows.append((n, *per_repeat[:, :3].mean(axis=0), np.median(per_repeat[:, 3]), repeats))
    return np.array(rows)


def test_sweep_matches_the_svd_formula_across_the_threshold():
    n = 200
    ds = make_rkhs_regression(n, 300, input_dim=5, n_centers=20, bandwidth=1.0, seed=21)
    grid = (50, 150, 200, 250, 800)
    args = (ds.x_train, ds.y_train, ds.x_test, ds.y_test, grid, 3.0, 21, 3)
    got = np.array([
        (pt.n_features, pt.train_mse, pt.test_mse, pt.test_zero_one, pt.beta_norm, pt.repeats)
        for pt in double_descent_sweep(*args)
    ])
    want = _svd_sweep(*args)
    # Past the threshold the train MSE is rounding noise near 1e-26, so
    # it is compared against an absolute floor as well.
    for j, atol in enumerate((0.0, 1e-12, 0.0, 0.0, 0.0, 0.0)):
        np.testing.assert_allclose(got[:, j], want[:, j], rtol=1e-8, atol=atol)
    assert got[2, 4] > got[4, 4]  # the norm peaks at N = n


def _sweep_inputs():
    ds = make_rkhs_regression(60, 30, input_dim=4, n_centers=10, bandwidth=1.0, seed=23)
    return ds.x_train, ds.y_train, ds.x_test, ds.y_test


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_sweep_does_not_depend_on_the_cpu_count(monkeypatch, cpus):
    args = (*_sweep_inputs(), (5, 30, 60, 120, 240), 2.0, 23, 3)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    serial = double_descent_sweep(*args)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert double_descent_sweep(*args) == serial


def _unbuffered_sweep(x_train, y_train, x_test, y_test, grid, bandwidth, seed, repeats):
    """The width sweep as a plain loop of fresh feature matrices."""
    points = []
    for n in grid:
        per_repeat = np.empty((repeats, 4))
        for r in range(repeats):
            fmap = sample_map(n, x_train.shape[1], bandwidth, seed, index=r)
            beta, train_mse = fit_rff(fmap, x_train, y_train)
            pred = fmap.transform(x_test) @ beta
            if y_test.ndim == 2:
                wrong = np.argmax(pred, axis=1) != np.argmax(y_test, axis=1)
            else:
                wrong = np.sign(pred) != np.sign(y_test)
            per_repeat[r] = (
                train_mse,
                float(np.mean((pred - y_test) ** 2)),
                float(np.mean(wrong)),
                np.linalg.norm(beta),
            )
        points.append(rff.RFFSweepPoint(
            n, *(float(np.mean(per_repeat[:, j])) for j in range(3)),
            float(np.median(per_repeat[:, 3])), repeats,
        ))
    return points


def _one_hot_inputs():
    # More test rows than training rows, so the test features fill more
    # of the buffer than the training features.
    rng = substream(29, "sweep-one-hot")
    x = rng.uniform(0.0, 1.0, size=(90, 4))
    y = np.eye(3)[rng.integers(0, 3, size=90)]
    return x[:30], y[:30], x[30:], y[30:]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("inputs", [_sweep_inputs, _one_hot_inputs], ids=["rkhs", "one-hot"])
def test_the_buffered_sweep_equals_a_loop_of_fresh_feature_matrices(monkeypatch, cpus, inputs):
    if cpus > 1 and not hasattr(os, "fork"):
        pytest.skip("needs fork")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    args = (*inputs(), (5, 30, 60, 120, 240), 2.0, 23, 3)
    assert double_descent_sweep(*args) == _unbuffered_sweep(*args)


def test_every_featurization_of_a_sweep_writes_into_one_buffer(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    outs = []
    transform = RandomFeatureMap.transform

    def spy(self, x, out=None):
        outs.append(out)
        return transform(self, x, out=out)

    monkeypatch.setattr(RandomFeatureMap, "transform", spy)
    x_train, y_train, x_test, y_test = _sweep_inputs()  # 60 and 30 rows
    double_descent_sweep(x_train, y_train, x_test, y_test, (5, 30, 120), 2.0, 23, repeats=2)
    assert len(outs) == 12 and all(out is not None for out in outs)
    # Views of one flat base, sized for the widest map by the most rows.
    base = outs[0].base
    assert base.shape == (60 * 120,)
    assert all(out.base is base for out in outs)
    assert [out.shape for out in outs[:4]] == [(60, 5), (30, 5)] * 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_pair_failing_in_a_child_raises_as_on_one_cpu(monkeypatch, tmp_path):
    # Of three pairs on two CPUs, the widest is the caller's and the two
    # narrower ones a child's; the width-8 pair fails wherever it runs.
    real_fit = rff.fit_rff

    def fit(fmap, x, y, out=None):
        if fmap.n_features == 8:
            (tmp_path / str(os.getpid())).touch()
            raise InvalidInput("no fit at width 8")
        return real_fit(fmap, x, y, out=out)

    monkeypatch.setattr(rff, "fit_rff", fit)
    args = (*_sweep_inputs(), (4, 8, 16), 2.0, 23)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        with pytest.raises(InvalidInput) as info:
            double_descent_sweep(*args)
        errors.append(str(info.value))
    assert errors == ["no fit at width 8"] * 2
    assert {p.name for p in tmp_path.iterdir()} - {str(os.getpid())}, "no child hit the pair"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_rejects_zero_repeats():
    with pytest.raises(InvalidInput):
        double_descent_sweep(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 1)), np.zeros(2),
                             (4,), 1.0, seed=0, repeats=0)


def test_sweep_rejects_a_y_test_of_the_wrong_length():
    x = np.zeros((3, 1))
    with pytest.raises(InvalidInput):
        double_descent_sweep(x, np.zeros(3), x, np.zeros(1), (4,), 1.0, seed=0)
    with pytest.raises(InvalidInput):
        double_descent_sweep(x, np.zeros(3), x, np.zeros((2, 10)), (4,), 1.0, seed=0)
