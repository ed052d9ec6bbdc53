"""Tests for the forked trial map in ``descentlab.parallel``."""

import ctypes
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import descentlab
from descentlab import parallel
from descentlab.parallel import map_trials
from descentlab.seeding import substream

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable-CPU count that ``map_trials`` sees."""

    def set_cpus(count):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: count)

    return set_cpus


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fill(trials):
    """Rows of two shapes filled trial by trial from per-trial streams."""
    vectors = np.empty((trials, 3))
    scalars = np.empty(trials)

    def chunk(lo, hi):
        for i in range(lo, hi):
            rng = substream(5, "parallel-test", i)
            vectors[i] = rng.standard_normal(3)
            scalars[i] = float(vectors[i] @ vectors[i])

    return chunk, vectors, scalars


def test_usable_cpus_is_the_affinity_set():
    assert parallel.usable_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("trials", [0, 1, 2, 7, 200])
def test_rows_do_not_depend_on_the_cpu_count(cpus, count, trials):
    # trials = 2 against 3 CPUs leaves a CPU without a block.
    chunk, want_vectors, want_scalars = _fill(trials)
    chunk(0, trials)
    cpus(count)
    chunk, vectors, scalars = _fill(trials)
    map_trials(chunk, trials, vectors, scalars)
    np.testing.assert_array_equal(vectors, want_vectors)
    np.testing.assert_array_equal(scalars, want_scalars)
    _no_child_left()


def test_one_cpu_runs_one_chunk_in_the_caller(cpus):
    cpus(1)
    calls = []
    map_trials(lambda lo, hi: calls.append((lo, hi, os.getpid())), 5)
    assert calls == [(0, 5, os.getpid())]


def test_blocks_are_contiguous_and_the_first_is_the_callers(cpus):
    cpus(3)
    owner = np.zeros(10)

    def chunk(lo, hi):
        owner[lo:hi] = os.getpid()

    map_trials(chunk, 10, owner)
    assert owner[0] == os.getpid()
    # Three blocks of 3, 3 and 4 trials, each computed by its own process.
    assert [len(set(owner[s])) for s in (slice(0, 3), slice(3, 6), slice(6, 10))] == [1, 1, 1]
    assert len(set(owner)) == 3


@pytest.mark.parametrize("count", [1, 2, 3])
def test_balanced_order_evens_the_blocks_of_map_trials(cpus, count):
    costs = [50, 50, 50, 1, 3, 2, 7, 1, 4, 9]
    cpus(count)
    order = parallel.balanced_order(costs)
    assert sorted(order) == list(range(len(costs)))
    bounds = [len(costs) * k // count for k in range(count + 1)]
    blocks = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # Each block keeps index order, so one block is the identity.
    assert all(block == sorted(block) for block in blocks)
    loads = [sum(costs[i] for i in block) for block in blocks]
    assert max(loads) - min(loads) <= max(costs)
    # The three heavy trials never share a block while another has none.
    heavy = [sum(costs[i] == 50 for i in block) for block in blocks]
    assert max(heavy) - min(heavy) <= 1


def test_an_error_in_a_child_is_raised_by_the_caller(cpus):
    cpus(2)
    rows = np.zeros(6)

    def chunk(lo, hi):
        for i in range(lo, hi):
            if i == 4:
                raise ValueError(f"trial {i} failed")
            rows[i] = i

    with pytest.raises(ValueError, match=r"^trial 4 failed$"):
        map_trials(chunk, 6, rows)
    _no_child_left()


def test_a_float_fault_in_a_child_is_a_floating_point_error(cpus):
    # The child inherits the caller's errstate; had it not, it would
    # return inf without an error.
    cpus(2)
    rows = np.zeros(4)

    def chunk(lo, hi):
        for i in range(lo, hi):
            rows[i] = np.float64(1.0) / np.float64(3 - i)

    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        map_trials(chunk, 4, rows)
    _no_child_left()


def test_an_error_in_the_callers_block_kills_every_child(cpus):
    cpus(3)

    def chunk(lo, hi):
        if lo == 0:
            raise RuntimeError("first block failed")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="first block failed"):
        map_trials(chunk, 6, np.zeros(6))
    assert time.monotonic() - start < 30
    _no_child_left()


def test_a_block_the_system_cannot_fork_runs_in_the_caller(cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork refused")

    cpus(2)
    monkeypatch.setattr(os, "fork", no_fork)
    chunk, vectors, scalars = _fill(5)
    map_trials(chunk, 5, vectors, scalars)
    want_chunk, want_vectors, want_scalars = _fill(5)
    want_chunk(0, 5)
    np.testing.assert_array_equal(vectors, want_vectors)
    np.testing.assert_array_equal(scalars, want_scalars)


def test_the_fork_warning_of_a_threaded_process_is_not_raised(cpus, monkeypatch):
    # Python 3.12 warns on every fork of a process that has threads, as
    # one with OpenBLAS workers does; the module docstring says why this
    # fork is safe.
    real_fork = os.fork

    def fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
            "may lead to deadlocks in the child.",
            DeprecationWarning,
        )
        return real_fork()

    cpus(2)
    monkeypatch.setattr(os, "fork", fork)
    chunk, vectors, scalars = _fill(4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        map_trials(chunk, 4, vectors, scalars)
    assert caught == []


# ------------------------------------------------------ one BLAS thread

# A sweep whose Gram solves and featurizations are large enough for
# OpenBLAS to thread them on more than one CPU.  The data are drawn
# without BLAS.
_LIBRARY_SWEEP = """
import json, sys
from descentlab import parallel, rff
from descentlab.seeding import substream

parallel.usable_cpus = lambda: int(sys.argv[1])
rng = substream(3, "library-sweep")
x, y = rng.standard_normal((300, 10)), rng.standard_normal(300)
points = rff.double_descent_sweep(
    x[:200], y[:200], x[200:], y[200:], (100, 400), 5.0, seed=4, repeats=2
)
fields = ("train_mse", "test_mse", "test_zero_one", "beta_norm")
bits = [[getattr(p, f).hex() for f in fields] for p in points]
print(json.dumps(bits))
"""


def _library_sweep(cpus: int, blas_threads: str | None) -> list:
    src = os.path.dirname(os.path.dirname(descentlab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_SWEEP, str(cpus)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_library_sweep_at_the_default_blas_threads_has_one_threads_bits(cpus):
    # Imported without the CLI, numpy loads OpenBLAS at one thread per
    # CPU; inside map_trials it computes on one thread.
    assert _library_sweep(cpus, blas_threads=None) == _library_sweep(cpus, blas_threads="1")


def test_rows_are_the_same_when_no_blas_pool_resolves(cpus, monkeypatch):
    # A system BLAS or another wheel layout: the thread count is left
    # alone and the rows are those of a serial run.
    monkeypatch.setattr(sys.modules["numpy._core._multiarray_umath"], "__file__", "libnone.so")
    assert parallel._openblas("openblas_get_num_threads", ctypes.c_int) is None
    cpus(2)
    chunk, vectors, scalars = _fill(7)
    map_trials(chunk, 7, vectors, scalars)
    want_chunk, want_vectors, want_scalars = _fill(7)
    want_chunk(0, 7)
    np.testing.assert_array_equal(vectors, want_vectors)
    np.testing.assert_array_equal(scalars, want_scalars)
    _no_child_left()


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS on two threads; its thread-count getter is yielded,
    and the count is put back after the test."""
    get = parallel._openblas("openblas_get_num_threads", ctypes.c_int)
    set_ = parallel._openblas("openblas_set_num_threads", None, ctypes.c_int)
    if get is None or set_ is None:
        pytest.skip("no bundled OpenBLAS thread-count call resolves here")
    saved = get()
    set_(2)
    yield get
    set_(saved)


@pytest.mark.parametrize("fails", [False, True])
def test_map_trials_runs_on_one_blas_thread_and_restores_the_count(
    cpus, two_blas_threads, fails
):
    cpus(2)
    counts = np.zeros(4)

    def chunk(lo, hi):
        for i in range(lo, hi):
            counts[i] = two_blas_threads()
        if fails and lo == 0:
            raise RuntimeError("first block failed")

    if fails:
        with pytest.raises(RuntimeError, match="first block failed"):
            map_trials(chunk, 4, counts)
    else:
        map_trials(chunk, 4, counts)
        # Both blocks, the caller's and the child's, ran on one thread.
        np.testing.assert_array_equal(counts, 1)
    assert counts[0] == 1
    assert two_blas_threads() == 2
    _no_child_left()


def test_one_cpu_runs_its_chunk_on_one_blas_thread(cpus, two_blas_threads):
    # Nothing is forked, and the caller's chunk still runs on one thread.
    cpus(1)
    counts = np.zeros(3)

    def chunk(lo, hi):
        for i in range(lo, hi):
            counts[i] = two_blas_threads()

    map_trials(chunk, 3, counts)
    np.testing.assert_array_equal(counts, 1)
    assert two_blas_threads() == 2


@pytest.fixture
def fake_pool(monkeypatch):
    """A thread count held in a one-element list, standing in for numpy's
    OpenBLAS pool."""
    count = [4]
    calls = {
        "openblas_get_num_threads": lambda: count[0],
        "openblas_set_num_threads": lambda n: count.__setitem__(0, n),
    }
    monkeypatch.setattr(parallel, "_openblas", lambda name, *types: calls[name])
    return count


def test_a_nested_map_trials_leaves_the_count_to_the_outer_one(cpus, fake_pool):
    cpus(1)
    seen = []

    def inner(lo, hi):
        seen.append(("inner", fake_pool[0]))

    def outer(lo, hi):
        map_trials(inner, 1)
        seen.append(("outer, after the inner map", fake_pool[0]))

    map_trials(outer, 1)
    assert seen == [("inner", 1), ("outer, after the inner map", 1)]
    assert fake_pool == [4]
