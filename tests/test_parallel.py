"""Tests for the forked trial map in ``descentlab.parallel``."""

import os
import time
import warnings

import numpy as np
import pytest

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
