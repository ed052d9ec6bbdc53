"""Independent trials on every usable CPU, one forked child per extra CPU.

The trials are those of the Monte Carlo loops (``sparse_regression``,
``polyfit``) and the (width, repeat) fits of the random-feature sweep
(``rff``).

``map_trials(chunk, trials, *rows)`` runs ``chunk(lo, hi)``, which fills
``row[lo:hi]`` of every array in ``rows``, over ``range(trials)`` cut
into one contiguous block per usable CPU.  The caller forks one child per
block after the first and computes the first block itself.  Each child
computes its block, writes the raw bytes of its rows to a pipe and ends
with ``os._exit``; the caller reads those bytes straight into ``rows``.
Every trial draws from its own substream (``seeding``), so the rows, and
any statistic taken over them in trial order, do not depend on the CPU
count.  With one usable CPU, or one trial, nothing is forked.  Trials of
uneven cost are spread evenly by running them in ``balanced_order``.

Processes rather than threads: the ``scipy.linalg.lapack`` wrappers and
numpy's linalg gufuncs hold the GIL, so a thread pool over trials gains
no wall time.

One BLAS thread.  Inside ``map_trials`` every process computes on one
BLAS thread, whether the library is imported or run through the CLI, so
the trials neither oversubscribe the cores nor carry bits that depend on
the thread count.  On entry each bundled OpenBLAS the process has already
loaded (numpy's, and scipy's once ``scipy.linalg`` is imported) is set to
one thread, and on exit back to its previous count; the children inherit
the setting.  scipy's, when ``linalg`` first imports it inside a chunk,
joins then.  Where the thread-count calls are not found (a system BLAS,
another wheel layout), the counts are left as they are.  Outside
``map_trials`` a program that imports the library keeps OpenBLAS's
default.

Errors.  A child that exits nonzero, or sends fewer bytes than its block
holds, has its block rerun by the caller, in block order.  Trials are
deterministic, so the rerun raises the exception a serial run would raise
first.  A child is forked from the calling thread, so it inherits numpy's
``errstate`` and faults the way the caller asked.  If the caller's own
block raises, every child is killed and reaped before the exception
propagates: no call, good or failed, leaves a process behind.

Fork safety.  Python 3.12 warns (``DeprecationWarning``) when a process
that has threads forks, and with numpy loaded on more than one BLAS
thread it has OpenBLAS workers.  The fork is safe here, so that one
warning is silenced at the fork:

- OpenBLAS (numpy's and scipy's) stops its worker pool through a
  ``pthread_atfork`` handler before the fork and restarts it on next use,
  so the child inherits no BLAS lock held by a worker;
- the child runs only the chunk, writes its rows and leaves through
  ``os._exit``: no ``finally`` block or ``atexit`` handler of the caller
  runs, and no inherited stdio buffer is flushed twice.
"""

from __future__ import annotations

import ctypes
import os
import sys
import warnings
from contextlib import contextmanager
from typing import Callable


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity set)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def map_trials(chunk: Callable[[int, int], None], trials: int, *rows) -> None:
    """Fill ``rows`` by running ``chunk`` over ``range(trials)`` on every usable CPU.

    ``chunk(lo, hi)`` must fill ``row[lo:hi]`` of each array in ``rows``
    and touch nothing else the caller reads afterwards.  The arrays must
    be C-contiguous with the trials on their first axis.
    """
    with _one_blas_thread():
        bounds = _bounds(trials)
        pending = []
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                pending.append(_fork(chunk, rows, lo, hi))
            chunk(bounds[0], bounds[1])
            while pending:
                pid, pipe, lo, hi = pending[0]
                done = False
                if pid is not None:
                    done = _receive(pipe, rows, lo, hi)
                    pipe.close()
                    done = os.waitpid(pid, 0)[1] == 0 and done
                pending.pop(0)
                if not done:
                    chunk(lo, hi)
        finally:
            for pid, pipe, _, _ in pending:
                if pid is not None:
                    pipe.close()
                    os.kill(pid, 9)  # SIGKILL
                    os.waitpid(pid, 0)


# Extension modules that link the OpenBLAS bundled in numpy's and scipy's
# wheels, with the suffix of that build's symbols: a handle to a module
# also finds the symbols of the libraries it links.
_OPENBLAS = (("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._fblas", ""))


def _blas_pools() -> dict[str, tuple[Callable[[], int], Callable[[int], None]]]:
    """The ``(get, set)`` thread-count calls of each bundled OpenBLAS that is
    loaded, by the module that links it; ``RTLD_NOLOAD`` loads nothing."""
    pools = {}
    for module, suffix in _OPENBLAS:
        path = getattr(sys.modules.get(module), "__file__", None)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        pools[module] = (get, set_)
    return pools


# While a one-thread scope is open: for each OpenBLAS it put on one
# thread, the call and count that restore it.  None outside a scope.
_restore: dict[str, tuple[Callable[[int], None], int]] | None = None


def _one_thread_on_loaded_pools() -> None:
    """Inside a one-thread scope, put each loaded bundled OpenBLAS that is
    not on one thread yet there.  ``linalg`` calls it after importing
    scipy, whose OpenBLAS may first load inside a chunk."""
    if _restore is None:
        return
    for module, (get, set_) in _blas_pools().items():
        if module not in _restore:
            _restore[module] = (set_, get())
            set_(1)


@contextmanager
def _one_blas_thread():
    """Run the body with every bundled OpenBLAS on one thread, then restore
    each one's count.  A scope opened inside another leaves it to the outer."""
    global _restore
    if _restore is not None:
        yield
        return
    _restore = {}
    try:
        _one_thread_on_loaded_pools()
        yield
    finally:
        for set_, count in _restore.values():
            set_(count)
        _restore = None


def processes(trials: int) -> int:
    """How many processes ``map_trials`` runs ``trials`` trials on."""
    return max(1, min(usable_cpus(), trials)) if hasattr(os, "fork") else 1


def _bounds(trials: int) -> list[int]:
    """The edges of the contiguous blocks ``map_trials`` cuts
    ``range(trials)`` into, one block per process."""
    workers = processes(trials)
    return [trials * k // workers for k in range(workers + 1)]


def balanced_order(costs) -> list[int]:
    """An order of ``range(len(costs))`` that gives each block of
    ``map_trials`` about the same total cost.

    Trials are dealt heaviest first, each to the block with the least cost
    so far that still has room; inside a block they keep their index order,
    so on one process the order is the identity.  A caller that runs trial
    ``order[i]`` as trial ``i`` of ``map_trials`` spreads uneven trials
    evenly over the processes.
    """
    bounds = _bounds(len(costs))
    room = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    blocks = [[] for _ in room]
    loads = [0.0] * len(room)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = min((k for k in range(len(room)) if len(blocks[k]) < room[k]), key=loads.__getitem__)
        blocks[k].append(i)
        loads[k] += costs[i]
    return [i for block in blocks for i in sorted(block)]


def _fork(chunk, rows, lo: int, hi: int):
    """Start a child that computes block ``[lo, hi)`` and sends its rows.

    Returns ``(pid, pipe, lo, hi)``; ``pid`` is None when the system
    refuses the fork, and the caller then computes the block itself.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "This process .*is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None, None, lo, hi
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            chunk(lo, hi)
            for row in rows:
                view = memoryview(row[lo:hi]).cast("B")
                while view:
                    view = view[os.write(write_fd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb", buffering=0), lo, hi


def _receive(pipe, rows, lo: int, hi: int) -> bool:
    """Read a child's block into ``row[lo:hi]`` of each row; False if it
    ended short."""
    for row in rows:
        view = memoryview(row[lo:hi]).cast("B")
        while view:
            got = pipe.readinto(view)
            if not got:
                return False
            view = view[got:]
    return True
