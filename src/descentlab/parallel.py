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

Processes rather than threads: numpy's linalg gufuncs hold the GIL, and
so does the Python of each trial, so a thread pool over trials gained no
wall time.

One BLAS thread.  Inside ``map_trials`` every process computes on one
BLAS thread, whether the library is imported or run through the CLI, so
the trials neither oversubscribe the cores nor carry bits that depend on
the thread count.  On entry the OpenBLAS bundled in numpy's wheel, the
only BLAS the library calls, is set to one thread, and on exit back to
its previous count; the children inherit the setting.  Where the
thread-count calls are not found (a system BLAS, another wheel layout),
the count is left as it is.  Outside ``map_trials`` a program that
imports the library keeps OpenBLAS's default.

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

- OpenBLAS stops its worker pool through a ``pthread_atfork`` handler
  before the fork and restarts it on next use, so the child inherits no
  BLAS lock held by a worker;
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


# numpy's core extension module links the OpenBLAS bundled in numpy's
# wheel, and a handle to a module also finds the symbols of the libraries
# it links.  That build is ILP64 and renames each symbol: ``dpotrf_``
# becomes ``scipy_dpotrf_64_``.
def _openblas(name: str, restype, *argtypes) -> Callable | None:
    """The call ``name`` of the OpenBLAS bundled in numpy's wheel, taking
    ``argtypes`` and returning ``restype``, or None where numpy is not
    loaded or the symbol is not found (another BLAS, another wheel
    layout).  ``RTLD_NOLOAD`` loads nothing."""
    module = sys.modules.get("numpy._core._multiarray_umath")
    try:
        call = ctypes.CDLL(module.__file__, mode=os.RTLD_NOLOAD)[f"scipy_{name}64_"]
    except (AttributeError, OSError):
        return None
    call.argtypes, call.restype = argtypes, restype
    return call


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its
    count.  A scope opened inside another restores the one thread it found."""
    get = _openblas("openblas_get_num_threads", ctypes.c_int)
    set_ = _openblas("openblas_set_num_threads", None, ctypes.c_int)
    if get is None or set_ is None:
        yield
        return
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


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
