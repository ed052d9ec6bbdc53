"""One benchmark run: a fresh interpreter that calls ``harness.cli.main``.

    python3 perfbench/child.py RECORD MODE SPAWN -- <descentlab CLI arguments>

``SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process; on Linux the monotonic clock is shared by all processes, so the
time until the call into ``harness.runner.run`` is the run's set-up time
(interpreter start, imports, config load and validation).  ``MODE`` is

- ``run``: time the call to ``run`` until the CSV is on disk;
- ``setup``: stop at the call to ``run`` without running, and record the
  environment (versions, BLAS threads);
- ``trace``: like ``run``, with every library layer wrapped by
  ``layertrace.Tracer``; the spans go to ``RECORD.spans.npz``.

The record (a JSON object) is written to ``RECORD`` even when the run
raises; the process exits with the CLI's status.  ``perfbench/run.py``
starts this script; it is not meant to be run by hand.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _environment() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def main() -> int:
    record_path, mode, spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    cli_args = sys.argv[5:]
    from descentlab.harness import cli

    record = {"mode": mode}
    tracer = None
    real_run = cli.run
    if mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        real_run = tracer.wrap("harness.runner.run", real_run)

    def timed_run(config):
        record["setup_s"] = time.monotonic() - spawn
        if mode == "setup":
            return 0
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            return real_run(config)
        except BaseException as exc:
            record["raised"] = type(exc).__name__
            raise
        finally:
            record["run_s"] = time.perf_counter() - t0
            record["cpu_s"] = _cpu_s() - cpu0

    cli.run = timed_run
    try:
        return cli.main(cli_args)
    finally:
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if mode == "setup":
            record["environment"] = _environment()
        if tracer is not None:
            record["trace"] = tracer.summary()
            import numpy

            numpy.savez(record_path + ".spans.npz", names=numpy.array(tracer.names), **tracer.arrays())
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
