"""One ``sparsecov`` command in a fresh interpreter, timed from inside.

Usage: ``python3 bench/child.py JOB.json``, with ``src`` on ``PYTHONPATH``.

The job file (written by ``run.py``) names the argv, the grid config to
write first (if any), whether to trace, and where to write the result.  The
child imports the package, prepares the config, reads the monotonic clock
(which the parent compares with its own spawn time to get ``setup_s``), and
then calls ``sparsecov.cli.main`` once.  A probe job stops before the call.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import sparsecov.cli


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas_threads():
    """Thread count the numpy-bundled OpenBLAS will use, or None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas = None
    return {
        "machine": platform.platform(),
        "processor": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if job["config"] is not None:
        with open(job["config_path"], "w") as fh:
            json.dump(job["config"], fh)
    argv = list(job["argv"])
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if job["probe"]:
        result["environment"] = environment()
    else:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result["exit_code"] = sparsecov.cli.main(argv)
        except Exception as exc:  # reported as a failed operation, not a crash
            result["exit_code"] = None
            result["error"] = repr(exc)
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(job["spans_path"])
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
