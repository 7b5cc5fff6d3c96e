"""Benchmark worker: one process that runs ops on request from ``run.py``.

    python3 bench/worker.py FD SRC_DIR

The worker imports the package once and then serves requests over a pipe.
A request ``(calls, traced)`` runs the CLI calls back to back and
replies with the op's wall time, each call's exit code and printed lines,
and, when traced, the op's spans.  ``None`` asks for the process's peak RSS
and BLAS state and ends the loop.  Nothing else runs in this process, so
its peak RSS is the package's.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import io
import os
import resource
import sys
import time
import traceback
from dataclasses import astuple
from multiprocessing.connection import Connection


def _call(cli, argv: list[str]) -> tuple[object, list[str]]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash counts as a failed op, not a failed run
        traceback.print_exc()
        code = "exception"
    return code, out.getvalue().splitlines()


def run_op(cli, calls: list[list[str]], tracer) -> dict:
    gc.collect()
    if tracer is None:
        start = time.perf_counter()
        results = [_call(cli, argv) for argv in calls]
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "results": results, "spans": []}
    with tracer.op():
        start = time.perf_counter()
        results = tracer.span("op", lambda: [tracer.span("cli.main", _call, cli, argv) for argv in calls])
        seconds = time.perf_counter() - start
    return {"seconds": seconds, "results": results, "spans": [astuple(s) for s in tracer.spans]}


def blas_runtime() -> dict | None:
    """OpenBLAS build string and thread count as loaded into this process."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
        get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if get_threads is not None and get_config is not None:
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return {"config": get_config().decode(), "threads": get_threads()}
    return None


def serve(conn, src_dir: str) -> None:
    sys.path.insert(0, src_dir)
    from bohm_squeeze import cli
    from tracing import Tracer

    tracer = Tracer()
    while True:
        request = conn.recv()
        if request is None:
            break
        calls, traced = request
        conn.send(run_op(cli, calls, tracer if traced else None))
    conn.send({"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "blas": blas_runtime()})


if __name__ == "__main__":
    # worker.py FD SRC_DIR: serve requests on the socket inherited as FD.
    serve(Connection(int(sys.argv[1])), sys.argv[2])
