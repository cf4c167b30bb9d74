"""The process the benchmark starts for each measured solve, and for the
host probe. It imports gwasgls from the checkout's `src/`.

    child.py solve <report.json> <work dir> <trace 0|1> -- <gwasgls solve args>
    child.py host <report.json>

`solve` times one `gwasgls.cli.main(["solve", ...])` call from entry to
return. Untraced, it adds a single hook: the first entry into
`fileio.BlockReader.wait` in each process writes a timestamp file into the
work dir, which marks the end of that process's set-up. Traced, every
layer entry point records spans (see spans.py) into the work dir.

`host` reports the BLAS build, its thread count and a dgemm rate.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DGEMM_N = 2000


def stamp_first_wait(fileio, work_dir):
    wait = fileio.BlockReader.wait
    stamped = set()

    def first_wait_stamp(self, ticket):
        pid = os.getpid()
        if pid not in stamped:
            stamped.add(pid)
            now = time.perf_counter_ns()
            with open(os.path.join(work_dir, f"first-wait-{pid}"), "w") as f:
                f.write(str(now))
        return wait(self, ticket)

    fileio.BlockReader.wait = first_wait_stamp


def solve(report, work_dir, traced, argv):
    from gwasgls import cli, distgrid, fileio, kernel, pipeline, transport

    main = cli.main
    if traced:
        rec = spans.Recorder()
        spans.install(rec, dict(kernel=kernel, fileio=fileio, pipeline=pipeline,
                                distgrid=distgrid, transport=transport), work_dir)
        main = rec.wrap("cli.main", main)
    else:
        stamp_first_wait(fileio, work_dir)
    t0 = time.perf_counter_ns()
    rc = main(argv)
    t1 = time.perf_counter_ns()
    if traced:
        rec.dump(work_dir)
    with open(report, "w") as f:
        json.dump({"rc": rc, "entry_ns": t0, "exit_ns": t1}, f)
    return 0


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host(report):
    import numpy as np
    import scipy

    a = np.random.default_rng(0).standard_normal((DGEMM_N, DGEMM_N))
    b = a.T.copy()
    a @ b  # warm up
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dgemm_gflops": 2 * DGEMM_N ** 3 / sorted(times)[1] / 1e9,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
    with open(report, "w") as f:
        json.dump(facts, f)
    return 0


if __name__ == "__main__":
    cmd, report, *rest = sys.argv[1:]
    if cmd == "host":
        sys.exit(host(report))
    work_dir, traced, sep, *argv = rest
    if cmd != "solve" or sep != "--":
        sys.exit(f"usage: {__doc__}")
    sys.exit(solve(report, work_dir, traced == "1", argv))
