"""Process hygiene, host fingerprint, speed probes and peak memory.

:func:`pin_environment` must run before numpy is first imported: BLAS
reads its thread count once, at load time.  Pinning every BLAS to one
thread cut the run-to-run spread of a cold zoo build from 25% to 3% on a
2-CPU host, and keeps the one multi-process workload (grid-fanout,
``jobs=2``) from oversubscribing the cores.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import time

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


# glibc mallopt parameters.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2**20  # glibc's ceiling for the mmap threshold
TRIM_THRESHOLD = 2**31 - 1


def pin_environment() -> dict:
    """Pin BLAS threads and the allocator, clear every ``REPRO_*`` knob.

    A leftover ``REPRO_OBSERVE``, ``REPRO_VERIFY``, ``REPRO_INFER``,
    ``REPRO_TRAINC``, ``REPRO_EXECUTOR``, ``REPRO_NUM_WORKERS``,
    ``REPRO_CHAOS`` or ``REPRO_MP_START`` would silently change what is
    measured; ``REPRO_CACHE_DIR`` is set afresh by each workload.

    By default glibc hands every freed array above 128 KiB back to the OS
    and page-faults it in again on the next allocation.  Inside a VM those
    faults cost a varying amount: the same potential-warm task ranged over
    +-20% within one process, uncorrelated with the host speed probe.
    Keeping freed memory in the heap removed that variance; forked workers
    inherit the setting.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    os.environ.update(PINNED_THREADS)
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        libc.mallopt.restype = ctypes.c_int
        allocator = bool(
            libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
            and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        )
    except (OSError, AttributeError):  # not glibc
        allocator = False
    return {
        "pinned": dict(PINNED_THREADS),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "cleared": cleared,
        "malloc": {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}
        if allocator else "default",
    }


def fingerprint() -> dict:
    """What the numbers of this run depend on, short of the code itself."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {key: os.environ.get(key) for key in PINNED_THREADS},
    }


def speed_probe() -> dict:
    """Host speed right now: BLAS GEMM rate and a pure-Python loop.

    Run before and after every measurement so that drift of a shared host
    between runs shows up next to the numbers it affects.
    """
    import numpy as np

    n = 192
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(10):
            a @ b
        best = min(best, (time.perf_counter() - t0) / 10)
    loops = 100_000
    best_loop = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i
        best_loop = min(best_loop, time.perf_counter() - t0)
    return {
        "gemm_gflops": 2 * n**3 / best / 1e9,
        "py_loop_ns": best_loop / loops * 1e9,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
