"""Facts about the machine a result was measured on.

Import this only after the launcher has pinned the BLAS thread count:
`facts` imports numpy.
"""

from __future__ import annotations

import ctypes
import os
import platform

STAT_PATH = "/proc/stat"
CPUINFO_PATH = "/proc/cpuinfo"
MAPS_PATH = "/proc/self/maps"


def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs, or None where unreadable."""
    try:
        with open(STAT_PATH, encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    ticks = [int(value) for value in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user and nice.
    return ticks[7], sum(ticks[:8])


def steal_share(before, after):
    """Share of all CPU time stolen by other tenants between two `cpu_ticks`."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _cpu_model():
    try:
        with open(CPUINFO_PATH, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loaded_openblas():
    try:
        with open(MAPS_PATH, encoding="utf-8", errors="replace") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    libs = sorted(path for path in paths if path.endswith(".so") or ".so." in path)
    return libs[0] if libs else None


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None for another BLAS."""
    path = _loaded_openblas()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    # numpy's wheels rename OpenBLAS symbols; a system OpenBLAS keeps them.
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        func = getattr(lib, symbol, None)
        if func is not None:
            func.restype = ctypes.c_int
            return int(func())
    return None


def facts(thread_env: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": dict(thread_env),
    }


def blas_key(machine: dict) -> str:
    """What a byte-exact reference depends on: the BLAS build and its threads."""
    return f"{machine['blas_name']} {machine['blas_version']} threads={machine['blas_threads']}"
