"""The machine and software a result was measured on.

Results are comparable only when MACHINE_KEYS agree: numbers from another
CPU, core count or kernel backend (numba against numpy) do not count against
each other.
"""

from __future__ import annotations

import ctypes
import os
import platform

MACHINE_KEYS = ("cpu_model", "nproc", "kernel_backend")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _thp_enabled():
    """Whether transparent huge pages may back this process, or None if the
    kernel does not say."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("THP_enabled:"):
                    return line.split()[1] == "1"
    except OSError:
        pass
    return None


def environment() -> dict:
    """Describe this process; spheremix must be importable."""
    import numpy as np

    import spheremix

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thp_enabled": _thp_enabled(),
        "kernel_backend": spheremix.kernel_backend(),
    }


def mismatches(a: dict, b: dict) -> list:
    """Machine keys on which two environments differ."""
    return [k for k in MACHINE_KEYS if a.get(k) != b.get(k)]
