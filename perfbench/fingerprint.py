"""Environment pinning and the fingerprint that makes two results comparable."""

from __future__ import annotations

import importlib.metadata
import importlib.util
import os
import platform
import sys
from typing import Dict, Optional

#: Thread pools of BLAS/OpenMP back ends, pinned to one thread so a run's
#: busy threads are the ones the workload itself starts.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def pin_threads(environ=os.environ) -> None:
    """Set every BLAS/OpenMP thread variable to 1 (before numpy is imported)."""
    for name in THREAD_VARIABLES:
        environ[name] = "1"


def pin_cpu() -> int:
    """Run this process (and the processes it starts) on one CPU.

    With one CPU, the fleet's threads hand the interpreter lock and loopback
    requests to each other without waking a second, possibly descheduled,
    virtual CPU; the calibration loop then also measures the CPU the work
    runs on.  The lowest allowed CPU is taken, so the choice repeats.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _version(distribution: str) -> Optional[str]:
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(pinned_cpu: Optional[int] = None) -> Dict[str, object]:
    """What must match before two results may be compared.

    ``nproc`` is the machine's CPU count, not the one CPU a pinned run uses.
    """
    return {
        "nproc": os.cpu_count() or 1,
        "pinned_cpu": pinned_cpu,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "scipy": _version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def differences(left: Dict[str, object], right: Dict[str, object]) -> Dict[str, tuple]:
    """Fingerprint fields whose values differ, as ``field: (left, right)``."""
    return {key: (left.get(key), right.get(key))
            for key in sorted(set(left) | set(right))
            if left.get(key) != right.get(key)}
