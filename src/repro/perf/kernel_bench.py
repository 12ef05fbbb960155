"""Host facts for benchmark result files.

The benchmark lives outside the package (``bench/``, run as ``python -m
bench measure``); this module keeps its name because ``bench/harness.py``
imports :func:`host_metadata` from here for the host block of every
results file.
"""

from __future__ import annotations

import os
import platform

__all__ = ["host_metadata"]


def _cpu_model() -> str:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_metadata() -> dict:
    """Host facts that make recorded benchmark numbers interpretable.

    Numbers measured on different machines (CPU model, core count, Python
    build, kernel tier) can then be compared with eyes open rather than
    assumed equivalent.  ``kernel_threads`` is the resolved in-kernel
    thread fan-out the run's batched entry points used
    (``REPRO_KERNEL_THREADS``, else the CPU count).
    """
    from repro.graphs import _ckernels
    from repro.graphs.csr import kernel_threads

    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "kernel_tier": "c" if _ckernels.load_kernels() is not None else "python",
        "kernel_threads": kernel_threads(),
        "kernel_threads_env": os.environ.get("REPRO_KERNEL_THREADS") or None,
    }
