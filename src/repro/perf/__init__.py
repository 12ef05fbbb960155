"""Host description for the benchmark (``bench/``, outside the package).

See :mod:`repro.perf.kernel_bench`.
"""

from repro.perf.kernel_bench import host_metadata

__all__ = ["host_metadata"]
