"""Shared utilities used across the Disco reproduction.

This package holds small, dependency-free helpers:

* :mod:`repro.utils.randomness` -- deterministic RNG management so every
  experiment is reproducible from a single integer seed.
* :mod:`repro.utils.distributions` -- CDF / percentile / summary helpers used
  by the metrics and reporting layers.
* :mod:`repro.utils.formatting` -- plain-text table and CDF rendering used by
  the experiment harness to print paper-style rows.
* :mod:`repro.utils.validation` -- argument-validation helpers that raise
  uniform, descriptive errors.
"""

from repro.utils.distributions import (
    Summary,
    cdf_points,
    percentile,
    summarize,
)
from repro.utils.formatting import format_cdf, format_table
from repro.utils.randomness import derive_seed, make_rng
from repro.utils.validation import require_in_range, require_positive

__all__ = [
    "Summary",
    "cdf_points",
    "derive_seed",
    "format_cdf",
    "format_table",
    "make_rng",
    "percentile",
    "require_in_range",
    "require_positive",
    "summarize",
]
