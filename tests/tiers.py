"""The tests' one tier switch: the program's own, ``REPRO_NO_CKERNELS``.

Any non-empty value of the variable gives the pure-Python tier in every
layer that has a C kernel; no constructor or option picks a tier.
:func:`kernel_tier` sets or clears the variable around a block, so what the
block builds -- a ``CSRGraph``, a churn engine, an overlay -- takes that
tier, and a snapshot keeps it after the block.  ``tests/conftest.py``'s
``tier`` fixture runs a whole test inside it.  No other file under
``tests/`` writes the variable (a step of CI checks that).

The switch lives here rather than in ``conftest.py`` because a test module
cannot import from a conftest: ``benchmarks/conftest.py`` takes the
``conftest`` module name when the whole suite is collected.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.graphs._ckernels import load_kernels

#: The tier names: the ids of a tier-parametrised test.
TIERS = ("c", "python")

#: Marks a test that needs the C tier; skipped when the kernels do not load.
needs_c = pytest.mark.skipif(load_kernels() is None, reason="C kernels unavailable")


@contextmanager
def kernel_tier(name: str) -> Iterator[None]:
    """Run the body on the ``"python"`` tier (``REPRO_NO_CKERNELS=1``) or
    the ``"c"`` one (the variable cleared), then give the variable back the
    caller's value, unset included."""
    if name not in TIERS:
        raise ValueError(f"unknown tier {name!r}; expected one of {TIERS}")
    saved = os.environ.pop("REPRO_NO_CKERNELS", None)
    if name == "python":
        os.environ["REPRO_NO_CKERNELS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_NO_CKERNELS", None)
        if saved is not None:
            os.environ["REPRO_NO_CKERNELS"] = saved
