"""What the harness expects of a workload, and helpers they share.

A workload is a module or an instance with these members; the harness in
:mod:`bench.harness` is the only caller:

``NAME`` / ``SIZES``
    The name in ``BENCHMARK.json`` and the default size table.  Tests pass a
    smaller table; there is no flag or environment variable for it.
``setup(seed, sizes, rec) -> state``
    Build the inputs (and any converged state) the timed section needs.
    Called several times per run; its wall clock is ``setup_s``.
``repeat(state, rec) -> Repeat``
    Run the timed section once inside ``rec.span(TIMED)``.
``check(state, repeat) -> (checked, bad)``
    The correctness check of one repeat's output, outside every timer.
``probe(state, rec, repeat) -> dict``
    Traced run only: the direct kernel and service calls no timed section
    makes (on the last repeat's output), returning per-layer metrics by name.
``layers(state, rec, repeat) -> dict``
    Traced run only: per-layer metrics derived from the recorded spans.
``cleanup(state)``
    Remove whatever ``setup`` left on disk.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field

__all__ = [
    "Repeat",
    "fixed_landmarks",
    "make_scratch",
    "median_s",
    "ratio",
    "remove_scratch",
    "sha256_of",
]

#: Files a workload hands to the program live here (ignored by git); the
#: benchmark reads and writes nothing outside its checkout.
SCRATCH_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scratch"
)


def fixed_landmarks(num_nodes: int, seed: int) -> list[int]:
    """A seeded landmark set of exactly the expected size, ``round(n p)``.

    ``select_landmarks`` flips a coin per node: 67 to 97 landmarks over ten
    seeds at n = 1024.  Where that count moved an end-to-end metric by more
    than a third of its bound the workload passes this set in instead:
    `churn_*` (every event scans one SPT row per landmark: the median edge
    event ran from 16 ms at 67 to 25 ms at 97, a spread of 23 % against 9 %)
    and `converge` and `resolve` (the slabs hold one row per landmark: peak
    memory spread by 6 % against 1 %).  `route` and the `suite` children
    keep the program's own selection.
    """
    from repro.core.landmarks import landmark_probability
    from repro.utils.randomness import make_rng

    count = round(num_nodes * landmark_probability(num_nodes))
    rng = make_rng(seed, "bench-landmarks")
    return sorted(rng.sample(range(num_nodes), count))


def make_scratch(tag: str) -> str:
    """A fresh directory under ``bench/scratch`` for one ``setup`` call."""
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=SCRATCH_ROOT)


def remove_scratch(path: str) -> None:
    """Delete a :func:`make_scratch` directory, and the root once empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH_ROOT)
    except OSError:
        pass  # other runs still have directories there


@dataclass
class Repeat:
    """One run of a workload's timed section."""

    seconds: float  #: wall clock spent inside the ``TIMED`` span(s)
    ops: int  #: operations the section performed (routes, events, ...)
    digest: str  #: sha256 of the canonical output
    output: object  #: what ``check`` and ``layers`` read
    #: A workload whose section takes seconds may cut it into consecutive
    #: ``parts`` (they sum to ``seconds``) and run ``harness.spin`` between
    #: them: ``len(parts) - 1`` ``spins``, so each part is scaled by its own.
    parts: list[float] = field(default_factory=list)
    spins: list[float] = field(default_factory=list)


def sha256_of(*parts) -> str:
    """sha256 over buffers (hashed raw) and plain values (hashed by repr).

    ``repr`` of ints, floats, strings and tuples of them is a pure function
    of the value, so equal outputs give equal digests across processes.
    """
    hasher = hashlib.sha256()
    for part in parts:
        try:
            hasher.update(memoryview(part))
        except TypeError:
            hasher.update(repr(part).encode())
    return hasher.hexdigest()


def median_s(rec, name: str, field: str = "seconds") -> float:
    """Median duration in seconds of the kept spans called ``name``."""
    durations = rec.durations(name, field)
    return statistics.median(durations) if durations else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there was nothing to divide by."""
    return numerator / denominator if denominator else 0.0
