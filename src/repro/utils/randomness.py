"""Deterministic random-number management.

Every stochastic component in the reproduction (topology generators, landmark
selection, overlay finger choice, workload sampling, error injection) takes an
explicit seed.  This module centralises how seeds are derived so that a single
top-level experiment seed fans out into independent, stable streams for each
component.

The scheme is simple and explicit: a *seed* plus a *tag* string are hashed
with SHA-256 and the first eight bytes are used as a 64-bit integer seed for
``random.Random``.  The hash guarantees that streams derived with different
tags are statistically independent, and that results are identical across
Python versions and platforms (unlike ``hash()`` which is salted).

One consumer draws below the FFI: Disco's overlay fingers
(:mod:`repro.core.overlay`).  Its C tier takes the same
:func:`derive_seed` values and replays CPython's MT19937 seeding and
``random()`` word for word, so a stream gives the same numbers there as in
``random.Random``; any other stream is drawn in Python.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "make_rng"]


def derive_seed(seed: int, tag: str) -> int:
    """Derive a stable 64-bit child seed from ``seed`` and a ``tag``.

    Parameters
    ----------
    seed:
        The parent seed.  Any Python integer (negative values allowed).
    tag:
        A human-readable label identifying the consumer, e.g. ``"landmarks"``
        or ``"topology/gnm"``.

    Returns
    -------
    int
        A non-negative integer strictly below ``2**64``.
    """
    material = f"{seed}:{tag}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int, tag: str = "") -> random.Random:
    """Return a ``random.Random`` seeded deterministically from seed + tag."""
    if tag:
        return random.Random(derive_seed(seed, tag))
    return random.Random(seed)
