"""Arithmetic on the circular hash space.

Disco's distributed name database hashes every node name with "a well-known
hash function h(v) (e.g., SHA-2)" into a roughly uniform bit string (§4.4).
Sloppy groups are defined by shared hash prefixes; the dissemination overlay
orders nodes circularly by hash value and chooses Symphony-style fingers by
hash-space distance.  This module centralises the bit/interval arithmetic so
the group, overlay, and dissemination code all agree on conventions.

The hash space is the ring of integers modulo ``2**HASH_BITS`` with
``HASH_BITS = 64``: 64 bits are far more than the Θ(log n) bits the paper
requires and keep every value a cheap machine integer.
"""

from __future__ import annotations

__all__ = [
    "HASH_BITS",
    "HASH_SPACE",
    "clockwise_distance",
    "circular_distance",
    "common_prefix_length",
    "hash_prefix",
]

HASH_BITS = 64
"""Number of bits in a hash-space position."""

HASH_SPACE = 1 << HASH_BITS
"""Size of the circular hash space (2**HASH_BITS)."""


def _check_position(name: str, value: int) -> None:
    if not 0 <= value < HASH_SPACE:
        raise ValueError(
            f"{name} must be in [0, 2**{HASH_BITS}), got {value!r}"
        )


def clockwise_distance(start: int, end: int) -> int:
    """Distance travelled going clockwise (increasing) from ``start`` to ``end``."""
    _check_position("start", start)
    _check_position("end", end)
    return (end - start) % HASH_SPACE


def circular_distance(a: int, b: int) -> int:
    """Shortest distance between ``a`` and ``b`` on the ring (either direction)."""
    forward = clockwise_distance(a, b)
    return min(forward, HASH_SPACE - forward)


def common_prefix_length(a: int, b: int, *, bits: int = HASH_BITS) -> int:
    """Number of leading bits shared by ``a`` and ``b`` (viewed as ``bits``-bit words)."""
    _check_position("a", a)
    _check_position("b", b)
    if bits <= 0 or bits > HASH_BITS:
        raise ValueError(f"bits must be in [1, {HASH_BITS}], got {bits}")
    diff = (a ^ b) >> (HASH_BITS - bits)
    if diff == 0:
        return bits
    return bits - diff.bit_length()


def hash_prefix(value: int, num_bits: int) -> int:
    """Return the top ``num_bits`` bits of ``value`` as an integer.

    ``num_bits == 0`` returns 0 (everyone shares the empty prefix), which is
    what the sloppy-group computation needs for tiny networks where
    ``k = floor(log2(sqrt(n)/log n))`` is not positive.
    """
    _check_position("value", value)
    if num_bits < 0 or num_bits > HASH_BITS:
        raise ValueError(f"num_bits must be in [0, {HASH_BITS}], got {num_bits}")
    if num_bits == 0:
        return 0
    return value >> (HASH_BITS - num_bits)
