"""Explicit routes: the forwarding half of an NDDisco address.

An explicit route is the sequence of per-hop forwarding labels that steers a
packet from a landmark ℓv down the landmark's shortest-path tree to the node
v (§4.2).  The route also remembers the node path it encodes, because several
parts of the system need it:

* the Up-Down-Stream / Path-Knowledge shortcutting heuristics inspect "the
  global identifiers of every node along the path" carried on the first
  packet (§4.2),
* the state accounting needs the bit size of the label encoding,
* the simulators replay the hops to charge congestion to edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.addressing.labels import LabelCodec

__all__ = ["ExplicitRoute"]


@dataclass(frozen=True)
class ExplicitRoute:
    """A label-encoded source route from ``path[0]`` to ``path[-1]``.

    Attributes
    ----------
    path:
        The node path, including both endpoints.
    labels:
        The per-hop local link indices (``len(path) - 1`` of them).
    bits:
        Size of the label encoding in bits.
    """

    path: tuple[int, ...]
    labels: tuple[int, ...]
    bits: int
    _reversed: "ExplicitRoute | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.path) == 0:
            raise ValueError("explicit route must contain at least one node")
        if len(self.labels) != len(self.path) - 1:
            raise ValueError(
                f"label count {len(self.labels)} does not match path of "
                f"{len(self.path)} nodes"
            )
        if self.bits < 0:
            raise ValueError("bits must be >= 0")

    @classmethod
    def from_path(cls, codec: LabelCodec, path: Sequence[int]) -> "ExplicitRoute":
        """Build an explicit route for ``path`` using ``codec``'s link numbering."""
        labels = codec.encode_path(path)
        bits = codec.path_bits(path)
        return cls(path=tuple(path), labels=tuple(labels), bits=bits)

    @property
    def source(self) -> int:
        """First node of the route (the landmark, for an address route)."""
        return self.path[0]

    @property
    def destination(self) -> int:
        """Last node of the route (the addressed node)."""
        return self.path[-1]

    @property
    def hop_count(self) -> int:
        """Number of hops (edges) in the route."""
        return len(self.path) - 1

    @property
    def size_bytes(self) -> float:
        """Size of the label encoding in fractional bytes (bits / 8)."""
        return self.bits / 8.0

    @property
    def wire_bytes(self) -> int:
        """Size on the wire: whole bytes (bits rounded up)."""
        return math.ceil(self.bits / 8.0)

    def __len__(self) -> int:
        return len(self.path)
