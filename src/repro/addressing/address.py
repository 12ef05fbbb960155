"""NDDisco / Disco node addresses.

"The address of node v is the identifier of its closest landmark ℓv, paired
with the necessary information to forward along ℓv ; v" (§4.2), where that
information is an :class:`~repro.addressing.ExplicitRoute`.  Addresses are
location-dependent but used only internally by the protocol, and they are
what the name-resolution database and the sloppy-group dissemination protocol
carry around.  The converged schemes store no address: ℓv is
``closest[v]`` and the route is ℓv's row of the SPT parent slab
(:class:`~repro.core.tables.SubstrateTables`), so
:meth:`~repro.core.nddisco.NDDiscoRouting.address_of` builds this object
for one node on request.

Byte accounting
---------------
Fig. 7 of the paper reports per-node state both in entries and in bytes, for
two name sizes: IPv4-sized (4-byte) and IPv6-sized (16-byte) node names.  An
address's byte size is::

    name_bytes(landmark identifier) + explicit-route label bytes

and a (name, address) mapping entry additionally pays ``name_bytes`` for the
destination's own name.  The name sizes live here so every state metric uses
the same constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addressing.explicit_route import ExplicitRoute

__all__ = ["Address", "NAME_BYTES_IPV4", "NAME_BYTES_IPV6"]

NAME_BYTES_IPV4 = 4
"""Size of a node name/identifier when names are IPv4-sized (Fig. 7)."""

NAME_BYTES_IPV6 = 16
"""Size of a node name/identifier when names are IPv6-sized (Fig. 7)."""


@dataclass(frozen=True)
class Address:
    """The routable address of a node.

    Attributes
    ----------
    node:
        The node this address belongs to (its graph id; the *name* is a
        separate :class:`~repro.naming.FlatName`).
    landmark:
        The node's closest landmark ℓv.
    route:
        Explicit route from ``landmark`` to ``node``.  For a node that is its
        own landmark the route is the single-node path ``(node,)``.
    """

    node: int
    landmark: int
    route: ExplicitRoute

    def __post_init__(self) -> None:
        if self.route.source != self.landmark:
            raise ValueError(
                f"address route must start at the landmark {self.landmark}, "
                f"starts at {self.route.source}"
            )
        if self.route.destination != self.node:
            raise ValueError(
                f"address route must end at the node {self.node}, "
                f"ends at {self.route.destination}"
            )

    @property
    def is_landmark_self(self) -> bool:
        """True if the node is itself a landmark (empty forwarding route)."""
        return self.node == self.landmark

    def size_bytes(self, name_bytes: int = NAME_BYTES_IPV4) -> float:
        """Size of the address: landmark identifier plus the route labels.

        Fractional bytes are preserved (see
        :attr:`repro.addressing.ExplicitRoute.size_bytes`).
        """
        if name_bytes <= 0:
            raise ValueError(f"name_bytes must be > 0, got {name_bytes}")
        return float(name_bytes) + self.route.size_bytes

    def __repr__(self) -> str:
        return (
            f"Address(node={self.node}, landmark={self.landmark}, "
            f"hops={self.route.hop_count}, bits={self.route.bits})"
        )
