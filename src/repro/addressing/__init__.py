"""Compact addresses: per-hop labels, explicit routes, and node addresses.

NDDisco's address for node ``v`` is "the identifier of its closest landmark
ℓv, paired with the necessary information to forward along ℓv ; v" -- an
explicit route of per-hop forwarding labels, each encoded in O(log d) bits at
a node of degree d (§4.2, following the Pathlet-routing label format).  This
package implements that encoding, the explicit-route container, the address
object, and the byte accounting the paper uses when it reports that addresses
on the router-level Internet map average 2.93 bytes.
"""

from repro.addressing.labels import (
    address_bits,
    hop_label_bits,
    route_labels,
)
from repro.addressing.explicit_route import ExplicitRoute
from repro.addressing.address import Address, NAME_BYTES_IPV4, NAME_BYTES_IPV6

__all__ = [
    "Address",
    "ExplicitRoute",
    "NAME_BYTES_IPV4",
    "NAME_BYTES_IPV6",
    "address_bits",
    "hop_label_bits",
    "route_labels",
]
