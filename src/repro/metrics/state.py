"""Per-node routing-state measurement (Figs. 2, 4, 5, 7, 9).

"We measure data plane state for the protocols.  This includes everything
necessary to forward a packet after the protocol has converged" (§5.2).  The
definition of what counts lives in one method per protocol,
:meth:`~repro.protocols.base.RoutingScheme.state_profile`; this module
samples nodes, collects the per-node values, and summarises them the way the
paper reports them (CDFs over nodes, means and maxima, kilobytes for IPv4-
and IPv6-sized names).

A profile gives a node's entries and its bytes as ``per * name_bytes +
fixed``, so one call serves both name sizes of Fig. 7.  That split is exact,
not a fit: every byte term of every scheme is linear in the name size and
every constant is a multiple of 1/8 (label bits / 8) far below 2**50, so each
partial sum is a double held exactly and the byte columns equal, to the bit,
a per-size sum in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.addressing.address import NAME_BYTES_IPV4, NAME_BYTES_IPV6
from repro.graphs.sampling import sample_nodes
from repro.protocols.base import RoutingScheme
from repro.utils.distributions import Summary, summarize

__all__ = ["StateReport", "measure_state"]


@dataclass(frozen=True)
class StateReport:
    """State measurements for one protocol on one topology.

    Attributes
    ----------
    scheme:
        Protocol name.
    nodes:
        The node ids measured (all nodes, or a sample on large topologies).
    entries:
        Per-node routing-table entry counts, aligned with ``nodes``.
    bytes_ipv4, bytes_ipv6:
        Per-node state in bytes with 4-byte and 16-byte names.
    """

    scheme: str
    nodes: tuple[int, ...]
    entries: tuple[int, ...]
    bytes_ipv4: tuple[float, ...]
    bytes_ipv6: tuple[float, ...]

    @property
    def entry_summary(self) -> Summary:
        """Summary statistics of the entry counts."""
        return summarize(self.entries)

    @property
    def bytes_ipv4_summary(self) -> Summary:
        """Summary statistics of the IPv4-name byte counts."""
        return summarize(self.bytes_ipv4)

    @property
    def bytes_ipv6_summary(self) -> Summary:
        """Summary statistics of the IPv6-name byte counts."""
        return summarize(self.bytes_ipv6)

    def kilobytes_row(self) -> dict[str, float]:
        """The Fig. 7 row for this protocol: mean/max entries and kilobytes."""
        entries = self.entry_summary
        ipv4 = self.bytes_ipv4_summary
        ipv6 = self.bytes_ipv6_summary
        return {
            "entries_mean": entries.mean,
            "entries_max": entries.maximum,
            "kb_ipv4_mean": ipv4.mean / 1024.0,
            "kb_ipv4_max": ipv4.maximum / 1024.0,
            "kb_ipv6_mean": ipv6.mean / 1024.0,
            "kb_ipv6_max": ipv6.maximum / 1024.0,
        }


def measure_state(
    scheme: RoutingScheme,
    *,
    nodes: Sequence[int] | None = None,
    node_sample: int | None = None,
    seed: int = 0,
) -> StateReport:
    """Measure per-node state for ``scheme``.

    Parameters
    ----------
    nodes:
        Explicit node ids to measure.  Default: every node, or a sample of
        ``node_sample`` nodes if that is given.
    node_sample:
        Number of nodes to sample when ``nodes`` is not given.
    seed:
        Sampling seed.

    One :meth:`~repro.protocols.base.RoutingScheme.state_profile` call
    over the measured nodes gives the entries and, read at 4 and 16 bytes
    per name, both byte columns.
    """
    topology = scheme.topology
    if nodes is None:
        if node_sample is None:
            measured = list(topology.nodes())
        else:
            measured = sample_nodes(topology, node_sample, seed=seed)
    else:
        measured = list(nodes)
    if not measured:
        raise ValueError("no nodes to measure")
    entries, per, fixed = scheme.state_profile(measured)
    return StateReport(
        scheme=scheme.name,
        nodes=tuple(measured),
        entries=tuple(entries),
        bytes_ipv4=tuple(p * NAME_BYTES_IPV4 + f for p, f in zip(per, fixed)),
        bytes_ipv6=tuple(p * NAME_BYTES_IPV6 + f for p, f in zip(per, fixed)),
    )
