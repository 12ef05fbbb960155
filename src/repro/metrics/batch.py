"""Route whole pair batches through one router.

Each scheme's routing rule is written once, in the
:class:`~repro.protocols.base.PairRouter` living beside the scheme
(``core/nddisco.py``, ``core/disco.py``, ``protocols/s4.py``; the generic
router in ``protocols/base.py`` serves every other scheme).
``scheme.first_packet_route`` routes one pair on a fresh router; a
measurement builds one router and routes its whole batch on it, so
landmark SPT path extractions, relay segments, compact routes (shared by a
pair's first- and later-packet routes), Disco's group-contact candidate
rows and edge weights are derived once per batch instead of once per
pair.  Same code either way, hence byte-identical results.  The routers
die with the batch; the one memo that outlives them is the member ->
position index of each vicinity or ball row a route tested
(``NodeSearchTables._index``), kept on the scheme's tables on purpose:
36.3 MiB at n = 4096 and 2.2 MiB at the bench ``route`` size, against
+29 % ``work_s`` on that workload (medians 0.204 s -> 0.263 s) for
-0.8 MiB of peak RSS when every router started from empty indexes.
"""

from __future__ import annotations

from typing import Iterable

from repro.protocols.base import PairRouter, RouteResult, RoutingScheme

__all__ = ["PairRouter", "make_router", "route_pairs_batch"]


def make_router(scheme: RoutingScheme) -> PairRouter:
    """The batch router for ``scheme``: ``scheme.router()``."""
    return scheme.router()


def route_pairs_batch(
    scheme: RoutingScheme, pairs: Iterable[tuple[int, int]]
) -> list[tuple[RouteResult, RouteResult]]:
    """Route every pair; returns ``(first_packet, later_packets)`` per pair."""
    router = scheme.router()
    return [router.pair(source, target) for source, target in pairs]
