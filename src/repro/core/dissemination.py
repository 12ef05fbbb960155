"""Address dissemination over the overlay (§4.4).

"Within this overlay, we can efficiently disseminate routing state in a
manner very close to a distance vector (DV) routing protocol," with four
differences from standard DV: announcements carry only (name, address); they
are propagated only between nodes that believe each other to be in the same
sloppy group; and -- the key loop-freedom trick -- "node v propagates
advertisements only to those nodes in N(v) ∩ G(v) which would cause the
message to continue in the same direction: that is, announcements received
from an overlay neighbor with higher hash-value are propagated only to
neighbors with lower hash-values, and vice-versa."

:class:`AddressDissemination` simulates that propagation for any set of
originating nodes and reports the quantities the paper studies:

* message counts (total, and per node) -- feeds Fig. 8's Disco overhead and
  the 1-vs-3-finger comparison,
* announcement hop distances (mean / max overlay hops to reach a store) --
  the "average and maximum distances traveled by address announcements were
  5.77 and 24 [1 finger] ... 3.04 and 16 [3 fingers]" measurement,
* coverage -- whether every node that *should* store an address (the
  converged model of :meth:`SloppyGrouping.stores_address_of`) actually
  receives the announcement, which empirically validates the static model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.overlay import DisseminationOverlay
from repro.utils.distributions import summarize

__all__ = ["DisseminationReport", "AddressDissemination"]


@dataclass(frozen=True)
class DisseminationReport:
    """Aggregate results of disseminating announcements from many origins.

    Attributes
    ----------
    total_messages:
        Total overlay messages sent across all announcements.
    messages_per_node:
        Mean messages sent per node.
    mean_hop_distance, max_hop_distance:
        Mean / max overlay-hop distance at which receiving nodes first got an
        announcement.
    coverage:
        Fraction of (origin, intended-store) pairs that the announcement
        actually reached.
    origins:
        Number of origins simulated.
    """

    total_messages: int
    messages_per_node: float
    mean_hop_distance: float
    max_hop_distance: int
    coverage: float
    origins: int


class AddressDissemination:
    """Simulates direction-monotone DV dissemination over the overlay."""

    def __init__(self, overlay: DisseminationOverlay) -> None:
        self._overlay = overlay
        self._grouping = overlay.grouping

    @property
    def overlay(self) -> DisseminationOverlay:
        """The overlay announcements travel over."""
        return self._overlay

    def disseminate_from(
        self, origin: int
    ) -> tuple[dict[int, int], int]:
        """Disseminate ``origin``'s announcement; return (hop distances, messages).

        Returns
        -------
        (reached, messages)
            ``reached`` maps every node that received (and accepted) the
            announcement to the overlay-hop count at which it first arrived;
            the origin itself is included at distance 0.  ``messages`` is the
            number of overlay messages sent.
        """
        grouping = self._grouping
        origin_hash = grouping.hash_of(origin)
        reached: dict[int, int] = {origin: 0}
        messages = 0
        # Each queue item is (node, direction, hops). direction is +1 if the
        # announcement is travelling toward higher hash values, -1 otherwise.
        queue: deque[tuple[int, int, int]] = deque()

        def forward(sender: int, hops: int, direction: int | None) -> int:
            """Send from ``sender`` to eligible neighbors; return messages sent."""
            sent = 0
            for neighbor in self._overlay.group_neighbors(sender):
                neighbor_hash = grouping.hash_of(neighbor)
                sender_hash = grouping.hash_of(sender)
                if neighbor_hash == sender_hash:
                    continue
                step_direction = 1 if neighbor_hash > sender_hash else -1
                if direction is not None and step_direction != direction:
                    continue
                # The neighbor must also consider the *origin* part of its
                # group to accept and re-propagate the announcement.
                sent += 1
                if not grouping.believes_same_group(neighbor, origin):
                    continue
                if neighbor not in reached or reached[neighbor] > hops + 1:
                    if neighbor not in reached:
                        queue.append((neighbor, step_direction, hops + 1))
                    reached[neighbor] = min(reached.get(neighbor, hops + 1), hops + 1)
            return sent

        # The origin sends in both directions.
        messages += forward(origin, 0, None)
        while queue:
            node, direction, hops = queue.popleft()
            messages += forward(node, hops, direction)
        # Remove nodes that received copies but do not themselves consider the
        # origin a group member (they neither store nor re-propagate), except
        # they were never added to `reached` in the first place; the origin
        # hash bookkeeping above already enforces this.
        del origin_hash
        return reached, messages

    def run(
        self, origins: Iterable[int] | None = None
    ) -> DisseminationReport:
        """Disseminate announcements from ``origins`` (default: every node)."""
        grouping = self._grouping
        n = grouping.num_nodes
        origin_list: Sequence[int] = (
            list(origins) if origins is not None else list(range(n))
        )
        if not origin_list:
            raise ValueError("origins must be non-empty")
        total_messages = 0
        hop_samples: list[int] = []
        intended = 0
        covered = 0
        for origin in origin_list:
            reached, messages = self.disseminate_from(origin)
            total_messages += messages
            hop_samples.extend(h for node, h in reached.items() if node != origin)
            for holder in range(n):
                if holder == origin:
                    continue
                if grouping.stores_address_of(holder, origin):
                    intended += 1
                    if holder in reached:
                        covered += 1
        hop_summary = summarize(hop_samples) if hop_samples else None
        return DisseminationReport(
            total_messages=total_messages,
            messages_per_node=total_messages / n,
            mean_hop_distance=hop_summary.mean if hop_summary else 0.0,
            max_hop_distance=int(hop_summary.maximum) if hop_summary else 0,
            coverage=(covered / intended) if intended else 1.0,
            origins=len(origin_list),
        )
