"""Landmark selection (§4.2).

"Landmarks are selected uniform-randomly by having each node decide locally
and independently whether to become a landmark.  Specifically, each node picks
a random number p uniform in [0, 1], and decides to become a landmark if
p < sqrt((log n)/n).  Thus, the expected number of landmarks is
sqrt(n log n)."

Two practical provisions from the paper are modelled as well:

* **Churn hysteresis** -- "a node v only flips its landmark status if n has
  changed by at least a factor 2 since the last time v changed its status",
  which :class:`LandmarkSet.reconsider` implements for the dynamic scenarios.
* **At least one landmark** -- with tiny n the random rule can select zero
  landmarks, in which case routing through landmarks would be impossible; the
  selector then promotes the node with the smallest draw, which preserves the
  "local decision" flavour (every node can compute the same fallback from the
  gossiped draws) while keeping small test topologies functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.graphs.topology import Topology
from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

__all__ = [
    "landmark_probability",
    "select_landmarks",
    "LandmarkSet",
]


def landmark_probability(num_nodes: int) -> float:
    """Return the per-node landmark probability sqrt(log n / n).

    Natural logarithm is used (the paper's analysis is asymptotic and
    indifferent to the base); the value is clamped to 1.0 for very small n
    where the formula exceeds one.
    """
    require_positive("num_nodes", num_nodes)
    if num_nodes == 1:
        return 1.0
    return min(1.0, math.sqrt(math.log(num_nodes) / num_nodes))


def select_landmarks(
    num_nodes: int,
    *,
    seed: int = 0,
    probability: float | None = None,
) -> set[int]:
    """Select landmarks by independent biased coin flips.

    Parameters
    ----------
    num_nodes:
        Number of nodes n.
    seed:
        RNG seed (each node's draw is derived from the seed and its id, so
        the decision really is per-node and insensitive to iteration order).
    probability:
        Override for the landmark probability; defaults to
        :func:`landmark_probability`.

    Returns
    -------
    set[int]
        The selected landmark node ids; never empty.
    """
    require_positive("num_nodes", num_nodes)
    p = landmark_probability(num_nodes) if probability is None else probability
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    draws: list[float] = []
    landmarks: set[int] = set()
    for node in range(num_nodes):
        draw = make_rng(seed, f"landmark-draw/{node}").random()
        draws.append(draw)
        if draw < p:
            landmarks.add(node)
    if not landmarks:
        landmarks.add(min(range(num_nodes), key=lambda v: draws[v]))
    return landmarks


@dataclass
class LandmarkSet:
    """The landmark set plus the bookkeeping for dynamic reconsideration.

    Attributes
    ----------
    landmarks:
        Current landmark node ids.
    seed:
        Seed the per-node draws derive from.
    population_at_last_change:
        Per-node record of the network size when that node last flipped its
        status; used by :meth:`reconsider` to implement the factor-2
        hysteresis rule of §4.2.
    """

    landmarks: set[int]
    seed: int = 0
    population_at_last_change: dict[int, int] = field(default_factory=dict)

    @classmethod
    def create(
        cls, topology_or_n: Topology | int, *, seed: int = 0
    ) -> "LandmarkSet":
        """Create a landmark set for a topology or a node count."""
        if isinstance(topology_or_n, Topology):
            num_nodes = topology_or_n.num_nodes
        else:
            num_nodes = int(topology_or_n)
        selected = select_landmarks(num_nodes, seed=seed)
        return cls(
            landmarks=selected,
            seed=seed,
            population_at_last_change={node: num_nodes for node in range(num_nodes)},
        )

    def __contains__(self, node: int) -> bool:
        return node in self.landmarks

    def __len__(self) -> int:
        return len(self.landmarks)

    def reconsider(self, node: int, current_n: int) -> bool:
        """Re-evaluate ``node``'s landmark status for a new network size.

        Implements the hysteresis rule: the node re-flips its biased coin
        (with the probability for ``current_n``) only if the network size has
        changed by at least a factor of 2 since its last status change.

        Returns
        -------
        bool
            True if the node's status changed.
        """
        require_positive("current_n", current_n)
        last_n = self.population_at_last_change.get(node, current_n)
        if last_n > 0 and 0.5 < current_n / last_n < 2.0:
            return False
        p = landmark_probability(current_n)
        draw = make_rng(self.seed, f"landmark-redraw/{node}/{current_n}").random()
        was_landmark = node in self.landmarks
        is_landmark = draw < p
        self.population_at_last_change[node] = current_n
        if is_landmark == was_landmark:
            return False
        if is_landmark:
            self.landmarks.add(node)
        else:
            self.landmarks.discard(node)
        return True

    def expected_count(self, num_nodes: int) -> float:
        """Expected number of landmarks for a network of ``num_nodes``."""
        return num_nodes * landmark_probability(num_nodes)
