"""Landmark selection (§4.2).

"Landmarks are selected uniform-randomly by having each node decide locally
and independently whether to become a landmark.  Specifically, each node picks
a random number p uniform in [0, 1], and decides to become a landmark if
p < sqrt((log n)/n).  Thus, the expected number of landmarks is
sqrt(n log n)."

**At least one landmark** -- with tiny n the random rule can select zero
landmarks, in which case routing through landmarks would be impossible; the
selector then promotes the node with the smallest draw, which preserves the
"local decision" flavour (every node can compute the same fallback from the
gossiped draws) while keeping small test topologies functional.

§4.2's churn hysteresis -- "a node v only flips its landmark status if n has
changed by at least a factor 2 since the last time v changed its status" --
is not reproduced: no scenario changes n by a factor of two, and the churn
engine keeps one landmark set for a whole event stream, so no node ever
redraws its status (``docs/REPRODUCING.md`` lists it among the mechanisms
no user path runs).
"""

from __future__ import annotations

import math

from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

__all__ = ["landmark_probability", "select_landmarks"]


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
