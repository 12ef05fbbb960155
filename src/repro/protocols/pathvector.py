"""Path-vector routing: the protocol NDDisco's route learning is built from.

In the converged state, path vector is shortest-path routing: every node
holds one route per destination and packets follow shortest paths.  What
distinguishes it is the *control plane* -- each node remembers the full set
of route advertisements received from each neighbor, Θ(δ·n) state for a node
of degree δ, and convergence costs many messages (the quantity Fig. 8
measures; see :mod:`repro.sim.agents.pathvector_agent` for the dynamic
model).  NDDisco runs exactly this protocol but accepts a route only if its
destination is a landmark or among the Θ(√(n log n)) closest nodes currently
advertised (§4.2 "Learning paths to landmarks and vicinities").
"""

from __future__ import annotations

from repro.protocols.shortest_path import ShortestPathRouting

__all__ = ["PathVectorRouting"]


class PathVectorRouting(ShortestPathRouting):
    """Converged path-vector routing.

    Data-plane state and routes match :class:`ShortestPathRouting`; the
    convergence messaging is simulated by the discrete-event simulator.
    """

    name = "Path-Vector"
