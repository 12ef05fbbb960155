"""Topology generators used by the paper's evaluation.

The paper evaluates on four topology families (§5.1):

1. a 30,610-node AS-level map of the Internet,
2. a 192,244-node router-level map of the Internet,
3. G(n, m) random graphs with average degree 8,
4. geometric random graphs with average degree 8 and link latencies.

The CAIDA AS-level and router-level maps are not redistributable and not
available offline, so this module provides synthetic *Internet-like*
generators (preferential attachment for the AS level, a two-tier
backbone-plus-stub construction for the router level) that reproduce the
structural properties the evaluation depends on: heavy-tailed degree
distributions, small diameter, and the presence of highly "central" nodes
that blow up S4's clusters.  The substitution is documented in DESIGN.md §5.

Every generator returns a *connected* :class:`repro.graphs.Topology` and is
deterministic given its ``seed``.
"""

from __future__ import annotations

import math
import random

from repro.graphs.topology import Topology, TopologyBuilder
from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

__all__ = [
    "gnm_random_graph",
    "geometric_random_graph",
    "internet_as_level",
    "internet_router_level",
    "ring_graph",
    "line_graph",
    "grid_graph",
    "star_graph",
    "two_level_tree",
]


def _ensure_connected(topology: TopologyBuilder, rng: random.Random) -> None:
    """Connect components by adding random inter-component edges.

    All generators promise a connected result; rather than rejection-sampling
    whole graphs (which is slow for sparse parameter choices) we stitch
    components together with uniformly chosen endpoints.  The number of added
    edges is (number of components - 1), a vanishing perturbation.
    """
    components = topology.connected_components()
    if len(components) <= 1:
        return
    # Connect every other component to the largest one.
    components.sort(key=len, reverse=True)
    core = components[0]
    for component in components[1:]:
        u = rng.choice(core)
        v = rng.choice(component)
        topology.add_edge(u, v, 1.0)
        core = core + component


def gnm_random_graph(
    num_nodes: int,
    num_edges: int | None = None,
    *,
    average_degree: float = 8.0,
    seed: int = 0,
) -> Topology:
    """Return a connected G(n, m) random graph with unit edge weights.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    num_edges:
        Number of uniform-random edges ``m``.  If omitted, ``m`` is chosen so
        the average degree equals ``average_degree`` (8 in the paper).
    seed:
        RNG seed.
    """
    require_positive("num_nodes", num_nodes)
    rng = make_rng(seed, "gnm")
    if num_edges is None:
        num_edges = int(round(num_nodes * average_degree / 2.0))
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges > max_edges:
        raise ValueError(
            f"num_edges={num_edges} exceeds the maximum {max_edges} for "
            f"{num_nodes} nodes"
        )
    topology = TopologyBuilder(num_nodes, name=f"gnm-{num_nodes}")
    added = 0
    seen: set[tuple[int, int]] = set()
    while added < num_edges:
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        topology.add_edge(u, v, 1.0)
        added += 1
    _ensure_connected(topology, rng)
    return topology.freeze()


def geometric_random_graph(
    num_nodes: int,
    *,
    average_degree: float = 8.0,
    seed: int = 0,
    latency_scale: float = 100.0,
    latency_quantum: float | None = None,
) -> Topology:
    """Return a connected random geometric graph with latency edge weights.

    Nodes are placed uniformly in the unit square and connected when their
    Euclidean distance is below the radius that yields ``average_degree`` in
    expectation.  Edge weights are the Euclidean distances scaled by
    ``latency_scale`` (so a typical weight looks like a millisecond-scale
    latency rather than a fraction).  This is the latency-annotated topology
    family for which the paper reports the largest stretch differences
    between Disco and S4/VRR.

    ``latency_quantum`` optionally rounds every latency to the nearest
    positive multiple of the given quantum, modeling measured latencies with
    finite timer resolution.  Choosing a power-of-two quantum (e.g. 0.25)
    makes the topology eligible for the CSR engine's Dial bucket-queue
    kernel (see :class:`repro.graphs.csr.WeightProfile`); node placement and
    connectivity are unaffected by the rounding.
    """
    require_positive("num_nodes", num_nodes)
    require_positive("average_degree", average_degree)
    require_positive("latency_scale", latency_scale)
    if latency_quantum is not None:
        require_positive("latency_quantum", latency_quantum)
    rng = make_rng(seed, "geometric")
    # Expected degree for radius r in the unit square (ignoring boundary
    # effects) is n * pi * r^2; solve for r.
    radius = math.sqrt(average_degree / (math.pi * max(num_nodes - 1, 1)))
    positions = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    name = (
        f"geometric-{num_nodes}"
        if latency_quantum is None
        else f"geometric-q-{num_nodes}"
    )
    topology = TopologyBuilder(num_nodes, name=name)

    def latency(distance: float) -> float:
        value = distance * latency_scale
        if latency_quantum is None:
            return value
        return max(
            latency_quantum, round(value / latency_quantum) * latency_quantum
        )

    # Grid-bucket the points so neighbor search is O(n) rather than O(n^2).
    cell = radius if radius > 0 else 1.0
    buckets: dict[tuple[int, int], list[int]] = {}
    for index, (x, y) in enumerate(positions):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(index)

    for index, (x, y) in enumerate(positions):
        cx, cy = int(x / cell), int(y / cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in buckets.get((cx + dx, cy + dy), ()):
                    if other <= index:
                        continue
                    ox, oy = positions[other]
                    dist = math.hypot(x - ox, y - oy)
                    if dist <= radius and dist > 0:
                        topology.add_edge(index, other, latency(dist))

    # Stitch disconnected pieces together with latency proportional to the
    # actual Euclidean distance between the chosen endpoints.
    components = topology.connected_components()
    if len(components) > 1:
        components.sort(key=len, reverse=True)
        core = components[0]
        for component in components[1:]:
            u = rng.choice(core)
            v = rng.choice(component)
            ux, uy = positions[u]
            vx, vy = positions[v]
            dist = max(math.hypot(ux - vx, uy - vy), 1e-9)
            topology.add_edge(u, v, latency(dist))
            core = core + component
    return topology.freeze()


def internet_as_level(
    num_nodes: int,
    *,
    attachment_edges: int = 2,
    seed: int = 0,
) -> Topology:
    """Return a synthetic AS-level Internet-like topology (unit weights).

    Substitution for the CAIDA AS-links map used in the paper: a linear
    preferential-attachment (Barabási–Albert style) graph.  Each arriving
    node attaches to ``attachment_edges`` existing nodes chosen with
    probability proportional to degree, which yields the heavy-tailed degree
    distribution and ~3-4 hop average path lengths characteristic of the AS
    graph.  Links are unweighted (weight 1.0), as in the paper's AS-level
    experiments.
    """
    require_positive("num_nodes", num_nodes)
    require_positive("attachment_edges", attachment_edges)
    if num_nodes <= attachment_edges:
        raise ValueError(
            "num_nodes must exceed attachment_edges "
            f"({num_nodes} <= {attachment_edges})"
        )
    rng = make_rng(seed, "as-level")
    topology = TopologyBuilder(num_nodes, name=f"as-level-{num_nodes}")
    # Start from a small clique of attachment_edges + 1 nodes.
    seed_size = attachment_edges + 1
    repeated_nodes: list[int] = []
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            topology.add_edge(u, v, 1.0)
        repeated_nodes.extend([u] * attachment_edges)
    for new_node in range(seed_size, num_nodes):
        targets: set[int] = set()
        while len(targets) < attachment_edges:
            targets.add(rng.choice(repeated_nodes))
        for target in targets:
            topology.add_edge(new_node, target, 1.0)
            repeated_nodes.append(target)
        repeated_nodes.extend([new_node] * len(targets))
    return topology.freeze()


def internet_router_level(
    num_nodes: int,
    *,
    backbone_fraction: float = 0.15,
    stub_degree: int = 2,
    seed: int = 0,
) -> Topology:
    """Return a synthetic router-level Internet-like topology (unit weights).

    Substitution for the CAIDA router-level map.  Construction:

    1. A *backbone* of ``backbone_fraction * n`` routers wired by preferential
       attachment (heavy-tailed core, like AS-level but denser).
    2. The remaining routers are *stub* routers, each attached to
       ``stub_degree`` backbone or previously placed stub routers chosen with
       probability proportional to degree.  This produces the long tail of
       degree-1/2 access routers plus a small set of very high-degree
       aggregation routers -- exactly the structure that makes S4's clusters
       explode on some nodes while Disco's vicinities stay bounded.
    """
    require_positive("num_nodes", num_nodes)
    if not 0.0 < backbone_fraction < 1.0:
        raise ValueError(
            f"backbone_fraction must be in (0, 1), got {backbone_fraction}"
        )
    require_positive("stub_degree", stub_degree)
    rng = make_rng(seed, "router-level")
    backbone_size = max(int(round(num_nodes * backbone_fraction)), stub_degree + 2)
    backbone_size = min(backbone_size, num_nodes)
    topology = TopologyBuilder(num_nodes, name=f"router-level-{num_nodes}")

    # Backbone: preferential attachment with 3 edges per arriving router.
    backbone_attach = 3
    seed_size = min(backbone_attach + 1, backbone_size)
    repeated_nodes: list[int] = []
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            topology.add_edge(u, v, 1.0)
        repeated_nodes.extend([u] * backbone_attach)
    for new_node in range(seed_size, backbone_size):
        targets: set[int] = set()
        while len(targets) < min(backbone_attach, new_node):
            targets.add(rng.choice(repeated_nodes))
        for target in targets:
            topology.add_edge(new_node, target, 1.0)
            repeated_nodes.append(target)
        repeated_nodes.extend([new_node] * len(targets))

    # Stub routers: attach preferentially, mostly to the backbone.
    for new_node in range(backbone_size, num_nodes):
        attach = max(1, min(stub_degree, new_node))
        targets = set()
        while len(targets) < attach:
            targets.add(rng.choice(repeated_nodes))
        for target in targets:
            topology.add_edge(new_node, target, 1.0)
            repeated_nodes.append(target)
        # Stubs are appended once so they rarely attract future attachment,
        # keeping their degrees low (access-router behaviour).
        repeated_nodes.append(new_node)

    _ensure_connected(topology, rng)
    return topology.freeze()


def ring_graph(num_nodes: int, *, weight: float = 1.0) -> Topology:
    """Return a ring of ``num_nodes`` nodes (the worst case for address size)."""
    require_positive("num_nodes", num_nodes)
    topology = TopologyBuilder(num_nodes, name=f"ring-{num_nodes}")
    if num_nodes == 1:
        return topology.freeze()
    for node in range(num_nodes):
        topology.add_edge(node, (node + 1) % num_nodes, weight)
    return topology.freeze()


def line_graph(num_nodes: int, *, weight: float = 1.0) -> Topology:
    """Return a path graph of ``num_nodes`` nodes."""
    require_positive("num_nodes", num_nodes)
    topology = TopologyBuilder(num_nodes, name=f"line-{num_nodes}")
    for node in range(num_nodes - 1):
        topology.add_edge(node, node + 1, weight)
    return topology.freeze()


def grid_graph(rows: int, cols: int, *, weight: float = 1.0) -> Topology:
    """Return a ``rows x cols`` grid graph with uniform edge weights."""
    require_positive("rows", rows)
    require_positive("cols", cols)
    topology = TopologyBuilder(rows * cols, name=f"grid-{rows}x{cols}")

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topology.add_edge(node_id(r, c), node_id(r, c + 1), weight)
            if r + 1 < rows:
                topology.add_edge(node_id(r, c), node_id(r + 1, c), weight)
    return topology.freeze()


def star_graph(num_leaves: int, *, weight: float = 1.0) -> Topology:
    """Return a star: node 0 is the hub, nodes 1..num_leaves are leaves."""
    require_positive("num_leaves", num_leaves)
    topology = TopologyBuilder(num_leaves + 1, name=f"star-{num_leaves}")
    for leaf in range(1, num_leaves + 1):
        topology.add_edge(0, leaf, weight)
    return topology.freeze()


def two_level_tree(branching: int, *, child_weight: float = 2.0) -> Topology:
    """Return the §5.2 footnote-6 tree that breaks S4's state bound.

    Node 0 is the root with ``branching`` children at distance 1; each child
    has ``branching`` grandchildren attached along edges of weight
    ``child_weight`` (2 in the paper's construction).  On this topology the
    root ends up in the cluster of most grandchildren under S4's
    random-landmark rule, so its cluster is Θ(n).
    """
    require_positive("branching", branching)
    require_positive("child_weight", child_weight)
    num_nodes = 1 + branching + branching * branching
    topology = TopologyBuilder(num_nodes, name=f"two-level-tree-{branching}")
    for child_index in range(branching):
        child = 1 + child_index
        topology.add_edge(0, child, 1.0)
        for grandchild_index in range(branching):
            grandchild = 1 + branching + child_index * branching + grandchild_index
            topology.add_edge(child, grandchild, child_weight)
    return topology.freeze()
