"""Standard topologies used across the experiment suite.

The paper's four topology families (§5.1), produced at the sizes dictated by
an :class:`~repro.experiments.config.ExperimentScale`.  Each function is a
thin, named wrapper so every experiment that says "the AS-level topology"
builds exactly the same graph for the same scale and seed.

Every builder routes through :func:`cached_topology`: when the scenario
engine has an :class:`~repro.scenarios.cache.ArtifactCache` active, the
``(family, n, seed, parameters)`` construction inputs become a
content-addressed key and the build is deduplicated across all scenarios of
the run (and, with a disk-backed cache, across runs and worker processes).
Without an active cache the builders construct directly, exactly as before.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.config import ExperimentScale
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
    internet_router_level,
)
from repro.graphs.topology import Topology
from repro.scenarios.cache import active_cache

__all__ = [
    "cached_topology",
    "comparison_gnm",
    "comparison_geometric",
    "large_geometric",
    "as_level_topology",
    "router_level_topology",
    "real_topology",
    "sweep_gnm",
    "sweep_geometric",
]


def cached_topology(
    parts: tuple, build: Callable[[], Topology]
) -> Topology:
    """Build (or fetch) a topology keyed by its construction inputs.

    ``parts`` must uniquely describe the build -- generator family, node
    count, seed, and structural parameters -- because it becomes the cache
    key.  With no active cache this is just ``build()``.
    """
    cache = active_cache()
    if cache is None:
        return build()
    return cache.topology(parts, build)


def comparison_gnm(scale: ExperimentScale) -> Topology:
    """The G(n,m) comparison topology of Fig. 4 (1,024 nodes in the paper)."""
    return sweep_gnm(scale.comparison_nodes, scale.seed)


def comparison_geometric(scale: ExperimentScale) -> Topology:
    """The geometric comparison topology of Fig. 5 (1,024 nodes, latencies)."""
    return sweep_geometric(scale.comparison_nodes, scale.seed)


def large_geometric(scale: ExperimentScale) -> Topology:
    """The large geometric topology of Figs. 2/3 (16,384 nodes in the paper)."""
    return sweep_geometric(scale.large_nodes, scale.seed + 1)


def as_level_topology(scale: ExperimentScale) -> Topology:
    """Synthetic AS-level Internet-like topology (stands in for the CAIDA map)."""
    n, seed = scale.as_level_nodes, scale.seed + 2
    return cached_topology(
        ("as-level", n, seed),
        lambda: internet_as_level(n, seed=seed),
    )


def router_level_topology(scale: ExperimentScale) -> Topology:
    """Synthetic router-level Internet-like topology (stands in for CAIDA)."""
    n, seed = scale.router_level_nodes, scale.seed + 3
    return cached_topology(
        ("router-level", n, seed),
        lambda: internet_router_level(n, seed=seed),
    )


def real_topology(scale: ExperimentScale) -> Topology:
    """The ingested real-world dataset named by ``scale.topology_file``.

    Streams the dataset through :func:`repro.graphs.ingest.ingest_topology`
    (array-backed ``Topology``, content-addressed by file digest +
    format, largest connected component kept -- real maps are routinely
    disconnected).  Raises ``ValueError`` when the scale names no file.
    """
    if scale.topology_file is None:
        raise ValueError(
            "scale.topology_file is not set; pass --topology-file (CLI) "
            "or ExperimentScale(topology_file=...)"
        )
    from repro.graphs.ingest import ingest_topology

    return ingest_topology(
        scale.topology_file,
        fmt=scale.topology_format,
        largest_component=True,
    )


def sweep_gnm(n: int, seed: int, average_degree: float = 8.0) -> Topology:
    """A G(n,m) graph at an explicit size/seed (Fig. 8 sweep, churn study)."""
    return cached_topology(
        ("gnm", n, seed, average_degree),
        lambda: gnm_random_graph(n, seed=seed, average_degree=average_degree),
    )


def sweep_geometric(
    n: int, seed: int, average_degree: float = 8.0
) -> Topology:
    """A geometric graph at an explicit size/seed (Fig. 9 sweep)."""
    return cached_topology(
        ("geometric", n, seed, average_degree),
        lambda: geometric_random_graph(
            n, seed=seed, average_degree=average_degree
        ),
    )
