"""Protocol registry: build any evaluated scheme by name.

The experiment harness and the examples refer to protocols by the names the
paper uses ("Disco", "ND-Disco", "S4", "VRR", "Path-Vector",
"Shortest-Path"); this registry maps those names to constructors so that a
figure's protocol list is just a list of strings.
"""

from __future__ import annotations

from typing import Callable

from repro.graphs.topology import Topology
from repro.protocols.base import RoutingScheme
from repro.protocols.pathvector import PathVectorRouting
from repro.protocols.s4 import S4Routing
from repro.protocols.shortest_path import ShortestPathRouting
from repro.protocols.vrr import VirtualRingRouting

__all__ = ["available_schemes", "build_scheme"]


def _build_disco(topology: Topology, seed: int, **kwargs) -> RoutingScheme:
    from repro.core.disco import DiscoRouting

    return DiscoRouting(topology, seed=seed, **kwargs)


def _build_nddisco(topology: Topology, seed: int, **kwargs) -> RoutingScheme:
    from repro.core.nddisco import NDDiscoRouting

    return NDDiscoRouting(topology, seed=seed, **kwargs)


_BUILDERS: dict[str, Callable[..., RoutingScheme]] = {
    "disco": _build_disco,
    "nd-disco": _build_nddisco,
    "nddisco": _build_nddisco,
    "s4": lambda topology, seed, **kwargs: S4Routing(topology, seed=seed, **kwargs),
    "vrr": lambda topology, seed, **kwargs: VirtualRingRouting(
        topology, seed=seed, **kwargs
    ),
    "path-vector": lambda topology, seed, **kwargs: PathVectorRouting(
        topology, seed=seed, **kwargs
    ),
    "shortest-path": lambda topology, seed, **kwargs: ShortestPathRouting(
        topology, seed=seed, **kwargs
    ),
}


def available_schemes() -> list[str]:
    """Return the canonical protocol names accepted by :func:`build_scheme`."""
    return ["disco", "nd-disco", "s4", "vrr", "path-vector", "shortest-path"]


def build_scheme(
    name: str, topology: Topology, *, seed: int = 0, **kwargs
) -> RoutingScheme:
    """Build the named protocol on ``topology``.

    Parameters
    ----------
    name:
        Case-insensitive protocol name; see :func:`available_schemes`.
    topology, seed:
        Passed to the protocol's constructor.
    kwargs:
        Protocol-specific options (e.g. ``shortcut_mode`` for NDDisco,
        ``nddisco`` for Disco, ``vset_size`` for VRR).

    Raises
    ------
    KeyError
        If the name is unknown.
    """
    key = name.strip().lower()
    if key not in _BUILDERS:
        raise KeyError(
            f"unknown routing scheme {name!r}; available: {available_schemes()}"
        )
    return _BUILDERS[key](topology, seed, **kwargs)
