"""Build protocols side by side and measure them uniformly.

:class:`StaticSimulation` is the workhorse behind every state / stretch /
congestion figure: given a topology and a list of protocol names it

1. builds each protocol's converged state, reusing the expensive shared
   substrate (landmark selection, landmark SPTs, vicinities, names) between
   Disco and NDDisco exactly as one deployment would,
2. samples measurement workloads (nodes, source-destination pairs, one flow
   per node) once, so every protocol is measured on identical inputs, and
3. returns per-protocol :class:`~repro.metrics.StateReport`,
   :class:`~repro.metrics.StretchReport` and
   :class:`~repro.metrics.CongestionReport` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.disco import DiscoRouting
from repro.core.landmarks import select_landmarks
from repro.core.nddisco import NDDiscoRouting
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import SubstrateTables
from repro.graphs.sampling import one_destination_per_node, sample_nodes, sample_pairs
from repro.graphs.topology import Topology
from repro.metrics.congestion import CongestionReport, measure_congestion
from repro.metrics.state import StateReport, measure_state
from repro.metrics.stretch import StretchReport, measure_stretch
from repro.naming.names import FlatName, name_for_node
from repro.protocols.base import RoutingScheme
from repro.protocols.registry import build_scheme
from repro.protocols.s4 import S4Routing
from repro.protocols.vrr import VirtualRingRouting

__all__ = [
    "SimulationResults",
    "StaticSimulation",
    "converged_nddisco",
    "substrate_tables",
]


@dataclass
class SimulationResults:
    """Measurement reports per protocol, keyed by protocol display name."""

    topology_name: str
    state: dict[str, StateReport] = field(default_factory=dict)
    stretch: dict[str, StretchReport] = field(default_factory=dict)
    congestion: dict[str, CongestionReport] = field(default_factory=dict)

    def protocols(self) -> list[str]:
        """Protocol names with at least one report."""
        names = set(self.state) | set(self.stretch) | set(self.congestion)
        return sorted(names)


class StaticSimulation:
    """Converged-state evaluation of several protocols on one topology.

    Parameters
    ----------
    topology:
        The network to evaluate on (must be connected).
    protocols:
        Protocol names accepted by :func:`repro.protocols.build_scheme`,
        each built with its defaults.  A scheme in another configuration
        (other names, landmarks or shortcut mode) is built with its own
        constructor and measured with :mod:`repro.metrics`.
    seed:
        Root seed for landmark selection, workload sampling, and every other
        random choice.
    """

    def __init__(
        self,
        topology: Topology,
        protocols: Sequence[str],
        *,
        seed: int = 0,
    ) -> None:
        if not protocols:
            raise ValueError("at least one protocol is required")
        self._topology = topology
        self._seed = seed
        self._schemes: dict[str, RoutingScheme] = {}
        self._build(list(protocols))

    def _build(self, protocols: list[str]) -> None:
        # When the scenario engine has an artifact cache active, the
        # converged state (tables, VRR's ring table) is fetched from its
        # store and every scheme is attached to it and memoized in memory
        # -- fig02 and fig03 measuring the same substrates from different
        # angles build them once.  Without an active cache, cached_state
        # and cached_scheme are plain call-throughs.
        from repro.scenarios.cache import cached_scheme, cached_state

        topology, seed = self._topology, self._seed
        normalized = [name.strip().lower() for name in protocols]
        shared_nddisco: NDDiscoRouting | None = None

        def get_nddisco() -> NDDiscoRouting:
            nonlocal shared_nddisco
            if shared_nddisco is None:
                shared_nddisco = converged_nddisco(topology, seed=seed)
            return shared_nddisco

        for name in normalized:
            if name in self._schemes:
                continue
            if name in ("nd-disco", "nddisco"):
                scheme: RoutingScheme = get_nddisco()
            elif name == "disco":
                scheme = cached_scheme(
                    topology,
                    "disco",
                    lambda: DiscoRouting(topology, seed=seed, nddisco=get_nddisco()),
                    seed=seed,
                )
            elif name == "s4":
                # Use the same landmark set as Disco/NDDisco when both are
                # evaluated, mirroring the paper's like-for-like comparison:
                # S4 then adopts NDDisco's converged tables (the same SPTs,
                # closest-landmark rows and address bits) instead of
                # recomputing them.
                shares_landmarks = "disco" in normalized or "nd-disco" in normalized
                if shares_landmarks:
                    nddisco = get_nddisco()
                    build = lambda: S4Routing.from_nddisco(nddisco)
                else:
                    build = lambda: S4Routing.from_tables(
                        topology,
                        substrate_tables(
                            topology,
                            select_landmarks(topology.num_nodes, seed=seed),
                            include_vicinity=False,
                        ),
                        _default_names(topology),
                    )
                scheme = cached_scheme(
                    topology,
                    "s4",
                    build,
                    seed=seed,
                    substrate_shared=shares_landmarks,
                )
            elif name == "vrr":
                build = lambda: VirtualRingRouting.from_table(
                    topology,
                    cached_state(
                        topology,
                        "vrr",
                        lambda: VirtualRingRouting.converge(topology, seed=seed),
                        seed=seed,
                    ),
                )
                scheme = cached_scheme(topology, "vrr", build, seed=seed)
            else:
                scheme = cached_scheme(
                    topology,
                    name,
                    lambda name=name: build_scheme(name, topology, seed=seed),
                    seed=seed,
                )
            self._schemes[name] = scheme

    # -- accessors -----------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The topology under evaluation."""
        return self._topology

    @property
    def schemes(self) -> dict[str, RoutingScheme]:
        """The built protocol instances keyed by canonical name."""
        return dict(self._schemes)

    def scheme(self, name: str) -> RoutingScheme:
        """Return the built protocol instance for ``name``."""
        return self._schemes[name.strip().lower()]

    # -- measurement ----------------------------------------------------------

    def run(
        self,
        *,
        measure_state_flag: bool = True,
        measure_stretch_flag: bool = True,
        measure_congestion_flag: bool = False,
        node_sample: int | None = None,
        pair_sample: int = 500,
        measure_protocols: Sequence[str] | None = None,
    ) -> SimulationResults:
        """Measure the requested metrics for every protocol.

        All protocols see the same sampled nodes, pairs, and flows --
        the workloads are a function of the topology and seed alone, so
        restricting ``measure_protocols`` to a subset of the built
        protocols yields reports byte-identical to the corresponding
        slice of a full run.  The scenario engine's protocol-granularity
        shards (Figs. 4/5) rely on exactly that: each shard builds its
        protocol (plus the substrate it is coupled to) and measures only
        its own.
        """
        results = SimulationResults(topology_name=self._topology.name)
        if measure_protocols is None:
            selected = list(self._schemes.values())
        else:
            selected = [
                self._schemes[name.strip().lower()]
                for name in measure_protocols
            ]
        nodes = (
            sample_nodes(self._topology, node_sample, seed=self._seed)
            if node_sample is not None
            else list(self._topology.nodes())
        )
        pairs = sample_pairs(self._topology, pair_sample, seed=self._seed + 1)
        flows = one_destination_per_node(self._topology, seed=self._seed + 2)
        # The true shortest distances are a function of topology and pairs
        # alone, so all protocols share one table (the batched measurement
        # engine then shares per-target relay state within each scheme).
        distances = None
        if measure_stretch_flag and selected:
            measured_pairs = [(s, t) for s, t in pairs if s != t]
            distances = self._topology.csr().batched_target_distances(
                measured_pairs
            )
        for scheme in selected:
            if measure_state_flag:
                results.state[scheme.name] = measure_state(scheme, nodes=nodes)
            if measure_stretch_flag:
                results.stretch[scheme.name] = measure_stretch(
                    scheme, pairs=pairs, distances=distances
                )
            if measure_congestion_flag:
                results.congestion[scheme.name] = measure_congestion(
                    scheme, pairs=flows
                )
        return results


def _default_names(topology: Topology) -> list[FlatName]:
    """The default ``node-<id>`` names."""
    return [name_for_node(v) for v in range(topology.num_nodes)]


def substrate_tables(
    topology: Topology,
    landmarks,
    *,
    include_vicinity: bool = True,
) -> SubstrateTables:
    """``build_substrate_tables`` through the active cache's ``tables``
    kind: keyed by the topology content and these arguments, the only
    inputs that shape the slabs.  The tables are shared: callers must not
    write them."""
    from repro.scenarios.cache import cached_state

    return cached_state(
        topology,
        "tables",
        lambda: build_substrate_tables(
            topology,
            landmarks,
            include_vicinity=include_vicinity,
        ),
        landmarks=set(landmarks),
        include_vicinity=include_vicinity,
    )


def converged_nddisco(topology: Topology, *, seed: int = 0) -> NDDiscoRouting:
    """``NDDiscoRouting(topology, seed=seed)`` attached to
    :func:`substrate_tables` and memoized per process by the active cache:
    the one ND-Disco every scenario builds."""
    from repro.scenarios.cache import cached_scheme

    return cached_scheme(
        topology,
        "nd-disco",
        lambda: NDDiscoRouting.from_tables(
            topology,
            substrate_tables(
                topology, select_landmarks(topology.num_nodes, seed=seed)
            ),
            _default_names(topology),
        ),
        seed=seed,
    )
