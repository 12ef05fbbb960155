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
from typing import Mapping, Sequence

from repro.addressing.labels import LabelCodec
from repro.core.disco import DiscoRouting
from repro.core.landmarks import select_landmarks
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
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
        Protocol names accepted by :func:`repro.protocols.build_scheme`.
    seed:
        Root seed for landmark selection, workload sampling, and every other
        random choice.
    shortcut_mode:
        Shortcutting heuristic used by Disco / NDDisco.
    num_fingers:
        Overlay fingers per node in Disco.
    scheme_options:
        Extra per-protocol constructor options, keyed by protocol name.
    """

    def __init__(
        self,
        topology: Topology,
        protocols: Sequence[str] = ("disco", "nd-disco", "s4"),
        *,
        seed: int = 0,
        shortcut_mode: ShortcutMode = ShortcutMode.NO_PATH_KNOWLEDGE,
        num_fingers: int = 1,
        scheme_options: Mapping[str, Mapping[str, object]] | None = None,
    ) -> None:
        if not protocols:
            raise ValueError("at least one protocol is required")
        self._topology = topology
        self._seed = seed
        self._shortcut_mode = shortcut_mode
        self._num_fingers = num_fingers
        self._options = {
            name.lower(): dict(opts) for name, opts in (scheme_options or {}).items()
        }
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
        nddisco_options = self._options.get("nd-disco", {})

        def get_nddisco() -> NDDiscoRouting:
            nonlocal shared_nddisco
            if shared_nddisco is None:
                shared_nddisco = converged_nddisco(
                    topology,
                    seed=seed,
                    shortcut_mode=self._shortcut_mode,
                    **nddisco_options,
                )
            return shared_nddisco

        for name in normalized:
            if name in self._schemes:
                continue
            if name in ("nd-disco", "nddisco"):
                scheme: RoutingScheme = get_nddisco()
            elif name == "disco":
                options = self._options.get("disco", {})
                scheme = cached_scheme(
                    topology,
                    "disco",
                    lambda: DiscoRouting(
                        topology,
                        seed=seed,
                        num_fingers=self._num_fingers,
                        nddisco=get_nddisco(),
                        **options,
                    ),
                    seed=seed,
                    num_fingers=self._num_fingers,
                    shortcut_mode=self._shortcut_mode,
                    # Disco embeds the NDDisco substrate built from the
                    # nd-disco options, so those options shape Disco's
                    # converged state and must be part of its key.
                    nddisco_options=tuple(sorted(nddisco_options.items())),
                    **options,
                )
            elif name == "s4":
                options = dict(self._options.get("s4", {}))
                # Use the same landmark set as Disco/NDDisco when both are
                # evaluated, mirroring the paper's like-for-like comparison:
                # S4 then adopts NDDisco's converged tables (the same SPTs,
                # addresses and closest-landmark rows) instead of
                # recomputing them.
                shares_landmarks = (
                    "disco" in normalized or "nd-disco" in normalized
                ) and "landmarks" not in options
                key_options = dict(options)
                names = options.pop("names", None)
                if shares_landmarks:
                    nddisco = get_nddisco()
                    names = nddisco.names if names is None else list(names)
                    build = lambda: S4Routing.from_tables(
                        topology, nddisco.tables, names, **options
                    )
                    # The tables cannot be hashed into the key, but they are
                    # fully determined by the topology content, the landmark
                    # set and the nd-disco options they were built from
                    # (e.g. custom names), so the key carries those plus a
                    # sharing flag instead.
                    key_options["landmarks"] = nddisco.landmarks
                    key_options["nddisco_options"] = tuple(
                        sorted(nddisco_options.items())
                    )
                else:
                    landmarks = options.pop("landmarks", None)
                    if landmarks is None:
                        landmarks = select_landmarks(topology.num_nodes, seed=seed)
                    build = lambda: S4Routing.from_tables(
                        topology,
                        substrate_tables(topology, landmarks, include_vicinity=False),
                        _names(topology, names),
                        **options,
                    )
                scheme = cached_scheme(
                    topology,
                    "s4",
                    build,
                    seed=seed,
                    substrate_shared=shares_landmarks,
                    **key_options,
                )
            elif name == "vrr":
                options = self._options.get("vrr", {})
                build = lambda: VirtualRingRouting.from_table(
                    topology,
                    cached_state(
                        topology,
                        "vrr",
                        lambda: VirtualRingRouting.converge(topology, seed=seed, **options),
                        seed=seed,
                        **options,
                    ),
                    **options,
                )
                scheme = cached_scheme(topology, "vrr", build, seed=seed, **options)
            else:
                options = self._options.get(name, {})
                scheme = cached_scheme(
                    topology,
                    name,
                    lambda name=name, options=options: build_scheme(
                        name, topology, seed=seed, **options
                    ),
                    seed=seed,
                    **options,
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
        congestion_pairs: Sequence[tuple[int, int]] | None = None,
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
        flows = (
            list(congestion_pairs)
            if congestion_pairs is not None
            else one_destination_per_node(self._topology, seed=self._seed + 2)
        )
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


def _names(topology: Topology, names) -> list[FlatName]:
    """``names`` as a list, or the default ``node-<id>`` names."""
    if names is None:
        return [name_for_node(v) for v in range(topology.num_nodes)]
    return list(names)


def substrate_tables(
    topology: Topology,
    landmarks,
    *,
    vicinity_scale: float = 1.0,
    include_vicinity: bool = True,
) -> SubstrateTables:
    """``build_substrate_tables`` with the label codec, through the active
    cache's ``tables`` kind: keyed by the topology content and these
    arguments, the only inputs that shape the slabs.  The tables are
    shared: callers must not write them."""
    from repro.scenarios.cache import cached_state

    return cached_state(
        topology,
        "tables",
        lambda: build_substrate_tables(
            topology,
            landmarks,
            codec=LabelCodec(topology),
            vicinity_scale=vicinity_scale,
            include_vicinity=include_vicinity,
        ),
        landmarks=set(landmarks),
        vicinity_scale=vicinity_scale,
        include_vicinity=include_vicinity,
    )


def converged_nddisco(
    topology: Topology,
    *,
    seed: int = 0,
    shortcut_mode: ShortcutMode = ShortcutMode.NO_PATH_KNOWLEDGE,
    **options: object,
) -> NDDiscoRouting:
    """``NDDiscoRouting(topology, seed=seed, ...)`` attached to
    :func:`substrate_tables` and memoized per process by the active cache:
    the one ND-Disco every scenario builds."""
    from repro.scenarios.cache import cached_scheme

    def attach() -> NDDiscoRouting:
        rest = dict(options)
        landmarks = rest.pop("landmarks", None)
        tables = substrate_tables(
            topology,
            select_landmarks(topology.num_nodes, seed=seed)
            if landmarks is None
            else landmarks,
            vicinity_scale=rest.pop("vicinity_scale", 1.0),
        )
        names = _names(topology, rest.pop("names", None))
        return NDDiscoRouting.from_tables(
            topology, tables, names, shortcut_mode=shortcut_mode, **rest
        )

    return cached_scheme(
        topology,
        "nd-disco",
        attach,
        seed=seed,
        shortcut_mode=shortcut_mode,
        **options,
    )
