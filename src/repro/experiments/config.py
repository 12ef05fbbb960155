"""Experiment sizing.

Every experiment derives its topology sizes, sample counts, and sweep ranges
from an :class:`ExperimentScale`.  The default is sized to finish in seconds
to a few minutes per experiment in pure Python; ``REPRO_SCALE`` (a float
multiplier) or an explicit :class:`ExperimentScale` instance scales the node
counts toward the paper's original dimensions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["ExperimentScale", "default_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Dimensions shared across the experiment suite.

    Attributes
    ----------
    comparison_nodes:
        Size of the 1,024-node comparison topologies (Figs. 4 and 5).
    large_nodes:
        Size of the "large" topologies that stand in for the paper's
        16,384-node graphs (Figs. 2, 3, 6).
    as_level_nodes, router_level_nodes:
        Sizes of the synthetic Internet-like topologies standing in for the
        30,610-node AS-level and 192,244-node router-level CAIDA maps.
    pair_sample:
        Source-destination pairs sampled for stretch measurements.
    node_sample:
        Nodes sampled for state measurements on large topologies (None means
        every node).
    messaging_sweep:
        Node counts for the Fig. 8 convergence-messaging sweep.
    scaling_sweep:
        Node counts for the Fig. 9 scaling sweep.
    seed:
        Root seed shared by all experiments.
    topology_file, topology_format:
        Optional real-topology dataset: a path ingested through
        :mod:`repro.graphs.ingest` with the named registered format.
        When set, the figure scenarios that accept it grow a "real
        topology" panel/column next to their synthetic ones (and the
        ``repro run --topology-file`` CLI populates it).
    """

    comparison_nodes: int = 1024
    large_nodes: int = 1024
    as_level_nodes: int = 1024
    router_level_nodes: int = 1536
    pair_sample: int = 400
    node_sample: int | None = None
    messaging_sweep: tuple[int, ...] = (64, 128, 192, 256)
    scaling_sweep: tuple[int, ...] = (256, 512, 768, 1024)
    seed: int = 2010
    label: str = field(default="default")
    topology_file: str | None = None
    topology_format: str = "edge-list"

    def scaled(self, factor: float) -> "ExperimentScale":
        """Return a copy with all node counts multiplied by ``factor``.

        Sizes are clamped to at least 16 nodes; a sweep whose sizes then
        coincide keeps each size once, in order (a repeated size would be
        the same measurement twice).
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")

        def scale_int(value: int) -> int:
            return max(16, int(round(value * factor)))

        def scale_sweep(sizes: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(dict.fromkeys(scale_int(v) for v in sizes))

        return ExperimentScale(
            comparison_nodes=scale_int(self.comparison_nodes),
            large_nodes=scale_int(self.large_nodes),
            as_level_nodes=scale_int(self.as_level_nodes),
            router_level_nodes=scale_int(self.router_level_nodes),
            pair_sample=max(50, int(round(self.pair_sample * min(factor, 4.0)))),
            node_sample=self.node_sample,
            messaging_sweep=scale_sweep(self.messaging_sweep),
            scaling_sweep=scale_sweep(self.scaling_sweep),
            seed=self.seed,
            label=f"{self.label}×{factor:g}",
            topology_file=self.topology_file,
            topology_format=self.topology_format,
        )


def default_scale() -> ExperimentScale:
    """Return the default scale, honouring the ``REPRO_SCALE`` env variable."""
    base = ExperimentScale()
    raw = os.environ.get("REPRO_SCALE", "").strip()
    if not raw:
        return base
    try:
        factor = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_SCALE must be a number, got {raw!r}"
        ) from exc
    return base.scaled(factor)
