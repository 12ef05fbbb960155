"""Ablation studies of Disco's design choices.

DESIGN.md calls out four design decisions whose alternatives the paper
discusses but does not quantify; each ablation here measures the trade-off:

1. **Vicinity size constant** (§4.2): vicinities are Θ(√(n log n)); scaling
   the constant trades state for first-packet stretch (too-small vicinities
   also threaten the landmark-in-vicinity property).
2. **Landmark selection policy** (§6): random vs highest-degree
   ("well-provisioned") vs spread (k-center) landmarks, at the same budget.
3. **Address design** (§4.2): explicit-route addresses vs the fixed-size
   hierarchical block addresses; the paper asserts the block scheme
   "actually increase[s] the mean address size in practice".
4. **Resolution-database load smoothing** (§4.5): consistent hashing with one
   hash function vs several virtual points per landmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addressing.block_addresses import BlockAddressAllocator
from repro.core.disco import DiscoRouting
from repro.core.landmark_policies import (
    degree_based_landmarks,
    random_landmarks,
    spread_landmarks,
    target_landmark_count,
)
from repro.core.nddisco import NDDiscoRouting
from repro.core.resolution import LandmarkResolutionDatabase
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header
from repro.experiments.workloads import comparison_gnm, router_level_topology
from repro.graphs.sampling import sample_pairs
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch
from repro.naming.names import name_for_node
from repro.scenarios.spec import scenario
from repro.utils.distributions import summarize
from repro.utils.formatting import format_table

__all__ = [
    "VicinityAblationRow",
    "LandmarkPolicyRow",
    "AddressDesignResult",
    "ResolutionBalanceRow",
    "AblationResult",
    "run",
    "format_report",
]


@dataclass(frozen=True)
class VicinityAblationRow:
    """State/stretch trade-off for one vicinity-size constant."""

    scale_factor: float
    vicinity_size: int
    mean_state: float
    mean_first_stretch: float
    max_first_stretch: float


@dataclass(frozen=True)
class LandmarkPolicyRow:
    """State/stretch for one landmark-selection policy at a fixed budget."""

    policy: str
    num_landmarks: int
    mean_state: float
    max_state: float
    mean_first_stretch: float
    max_first_stretch: float


@dataclass(frozen=True)
class AddressDesignResult:
    """Mean/max address size for explicit routes vs block addresses."""

    explicit_mean_bytes: float
    explicit_max_bytes: float
    block_mean_bytes: float
    block_max_bytes: float
    block_bits: int


@dataclass(frozen=True)
class ResolutionBalanceRow:
    """Resolution-database load imbalance for one virtual-node setting."""

    virtual_nodes: int
    max_over_mean_load: float


@dataclass(frozen=True)
class AblationResult:
    """All four ablations bundled together."""

    vicinity: tuple[VicinityAblationRow, ...]
    landmark_policies: tuple[LandmarkPolicyRow, ...]
    address_design: AddressDesignResult
    resolution_balance: tuple[ResolutionBalanceRow, ...]
    num_nodes: int
    scale_label: str


def _vicinity_ablation(topology, scale, factors=(0.5, 1.0, 2.0)):
    pairs = sample_pairs(topology, min(scale.pair_sample, 300), seed=scale.seed + 31)
    rows = []
    for factor in factors:
        nddisco = NDDiscoRouting(topology, seed=scale.seed, vicinity_scale=factor)
        disco = DiscoRouting(topology, seed=scale.seed, nddisco=nddisco)
        stretch = measure_stretch(disco, pairs=pairs)
        state = measure_state(disco)
        rows.append(
            VicinityAblationRow(
                scale_factor=factor,
                vicinity_size=len(nddisco.tables.vicinity.row(0)[0]),
                mean_state=state.entry_summary.mean,
                mean_first_stretch=stretch.first_summary.mean,
                max_first_stretch=stretch.first_summary.maximum,
            )
        )
    return tuple(rows)


def _landmark_policy_ablation(topology, scale):
    budget = target_landmark_count(topology.num_nodes)
    policies = {
        "random": random_landmarks(topology, seed=scale.seed),
        "degree-based": degree_based_landmarks(topology, count=budget),
        "spread (k-center)": spread_landmarks(topology, count=budget, seed=scale.seed),
    }
    pairs = sample_pairs(topology, min(scale.pair_sample, 300), seed=scale.seed + 37)
    rows = []
    for label, landmarks in policies.items():
        nddisco = NDDiscoRouting(topology, seed=scale.seed, landmarks=landmarks)
        disco = DiscoRouting(topology, seed=scale.seed, nddisco=nddisco)
        stretch = measure_stretch(disco, pairs=pairs)
        state = measure_state(disco)
        rows.append(
            LandmarkPolicyRow(
                policy=label,
                num_landmarks=len(landmarks),
                mean_state=state.entry_summary.mean,
                max_state=state.entry_summary.maximum,
                mean_first_stretch=stretch.first_summary.mean,
                max_first_stretch=stretch.first_summary.maximum,
            )
        )
    return tuple(rows)


def _address_design_ablation(topology, scale):
    nddisco = NDDiscoRouting(topology, seed=scale.seed)
    explicit_sizes = [bits / 8.0 for bits in nddisco.address_bits]
    explicit = summarize(explicit_sizes)

    # Block addresses: one allocator per landmark, partitioning an O(log n)-bit
    # block down that landmark's full shortest-path tree (§4.2 sketch).  A
    # node's block address comes from its closest landmark's allocator.
    allocators: dict[int, BlockAddressAllocator] = {}
    block_sizes = []
    block_bits = 0
    for node in topology.nodes():
        landmark = nddisco.closest_landmark(node)
        if landmark not in allocators:
            parents = {
                other: (
                    nddisco.landmark_path(landmark, other)[-2]
                    if other != landmark
                    else -1
                )
                for other in topology.nodes()
            }
            allocators[landmark] = BlockAddressAllocator(topology, landmark, parents)
        allocator = allocators[landmark]
        block_bits = allocator.block_bits
        block_sizes.append(allocator.address_of(node).size_bytes)
    block = summarize(block_sizes)
    return AddressDesignResult(
        explicit_mean_bytes=explicit.mean,
        explicit_max_bytes=explicit.maximum,
        block_mean_bytes=block.mean,
        block_max_bytes=block.maximum,
        block_bits=block_bits,
    )


def _resolution_balance_ablation(topology, scale, settings=(1, 4, 16)):
    names = [name_for_node(v) for v in topology.nodes()]
    landmarks = random_landmarks(topology, seed=scale.seed)
    rows = []
    for virtual_nodes in settings:
        # Load balance depends only on key placement: no route bits.
        database = LandmarkResolutionDatabase(
            landmarks, names, [0] * len(names), virtual_nodes=virtual_nodes
        )
        loads = [database.entries_at(landmark) for landmark in landmarks]
        mean = sum(loads) / len(loads)
        rows.append(
            ResolutionBalanceRow(
                virtual_nodes=virtual_nodes,
                max_over_mean_load=max(loads) / max(mean, 1e-9),
            )
        )
    return tuple(rows)


# The four studies are independent measurements (each builds its own
# schemes from the topology and seed), so they are the scenario engine's
# shard unit.  Each shard returns ``(value, num_nodes | None)``; the gnm
# node count rides along so the merge does not rebuild the topology.
_ABLATION_SHARDS = (
    "vicinity",
    "landmark-policies",
    "address-design",
    "resolution-balance",
)


def _run_ablation_shard(scale: ExperimentScale, key: str):
    if key == "address-design":
        return (_address_design_ablation(router_level_topology(scale), scale), None)
    gnm = comparison_gnm(scale)
    if key == "vicinity":
        return (_vicinity_ablation(gnm, scale), gnm.num_nodes)
    if key == "landmark-policies":
        return (_landmark_policy_ablation(gnm, scale), gnm.num_nodes)
    if key == "resolution-balance":
        return (_resolution_balance_ablation(gnm, scale), gnm.num_nodes)
    raise ValueError(f"unknown ablation shard {key!r}")


def _merge_ablation_shards(
    scale: ExperimentScale, parts: dict[str, tuple]
) -> AblationResult:
    return AblationResult(
        vicinity=parts["vicinity"][0],
        landmark_policies=parts["landmark-policies"][0],
        address_design=parts["address-design"][0],
        resolution_balance=parts["resolution-balance"][0],
        num_nodes=parts["vicinity"][1],
        scale_label=scale.label,
    )


run = scenario(
    "ablations",
    title="Design ablations: vicinity constant, landmark policy, address "
    "design, resolution smoothing",
    family=("gnm", "router-level"),
    protocols=("disco", "nd-disco"),
    metrics=("state", "stretch", "address-bytes", "resolution-load"),
    workload="four independent design sweeps",
    aliases=("ablation",),
    tags=("study",),
    shards=_ABLATION_SHARDS,
    shard_runner=_run_ablation_shard,
    shard_merge=_merge_ablation_shards,
)


def format_report(result: AblationResult) -> str:
    """Render all four ablation tables."""
    vicinity_table = format_table(
        ["vicinity scale", "size", "mean state", "mean first stretch", "max first stretch"],
        [
            [row.scale_factor, row.vicinity_size, row.mean_state,
             row.mean_first_stretch, row.max_first_stretch]
            for row in result.vicinity
        ],
        float_format="{:.2f}",
    )
    landmark_table = format_table(
        ["landmark policy", "landmarks", "mean state", "max state",
         "mean first stretch", "max first stretch"],
        [
            [row.policy, row.num_landmarks, row.mean_state, row.max_state,
             row.mean_first_stretch, row.max_first_stretch]
            for row in result.landmark_policies
        ],
        float_format="{:.2f}",
    )
    address = result.address_design
    address_table = format_table(
        ["address design", "mean bytes", "max bytes"],
        [
            ["explicit route (paper default)", address.explicit_mean_bytes,
             address.explicit_max_bytes],
            [f"fixed block ({address.block_bits}-bit offset)",
             address.block_mean_bytes, address.block_max_bytes],
        ],
    )
    resolution_table = format_table(
        ["virtual nodes per landmark", "max/mean resolution load"],
        [[row.virtual_nodes, row.max_over_mean_load] for row in result.resolution_balance],
        float_format="{:.2f}",
    )
    return "\n".join(
        [
            header(
                f"Design ablations on {result.num_nodes}-node topologies",
                f"scale={result.scale_label}",
            ),
            "\n[1] vicinity size constant (state vs stretch)",
            vicinity_table,
            "\n[2] landmark selection policy (§6)",
            landmark_table,
            "\n[3] address design (§4.2: explicit route vs fixed-size block)",
            address_table,
            "\n[4] resolution-database load smoothing (§4.5)",
            resolution_table,
        ]
    )
