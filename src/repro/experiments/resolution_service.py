"""Extension experiments: serving behaviour of the name-resolution service.

The paper sizes the §4.3 consistent-hashing database and proves its
placement properties, but never measures it as a *service*: how far a
lookup travels, how stale a served record can get under shard churn, and
how evenly virtual nodes spread Zipf-skewed load across the landmark
shards.  These three scenarios run the sharded service of
:mod:`repro.resolution` over a converged ``nd-disco`` substrate and
measure exactly that:

* ``resolution-latency`` -- Zipf lookups with diurnal and flash-crowd
  phases, group contacts enabled; emits lookup-latency and hop-count
  CDFs.
* ``resolution-staleness`` -- the same engine under unannounced shard
  crashes and rejoins, swept over the replication factor r; emits
  served-staleness CDFs and miss (availability) rates.
* ``resolution-balance`` -- storage and served-load histograms across the
  shards, swept over the virtual-node count.

Sharding: ``resolution-latency`` shards by *tick segment* (the traffic
engine replays service evolution from tick 0 and bills only its own
ticks, so concatenating segments in order is the serial bill); the two
sweeps shard by sweep point.  Each ``run_*`` is its scenario's shards
merged in key order, the same functions ``repro run --workers N`` fans
out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.nddisco import NDDiscoRouting
from repro.core.sloppy_groups import SloppyGrouping
from repro.dynamics.stream import DynEvent
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header
from repro.experiments.workloads import sweep_gnm
from repro.resolution.service import GroupContactIndex, ShardedResolutionService
from repro.resolution.traffic import (
    LookupWorkload,
    TrafficReport,
    generate_lookup_workload,
    run_traffic,
)
from repro.scenarios.spec import scenario
from repro.staticsim.simulation import converged_nddisco
from repro.utils.distributions import Summary, cdf_points, summarize
from repro.utils.formatting import format_table

__all__ = [
    "ResolutionBalanceResult",
    "ResolutionLatencyResult",
    "ResolutionStalenessResult",
    "format_report",
    "run_balance",
    "run_latency",
    "run_staleness",
]

#: Tick segments the latency scenario shards over.
LATENCY_SEGMENTS = 3
#: Replication factors the staleness scenario sweeps.
STALENESS_REPLICAS = (1, 2, 3)
#: Virtual-node counts the balance scenario sweeps.
BALANCE_VIRTUAL_NODES = (1, 4, 16)

_DURATION_TICKS = 64
_REFRESH_INTERVAL = 16
#: The latency scenario provisions its sloppy groups for the paper's
#: million-node deployment regime rather than the testbed size: at n=256
#: the honest estimate yields 1-bit groups that swallow every lookup,
#: and the scenario exists to measure *both* serving paths.
_TARGET_DEPLOYMENT = float(1 << 20)


def _scenario_nodes(scale: ExperimentScale) -> int:
    # The traffic engine replays the full timeline per segment, so the
    # scenarios run on a moderate topology regardless of global scale.
    return min(scale.comparison_nodes, 256)


def _lookup_budget(scale: ExperimentScale) -> int:
    # ~24 lookups/node at the default scale; grows with the topology.
    return 24 * _scenario_nodes(scale)


def _substrate(scale: ExperimentScale) -> NDDiscoRouting:
    topology = sweep_gnm(_scenario_nodes(scale), scale.seed)
    # StaticSimulation's nd-disco, so shard processes (and co-resident
    # scenarios) share one converged substrate.
    return converged_nddisco(topology, seed=scale.seed)


def _latency_workload(scale: ExperimentScale) -> LookupWorkload:
    flash_start = _DURATION_TICKS * 3 // 8
    return generate_lookup_workload(
        _scenario_nodes(scale),
        num_lookups=_lookup_budget(scale),
        duration_ticks=_DURATION_TICKS,
        seed=scale.seed,
        zipf_exponent=0.9,
        diurnal_amplitude=0.5,
        flash=(flash_start, flash_start + _DURATION_TICKS // 8, 4.0),
    )


def _segment_bounds(duration: int, segment: int, segments: int) -> tuple[int, int]:
    """Tick range [lo, hi) of one segment (near-even contiguous split)."""
    base = duration // segments
    extra = duration % segments
    lo = segment * base + min(segment, extra)
    hi = lo + base + (1 if segment < extra else 0)
    return lo, hi


def _churn_events(routing: NDDiscoRouting, duration: int) -> list[DynEvent]:
    """Deterministic crash/rejoin schedule over the first three shards.

    Each crashed shard loses its copies (sole copies stay lost until the
    owners' next refresh) and rejoins half a refresh interval later.
    """
    landmarks = sorted(routing.landmarks)
    events: list[DynEvent] = []
    period = duration // 4
    for index, shard in enumerate(landmarks[: min(3, len(landmarks) - 1)]):
        down = period * (index + 1) - period // 2
        up = down + _REFRESH_INTERVAL // 2
        events.append(DynEvent(down, "node-leave", shard))
        if up < duration:
            events.append(DynEvent(up, "node-join", shard))
    return events


# ---------------------------------------------------------------------------
# resolution-latency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionLatencyResult:
    """Lookup-latency/hop distributions of the flash-crowd workload."""

    num_nodes: int
    num_shards: int
    lookups: int
    group_hits: int
    ring_hits: int
    misses: int
    latency: Summary
    latency_cdf: tuple[tuple[float, float], ...]
    hop_cdf: tuple[tuple[float, float], ...]
    scale_label: str


def _latency_shard_keys(scale: ExperimentScale) -> tuple[str, ...]:
    return tuple(f"seg{segment}" for segment in range(LATENCY_SEGMENTS))


def _latency_run_shard(scale: ExperimentScale, key: str) -> TrafficReport:
    routing = _substrate(scale)
    grouping = SloppyGrouping(routing.names, _TARGET_DEPLOYMENT)
    segment = int(key[3:])
    return run_traffic(
        routing,
        _latency_workload(scale),
        replicas=2,
        virtual_nodes=8,
        refresh_interval=_REFRESH_INTERVAL,
        contacts=GroupContactIndex(grouping),
        bill_ticks=_segment_bounds(_DURATION_TICKS, segment, LATENCY_SEGMENTS),
    )


def _latency_merge(
    scale: ExperimentScale, parts: dict
) -> ResolutionLatencyResult:
    report = TrafficReport.merge(
        [parts[key] for key in _latency_shard_keys(scale)]
    )
    routing = _substrate(scale)
    return ResolutionLatencyResult(
        num_nodes=_scenario_nodes(scale),
        num_shards=len(routing.landmarks),
        lookups=report.lookups,
        group_hits=report.group_hits,
        ring_hits=report.ring_hits,
        misses=report.misses,
        latency=summarize(report.latencies),
        latency_cdf=tuple(cdf_points(report.latencies)),
        hop_cdf=tuple(cdf_points(float(h) for h in report.hops)),
        scale_label=scale.label,
    )


run_latency = scenario(
    "resolution-latency",
    title="Extension: lookup latency of the sharded resolution service",
    family="gnm",
    protocols=("nd-disco",),
    metrics=("latency", "hops"),
    workload="Zipf lookups with diurnal + flash-crowd phases, group contacts on",
    aliases=("res-latency",),
    tags=("study", "quick"),
    shards=_latency_shard_keys,
    shard_runner=_latency_run_shard,
    shard_merge=_latency_merge,
)


# ---------------------------------------------------------------------------
# resolution-staleness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StalenessRow:
    """One replication factor's staleness/availability digest."""

    replicas: int
    ring_hits: int
    misses: int
    miss_rate: float
    max_staleness: float
    staleness_cdf: tuple[tuple[float, float], ...]
    expired_records: int
    lost_records: int
    moved_copies: int


@dataclass(frozen=True)
class ResolutionStalenessResult:
    """Served staleness and availability under shard crashes, by r."""

    num_nodes: int
    num_shards: int
    timeout: float
    rows: tuple[StalenessRow, ...]
    scale_label: str


def _staleness_shard_keys(scale: ExperimentScale) -> tuple[str, ...]:
    return tuple(f"r{replicas}" for replicas in STALENESS_REPLICAS)


def _staleness_run_shard(scale: ExperimentScale, key: str) -> StalenessRow:
    routing = _substrate(scale)
    replicas = int(key[1:])
    report = run_traffic(
        routing,
        _latency_workload(scale),
        replicas=replicas,
        virtual_nodes=8,
        refresh_interval=_REFRESH_INTERVAL,
        shard_events=_churn_events(routing, _DURATION_TICKS),
    )
    return StalenessRow(
        replicas=replicas,
        ring_hits=report.ring_hits,
        misses=report.misses,
        miss_rate=report.misses / report.lookups,
        max_staleness=max(report.staleness, default=0.0),
        staleness_cdf=tuple(cdf_points(report.staleness)),
        expired_records=report.expired_records,
        lost_records=sum(r.lost_records for r in report.rebalances),
        moved_copies=sum(r.moved_copies for r in report.rebalances),
    )


def _staleness_merge(
    scale: ExperimentScale, parts: dict
) -> ResolutionStalenessResult:
    routing = _substrate(scale)
    return ResolutionStalenessResult(
        num_nodes=_scenario_nodes(scale),
        num_shards=len(routing.landmarks),
        timeout=2.0 * _REFRESH_INTERVAL + 1.0,
        rows=tuple(
            parts[key] for key in _staleness_shard_keys(scale)
        ),
        scale_label=scale.label,
    )


run_staleness = scenario(
    "resolution-staleness",
    title="Extension: served staleness under shard churn, by replication",
    family="gnm",
    protocols=("nd-disco",),
    metrics=("staleness", "availability"),
    workload="Zipf lookups under unannounced shard crashes and rejoins",
    aliases=("res-staleness",),
    tags=("study", "quick"),
    shards=_staleness_shard_keys,
    shard_runner=_staleness_run_shard,
    shard_merge=_staleness_merge,
)


# ---------------------------------------------------------------------------
# resolution-balance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceRow:
    """One virtual-node count's storage/served load balance."""

    virtual_nodes: int
    storage_histogram: dict[int, int]
    storage_imbalance: float
    served_histogram: dict[int, int]
    served_imbalance: float


@dataclass(frozen=True)
class ResolutionBalanceResult:
    """Per-shard load histograms across the virtual-node sweep."""

    num_nodes: int
    num_shards: int
    replicas: int
    rows: tuple[BalanceRow, ...]
    scale_label: str


def _imbalance(histogram: dict[int, int]) -> float:
    """Peak-to-mean ratio of a per-shard load histogram."""
    if not histogram:
        return 0.0
    mean = sum(histogram.values()) / len(histogram)
    if mean == 0:
        return 0.0
    return max(histogram.values()) / mean


def _balance_shard_keys(scale: ExperimentScale) -> tuple[str, ...]:
    return tuple(f"v{vnodes}" for vnodes in BALANCE_VIRTUAL_NODES)


def _balance_run_shard(scale: ExperimentScale, key: str) -> BalanceRow:
    routing = _substrate(scale)
    virtual_nodes = int(key[1:])
    service = ShardedResolutionService(
        sorted(routing.landmarks),
        virtual_nodes=virtual_nodes,
        replicas=1,
        refresh_interval=float(_REFRESH_INTERVAL),
    )
    service.populate(routing.names, range(len(routing.names)), now=0.0)
    storage = service.load_distribution()
    report = run_traffic(
        routing,
        _latency_workload(scale),
        replicas=1,
        virtual_nodes=virtual_nodes,
        refresh_interval=_REFRESH_INTERVAL,
    )
    served = {shard: 0 for shard in service.shards}
    served.update(report.shard_loads)
    return BalanceRow(
        virtual_nodes=virtual_nodes,
        storage_histogram=dict(sorted(storage.items())),
        storage_imbalance=_imbalance(storage),
        served_histogram=dict(sorted(served.items())),
        served_imbalance=_imbalance(served),
    )


def _balance_merge(
    scale: ExperimentScale, parts: dict
) -> ResolutionBalanceResult:
    routing = _substrate(scale)
    return ResolutionBalanceResult(
        num_nodes=_scenario_nodes(scale),
        num_shards=len(routing.landmarks),
        replicas=1,
        rows=tuple(parts[key] for key in _balance_shard_keys(scale)),
        scale_label=scale.label,
    )


run_balance = scenario(
    "resolution-balance",
    title="Extension: shard load balance across the virtual-node sweep",
    family="gnm",
    protocols=("nd-disco",),
    metrics=("load-balance",),
    workload="record placement + Zipf served load, virtual nodes 1/4/16",
    aliases=("res-balance",),
    tags=("study", "quick"),
    shards=_balance_shard_keys,
    shard_runner=_balance_run_shard,
    shard_merge=_balance_merge,
)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _format_latency(result: ResolutionLatencyResult) -> str:
    table = format_table(
        ["outcome", "lookups", "share"],
        [
            ["group hit", result.group_hits, result.group_hits / result.lookups],
            ["ring hit", result.ring_hits, result.ring_hits / result.lookups],
            ["miss", result.misses, result.misses / result.lookups],
        ],
        float_format="{:.3f}",
    )
    lines = [
        header(
            f"Resolution lookup latency on a {result.num_nodes}-node G(n,m) "
            f"graph ({result.num_shards} landmark shards)",
            f"scale={result.scale_label}",
        ),
        table,
        (
            f"latency: mean {result.latency.mean:.2f}  "
            f"median {result.latency.median:.2f}  "
            f"p95 {result.latency.p95:.2f}  p99 {result.latency.p99:.2f}"
        ),
    ]
    return "\n".join(lines)


def _format_staleness(result: ResolutionStalenessResult) -> str:
    rows = [
        [
            row.replicas,
            row.ring_hits,
            row.misses,
            row.miss_rate,
            row.max_staleness,
            row.lost_records,
        ]
        for row in result.rows
    ]
    table = format_table(
        ["replicas", "ring hits", "misses", "miss rate", "max staleness", "lost"],
        rows,
        float_format="{:.3f}",
    )
    return "\n".join(
        [
            header(
                f"Served staleness under shard churn on a {result.num_nodes}-node "
                f"graph ({result.num_shards} shards, timeout {result.timeout:.0f})",
                f"scale={result.scale_label}",
            ),
            table,
            "no served record exceeds the 2t+1 timeout by construction",
        ]
    )


def _format_balance(result: ResolutionBalanceResult) -> str:
    rows = [
        [
            row.virtual_nodes,
            row.storage_imbalance,
            row.served_imbalance,
            max(row.storage_histogram.values(), default=0),
            max(row.served_histogram.values(), default=0),
        ]
        for row in result.rows
    ]
    table = format_table(
        [
            "virtual nodes",
            "storage peak/mean",
            "served peak/mean",
            "peak records",
            "peak served",
        ],
        rows,
        float_format="{:.3f}",
    )
    return "\n".join(
        [
            header(
                f"Shard load balance on a {result.num_nodes}-node graph "
                f"({result.num_shards} shards, r={result.replicas})",
                f"scale={result.scale_label}",
            ),
            table,
        ]
    )


def format_report(result: object) -> str:
    """Render whichever resolution-service result this module produced."""
    if isinstance(result, ResolutionLatencyResult):
        return _format_latency(result)
    if isinstance(result, ResolutionStalenessResult):
        return _format_staleness(result)
    if isinstance(result, ResolutionBalanceResult):
        return _format_balance(result)
    raise TypeError(f"unexpected result type {type(result).__name__}")
