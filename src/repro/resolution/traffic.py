"""Seeded lookup traffic against the sharded resolution service.

The paper evaluates converged state; what it never measures is the
*serving* behaviour of the §4.3 database under load: how far a lookup
travels, how stale a served record can be under shard churn, and how
evenly the shards carry Zipf-skewed popularity.  This module generates
that workload and bills it against a converged
:class:`~repro.core.nddisco.NDDiscoRouting` substrate.

Workload model (:func:`generate_lookup_workload`):

* **popularity** -- lookup targets are Zipf-distributed over a seeded
  random permutation of the nodes (rank 1 is a random node, not node 0);
* **diurnal phase** -- per-tick lookup volume follows
  ``1 + A sin(2pi t / duration)``;
* **flash crowd** -- an optional ``[start, end)`` tick window multiplies
  the volume by a boost factor;
* lookups are allocated to ticks by largest remainder and drawn from
  :func:`~repro.utils.randomness.make_rng` streams, so the workload is a
  pure function of its arguments.

Serving model (:func:`run_traffic`), per tick: shard churn events apply
first (ring rebalance), then the soft-state refresh (expire + re-insert
every name at multiples of t), then the tick's lookups.  A lookup tries
the requester's sloppy group first (when a :class:`GroupContactIndex` is
supplied), then the ring: among the replicas holding a fresh copy it
queries the one closest to the requester, billing the landmark-SPT
distance as latency and the edge count of the same SPT path as hops.  A
record whose shards crashed is a *miss* until the owner's next refresh --
the staleness/availability story the scenarios measure.

Sharding: lookups never mutate the service, so the engine shards over
*tick ranges*: a segment replays service evolution from tick 0 and bills
only its own ticks; concatenating segment reports in order reproduces the
serial report byte-for-byte.  The replay is deterministic, and what it
costs a segment is one ``populate`` sweep over the names per refresh it
passes plus the records in the arcs of each shard event (the service's
ring-order index; see :mod:`repro.resolution.service`) -- the lookups
before the segment are skipped with one bisect, not walked.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from repro.dynamics.stream import DynEvent
from repro.errors import InputError
from repro.resolution.service import (
    GroupContactIndex,
    RebalanceReport,
    ShardedResolutionService,
)
from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.nddisco import NDDiscoRouting

__all__ = [
    "LookupWorkload",
    "TrafficReport",
    "generate_lookup_workload",
    "run_traffic",
]


@dataclass(frozen=True)
class LookupWorkload:
    """A generated lookup trace: parallel flat arrays in tick order.

    ``ticks`` is non-decreasing; ``targets[i]``/``requesters[i]`` are node
    ids with ``requesters[i] != targets[i]``.
    """

    num_nodes: int
    duration_ticks: int
    seed: int
    ticks: array
    targets: array
    requesters: array

    @property
    def num_lookups(self) -> int:
        """Total lookups in the trace."""
        return len(self.ticks)


def generate_lookup_workload(
    num_nodes: int,
    *,
    num_lookups: int,
    duration_ticks: int,
    seed: int = 0,
    zipf_exponent: float = 0.9,
    diurnal_amplitude: float = 0.5,
    flash: tuple[int, int, float] | None = None,
) -> LookupWorkload:
    """Generate a seeded Zipf/diurnal/flash-crowd lookup trace.

    Parameters
    ----------
    num_nodes:
        Node-id space (>= 2; requesters are drawn uniformly, never equal
        to the target).
    num_lookups:
        Total lookups, allocated to ticks by largest remainder over the
        diurnal/flash intensity profile.
    duration_ticks:
        Timeline length; one diurnal period spans the whole timeline.
    seed:
        Root seed; the trace is a pure function of all arguments.
    zipf_exponent:
        Popularity skew s in ``weight(rank) = rank^-s``.
    diurnal_amplitude:
        A in the ``1 + A sin`` volume profile (0 disables it; < 1 keeps
        the profile positive).
    flash:
        Optional ``(start_tick, end_tick, boost)`` flash-crowd window.
    """
    if num_nodes < 2:
        raise ValueError(f"need >= 2 nodes for lookups, got {num_nodes}")
    require_positive("num_lookups", num_lookups)
    require_positive("duration_ticks", duration_ticks)
    require_positive("zipf_exponent", zipf_exponent)
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise InputError(
            f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}"
        )
    if flash is not None:
        start, end, boost = flash
        if not 0 <= start < end <= duration_ticks:
            raise InputError(f"flash window {flash!r} outside the timeline")
        if boost <= 0:
            raise InputError(f"flash boost must be > 0, got {boost}")

    # Per-tick volume: largest-remainder allocation over the intensity
    # profile, so the per-tick counts sum exactly to num_lookups.
    intensity: list[float] = []
    for tick in range(duration_ticks):
        value = 1.0 + diurnal_amplitude * math.sin(
            2.0 * math.pi * tick / duration_ticks
        )
        if flash is not None and flash[0] <= tick < flash[1]:
            value *= flash[2]
        intensity.append(value)
    total_intensity = sum(intensity)
    shares = [num_lookups * value / total_intensity for value in intensity]
    counts = [int(share) for share in shares]
    remainders = sorted(
        range(duration_ticks),
        key=lambda tick: (counts[tick] - shares[tick], tick),
    )
    for tick in remainders[: num_lookups - sum(counts)]:
        counts[tick] += 1

    # Popularity: Zipf over a seeded permutation of the node ids.
    permutation = list(range(num_nodes))
    make_rng(seed, "resolution-traffic/popularity").shuffle(permutation)
    cumulative: list[float] = []
    running = 0.0
    for rank in range(num_nodes):
        running += (rank + 1) ** -zipf_exponent
        cumulative.append(running)

    rng_targets = make_rng(seed, "resolution-traffic/targets")
    rng_requesters = make_rng(seed, "resolution-traffic/requesters")
    ticks = array("q")
    targets = array("q")
    requesters = array("q")
    for tick in range(duration_ticks):
        for _ in range(counts[tick]):
            draw = rng_targets.random() * running
            rank = min(bisect.bisect_left(cumulative, draw), num_nodes - 1)
            target = permutation[rank]
            requester = rng_requesters.randrange(num_nodes)
            while requester == target:
                requester = rng_requesters.randrange(num_nodes)
            ticks.append(tick)
            targets.append(target)
            requesters.append(requester)
    return LookupWorkload(
        num_nodes=num_nodes,
        duration_ticks=duration_ticks,
        seed=seed,
        ticks=ticks,
        targets=targets,
        requesters=requesters,
    )


@dataclass(frozen=True)
class TrafficReport:
    """Billed outcomes of one traffic run (or one tick-range segment).

    ``latencies`` covers every billed lookup; ``staleness`` only ring
    hits (served age in ticks); ``hops`` only ring lookups (SPT path
    edges between the serving -- or, on a miss, home -- shard and the
    requester).  ``shard_loads`` counts ring hits served per shard.
    """

    lookups: int
    group_hits: int
    ring_hits: int
    misses: int
    latencies: tuple[float, ...]
    staleness: tuple[float, ...]
    hops: tuple[int, ...]
    shard_loads: dict[int, int]
    expired_records: int
    rebalances: tuple[RebalanceReport, ...]
    bill_ticks: tuple[int, int]

    @property
    def cache_stats(self) -> dict[str, int]:
        """Zeros for the frozen ``bench/workloads/resolve.py``, its only
        reader: there is no cache.  A property, so out of ``repr``, ``==``
        and pickles; goes with ROADMAP item 2."""
        return {"hits": 0, "misses": 0, "evictions": 0}

    @staticmethod
    def merge(segments: Sequence["TrafficReport"]) -> "TrafficReport":
        """Concatenate tick-range segments (in order) into one report.

        Equal to the serial report over the union range by construction:
        segments bill disjoint contiguous tick ranges of one deterministic
        replay, so concatenation in range order is the serial bill.
        """
        if not segments:
            raise ValueError("merge() of no segments")
        ordered = sorted(segments, key=lambda report: report.bill_ticks)
        loads: dict[int, int] = {}
        for report in ordered:
            for shard, count in report.shard_loads.items():
                loads[shard] = loads.get(shard, 0) + count
        return TrafficReport(
            lookups=sum(r.lookups for r in ordered),
            group_hits=sum(r.group_hits for r in ordered),
            ring_hits=sum(r.ring_hits for r in ordered),
            misses=sum(r.misses for r in ordered),
            latencies=tuple(
                value for r in ordered for value in r.latencies
            ),
            staleness=tuple(
                value for r in ordered for value in r.staleness
            ),
            hops=tuple(value for r in ordered for value in r.hops),
            shard_loads=loads,
            expired_records=sum(r.expired_records for r in ordered),
            rebalances=tuple(
                report for r in ordered for report in r.rebalances
            ),
            bill_ticks=(
                ordered[0].bill_ticks[0],
                ordered[-1].bill_ticks[1],
            ),
        )


def run_traffic(
    routing: "NDDiscoRouting",
    workload: LookupWorkload,
    *,
    replicas: int = 1,
    virtual_nodes: int = 1,
    refresh_interval: int = 16,
    shard_events: Sequence[DynEvent] = (),
    contacts: GroupContactIndex | None = None,
    cache_budget: int = 1 << 20,
    bill_ticks: tuple[int, int] | None = None,
) -> TrafficReport:
    """Serve ``workload`` against ``routing``'s landmark shards.

    Parameters
    ----------
    routing:
        The converged substrate: provides names, landmark-SPT
        distances/paths (latency and hop billing), and vicinities (group
        contacts).
    replicas, virtual_nodes, refresh_interval:
        Service configuration (see :class:`ShardedResolutionService`).
    shard_events:
        ``node-leave`` / ``node-join`` :class:`DynEvent` s naming landmark
        shards, applied in tick order (stream order within a tick) at the
        start of their tick; a leave is an unannounced crash (copies
        lost), a join re-adds the shard.
    contacts:
        Optional sloppy-group contact index; when given, lookups whose
        best vicinity contact stores the target's address are served from
        the group at vicinity distance, never reaching the ring.
    cache_budget:
        Accepted and never read: the frozen ``bench/workloads/resolve.py``
        passes it.  Goes with ROADMAP item 2.
    bill_ticks:
        Half-open tick range ``[lo, hi)`` to bill (default: the whole
        timeline).  Service evolution is always replayed from tick 0, so
        a segment's bill is independent of how the timeline is split.
    """
    require_positive("refresh_interval", refresh_interval)
    names = routing.names
    num_nodes = len(names)
    if workload.num_nodes != num_nodes:
        raise ValueError(
            f"workload spans {workload.num_nodes} nodes, "
            f"substrate has {num_nodes}"
        )
    duration = workload.duration_ticks
    if bill_ticks is None:
        bill_ticks = (0, duration)
    bill_lo, bill_hi = bill_ticks
    if not 0 <= bill_lo < bill_hi <= duration:
        raise ValueError(f"bill_ticks {bill_ticks!r} outside the timeline")

    landmarks = sorted(routing.landmarks)
    service = ShardedResolutionService(
        landmarks,
        virtual_nodes=virtual_nodes,
        replicas=replicas,
        refresh_interval=float(refresh_interval),
    )
    # A record's address is its node id: the service never reads it, and
    # the address itself is the substrate's slab row.
    addresses = range(num_nodes)
    service.populate(names, addresses, now=0.0)

    ordered = sorted(shard_events, key=attrgetter("tick"))
    for event in ordered:
        if event.kind not in ("node-leave", "node-join"):
            raise ValueError(
                f"shard events must be node-leave/node-join, got {event.kind!r}"
            )
        if event.u not in routing.landmarks:
            raise ValueError(f"shard event names non-landmark {event.u}")
        if event.tick >= duration:
            raise ValueError(
                f"shard event at tick {event.tick} beyond the timeline"
            )
    pending = iter(ordered)
    next_event = next(pending, None)

    spt_distance = routing.tables.spt_distance
    spt_hops = routing.tables.spt_hops
    vicinity = routing.tables.vicinity
    grouping = contacts.grouping if contacts is not None else None

    latencies: list[float] = []
    staleness: list[float] = []
    hops: list[int] = []
    shard_loads: dict[int, int] = {}
    group_hits = ring_hits = misses = 0
    expired = 0
    rebalances: list[RebalanceReport] = []

    ticks = workload.ticks
    targets = workload.targets
    requesters = workload.requesters
    total_lookups = len(ticks)
    # spt_distance reads a flat slab: an id outside 0..n-1 would be served
    # from another landmark's row, not raise.
    for ids in (targets, requesters):
        if total_lookups and not 0 <= min(ids) <= max(ids) < num_nodes:
            raise ValueError(f"workload names a node outside 0..{num_nodes - 1}")
    index = bisect.bisect_left(ticks, bill_lo)
    for tick in range(bill_hi):
        billed_tick = tick >= bill_lo
        # 1. shard churn (ring rebalance).
        while next_event is not None and next_event.tick == tick:
            if next_event.kind == "node-leave":
                if next_event.u in service.ring and len(service.ring) > 1:
                    report = service.remove_shard(next_event.u, lost=True)
                    if billed_tick:
                        rebalances.append(report)
            else:
                if next_event.u not in service.ring:
                    report = service.add_shard(next_event.u)
                    if billed_tick:
                        rebalances.append(report)
            next_event = next(pending, None)
        # 2. soft-state refresh: expire, then every owner re-inserts.
        if tick > 0 and tick % refresh_interval == 0:
            dropped = service.expire_older_than(float(tick))
            if billed_tick:
                expired += dropped
            service.populate(names, addresses, now=float(tick))
        # 3. the tick's lookups.
        while index < total_lookups and ticks[index] == tick:
            target = targets[index]
            requester = requesters[index]
            index += 1
            if contacts is not None:
                best = contacts.best_contact(
                    requester, target, vicinity.row(requester)
                )
                if best is not None and grouping.stores_address_of(
                    best[1], target
                ):
                    group_hits += 1
                    latencies.append(best[0])
                    continue
            name = names[target]
            record = service.lookup_record(name, now=float(tick))
            if record is None:
                misses += 1
                home = service.home_shard(name)
                latencies.append(spt_distance(home, requester))
                hops.append(spt_hops(home, requester))
                continue
            # The closest replica, smaller id on a tie: one slab read each.
            latency, serving = min(
                [
                    (spt_distance(shard, requester), shard)
                    for shard in service.placement_of(name)
                ]
            )
            ring_hits += 1
            latencies.append(latency)
            staleness.append(float(tick) - record.inserted_at)
            shard_loads[serving] = shard_loads.get(serving, 0) + 1
            hops.append(spt_hops(serving, requester))
    return TrafficReport(
        lookups=group_hits + ring_hits + misses,
        group_hits=group_hits,
        ring_hits=ring_hits,
        misses=misses,
        latencies=tuple(latencies),
        staleness=tuple(staleness),
        hops=tuple(hops),
        shard_loads=dict(sorted(shard_loads.items())),
        expired_records=expired,
        rebalances=tuple(rebalances),
        bill_ticks=(bill_lo, bill_hi),
    )
