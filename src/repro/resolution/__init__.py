"""The name-resolution *service* layer: sharded lookups over the landmarks.

The core model (:mod:`repro.core.resolution`, :mod:`repro.core.sloppy_groups`)
captures the paper's §4.3/§4.4 structures as converged static snapshots.
This package puts a serving process around them:

* :class:`repro.naming.VNodeRing` (re-exported) -- the immutable
  virtual-node consistent-hash ring with bisect successor lookup and
  incremental membership updates that places every record, here and in
  the converged :class:`~repro.core.resolution.LandmarkResolutionDatabase`.
* :class:`repro.resolution.service.ShardedResolutionService` -- r-way
  successor-replicated storage of name→address records on the landmark
  shards, with deterministic arc-scoped rebalance on shard join/leave.
* :class:`repro.resolution.service.GroupContactIndex` -- bisect-backed
  longest-prefix contact selection, bit-identical to a full scan of the
  vicinity (``tests/oracles/sloppy_groups.py``).
* :mod:`repro.resolution.traffic` -- a seeded Zipf lookup workload with
  diurnal and flash-crowd phases, billed per lookup against a converged
  :class:`~repro.core.nddisco.NDDiscoRouting` substrate's landmark-SPT
  slabs (``SubstrateTables.spt_distance`` and ``spt_hops``).

Everything here is differentially pinned against the converged-state
oracles by ``tests/test_resolution_service.py``.
"""

from repro.resolution.service import (
    GroupContactIndex,
    RebalanceReport,
    ShardedResolutionService,
    VNodeRing,
)
from repro.resolution.traffic import (
    LookupWorkload,
    TrafficReport,
    generate_lookup_workload,
    run_traffic,
)

__all__ = [
    "GroupContactIndex",
    "LookupWorkload",
    "RebalanceReport",
    "ShardedResolutionService",
    "TrafficReport",
    "VNodeRing",
    "generate_lookup_workload",
    "run_traffic",
]
