"""Network dynamics: the event-driven churn engine and its event streams.

The paper evaluates messaging "during initial convergence only, leaving
continuous churn to future work" (§5.2), but the protocol design is full of
machinery for dynamics: soft-state resolution records, landmark hysteresis,
consistent sloppy grouping, and an overlay whose dissemination keeps address
state fresh.  This package provides the future-work piece:

* :mod:`repro.dynamics.stream` -- :class:`DynEvent`, the one event record,
  and its two seeded generators on a tick timeline: the seed's
  connectivity-preserving link-flap workload (the ``churn-cost`` scenario's
  event source) and the five-kind stream (edge up/down/reweight, node
  leave/join, partitions).
* :mod:`repro.dynamics.engine` -- :class:`ChurnEngine`, whose converged
  state *is* a :class:`~repro.core.tables.SubstrateTables`
  (``engine.tables``): built by the production builder and repaired in
  place per event (affected-subtree SPT repair, closest-landmark refold,
  candidate-only vicinity recompute), bit-identical to a fresh build on the
  mutated topology after every event.
* :mod:`repro.dynamics.passes` -- the engine's per-event passes over those
  slabs (closest refold, vicinity candidate filter, vicinity
  commit-and-bill), each one C call with a pure-Python twin.
* :mod:`repro.dynamics.maintenance` -- the incremental cost of one topology
  change: which addresses change, how many resolution records must be
  refreshed, how many sloppy-group dissemination messages that triggers, and
  how much routing state (landmark + vicinity entries) is affected --
  compared against the cost of reconverging from scratch.  The engine
  charges this bill without ever diffing full states.
"""

from repro.dynamics.engine import ChurnEngine, EventReport
from repro.dynamics.maintenance import MaintenanceCost
from repro.dynamics.stream import (
    EVENT_KINDS,
    DynEvent,
    apply_edge_event,
    generate_churn_workload,
    generate_event_stream,
)

__all__ = [
    "EVENT_KINDS",
    "ChurnEngine",
    "DynEvent",
    "EventReport",
    "MaintenanceCost",
    "apply_edge_event",
    "generate_churn_workload",
    "generate_event_stream",
]
