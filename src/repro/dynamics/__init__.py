"""Network dynamics: the event-driven churn engine and its event streams.

The paper evaluates messaging "during initial convergence only, leaving
continuous churn to future work" (§5.2), but the protocol design is full of
machinery for dynamics: soft-state resolution records, landmark hysteresis,
consistent sloppy grouping, and an overlay whose dissemination keeps address
state fresh.  This package provides the future-work piece:

* :mod:`repro.dynamics.churn` -- seed-era reproducible churn workloads
  (connectivity-preserving edge failures / recoveries) applied to a
  topology; the ``churn-cost`` scenario's event source.
* :mod:`repro.dynamics.stream` -- richer seeded event streams (edge
  up/down/reweight, node leave/join, partitions) on a tick timeline.
* :mod:`repro.dynamics.calendar` -- the flat-array Dial bucket-queue event
  calendar the discrete-event engine drains.
* :mod:`repro.dynamics.engine` -- :class:`ChurnEngine`, which maintains the
  converged NDDisco substrate *incrementally* per event (affected-subtree
  SPT repair, closest-landmark refold, candidate-only vicinity recompute)
  with state bit-identical to full reconvergence.
* :mod:`repro.dynamics.passes` -- the engine's per-event passes over its
  flat slabs (closest refold, vicinity candidate filter, vicinity
  commit-and-bill), each one C call with a pure-Python twin.
* :mod:`repro.dynamics.maintenance` -- the incremental cost of one topology
  change: which addresses change, how many resolution records must be
  refreshed, how many sloppy-group dissemination messages that triggers, and
  how much routing state (landmark + vicinity entries) is affected --
  compared against the cost of reconverging from scratch.  The engine
  charges this bill without ever diffing full states.
"""

from repro.dynamics.calendar import EventCalendar
from repro.dynamics.churn import ChurnEvent, ChurnWorkload, generate_churn_workload
from repro.dynamics.engine import ChurnEngine, DirtyState, EventReport
from repro.dynamics.maintenance import MaintenanceCost
from repro.dynamics.stream import (
    EVENT_KINDS,
    DynEvent,
    events_from_workload,
    generate_event_stream,
)

__all__ = [
    "EVENT_KINDS",
    "ChurnEngine",
    "ChurnEvent",
    "ChurnWorkload",
    "DirtyState",
    "DynEvent",
    "EventCalendar",
    "EventReport",
    "MaintenanceCost",
    "events_from_workload",
    "generate_churn_workload",
    "generate_event_stream",
]
