"""``churn_edge`` and ``churn_node``: events applied to a converged engine.

A fresh ``ChurnEngine`` per repeat (outside the timer), then
``engine.apply(event)`` per event, each call timed.  ``dynamics.engine`` and
``graphs.incremental`` do all the work.

Two workloads, one per class of event, because a node leave/join costs
three to four times an edge event and a repair may help one and cost the
other.  The events come from the program's own
``generate_event_stream(kinds=..., preserve_connectivity=False)``, so nodes
of every degree leave, landmarks fail and edges may be bridges.  Only the
landmark count is fixed (see ``base.fixed_landmarks``).
``preserve_connectivity=True`` is not an option: it took 31 s to generate
100 events at n = 512.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.dynamics.engine import ChurnEngine
from repro.dynamics.stream import EVENT_KINDS, generate_event_stream
from repro.graphs.generators import gnm_random_graph

from bench.harness import spin
from bench.trace import TIMED
from bench.workloads.base import (
    Repeat,
    fixed_landmarks,
    median_s,
    ratio,
    sha256_of,
)

_LAYER = {kind: f"dynamics.engine.{kind.replace('-', '_')}" for kind in EVENT_KINDS}
# A repeat takes 2.6 s (edge) or 4.3 s (node), so a run holds three to five,
# and the host changes speed many times inside each.  The calibration loop
# therefore also runs between events, whenever this much time was timed: on
# a recorded series of one seed the run medians then spread by 4 % where the
# two loops around the whole repeat left 9 %.
_SPIN_EVERY_S = 0.5


@dataclass
class State:
    seed: int
    topology: object
    landmarks: list[int]
    events: list
    engine: ChurnEngine | None  # the converged engine the next repeat uses


def _converge(topology, landmarks, rec) -> ChurnEngine:
    with rec.span("dynamics.engine.converge"):
        return ChurnEngine(topology, landmarks=landmarks)


class Churn:
    """The workload over one class of event kinds."""

    def __init__(self, name: str, kinds: tuple[str, ...], events: int) -> None:
        self.NAME = name
        self.SIZES = {"nodes": 1024, "degree": 8, "events": events}
        self.kinds = kinds

    def setup(self, seed: int, sizes: dict, rec) -> State:
        topology = gnm_random_graph(
            sizes["nodes"], seed=seed, average_degree=sizes["degree"]
        )
        landmarks = fixed_landmarks(topology.num_nodes, seed)
        with rec.span("dynamics.stream.generate"):
            events = generate_event_stream(
                topology,
                num_events=sizes["events"],
                seed=seed,
                kinds=self.kinds,
                preserve_connectivity=False,
            )
        engine = _converge(topology, landmarks, rec)
        return State(seed, topology, landmarks, events, engine)

    def repeat(self, state: State, rec) -> Repeat:
        engine = state.engine or _converge(state.topology, state.landmarks, rec)
        state.engine = None  # events mutate it; the next repeat converges anew
        parts = [0.0]
        spins = []
        reports = []
        for event in state.events:
            if parts[-1] >= _SPIN_EVERY_S:
                spins.append(spin())
                parts.append(0.0)
            with rec.span(TIMED) as timed:
                with rec.span(_LAYER[event.kind]):
                    reports.append(engine.apply(event))
            parts[-1] += timed.seconds
        signature = engine.state_signature()
        digest = sha256_of(
            [
                (
                    report.event.kind,
                    report.applied,
                    report.cost.total_incremental_entries,
                    report.rows_repaired,
                    report.vicinities_recomputed,
                )
                for report in reports
            ],
            signature,
        )
        return Repeat(
            seconds=sum(parts),
            ops=len(reports),
            digest=digest,
            output=(engine, reports, signature),
            parts=parts,
            spins=spins,
        )

    def check(self, state: State, repeat: Repeat) -> tuple[int, int]:
        """Incremental maintenance against full reconvergence, after the stream."""
        engine, reports, signature = repeat.output
        oracle = ChurnEngine(engine.topology, landmarks=state.landmarks)
        same = signature == oracle.state_signature()
        return len(reports), 0 if same else len(reports)

    def probe(self, state: State, rec, repeat: Repeat) -> dict:
        return {}  # every layer this workload uses has a span already

    def layers(self, state: State, rec, repeat: Repeat) -> dict:
        _, reports, _ = repeat.output
        metrics = {
            "dynamics.stream.generate_s": median_s(rec, "dynamics.stream.generate"),
            "dynamics.engine.converge_s": median_s(rec, "dynamics.engine.converge"),
        }
        pooled = []
        for kind in self.kinds:
            metrics[f"{_LAYER[kind]}_ms"] = 1000.0 * median_s(rec, _LAYER[kind])
            pooled += rec.durations(_LAYER[kind])
        metrics[f"{self.NAME}_event_ms"] = 1000.0 * statistics.median(pooled)
        # Exact counts from the reports; busy time from the traced repeats.
        entries = sum(r.cost.total_incremental_entries for r in reports)
        traced_repeats = rec.count(TIMED) / len(reports)
        busy = rec.total(TIMED) / traced_repeats
        metrics["churn_events_per_s"] = len(reports) / busy
        metrics["dynamics.engine.entries_per_event"] = entries / len(reports)
        metrics["dynamics.engine.ms_per_changed_entry"] = 1000.0 * ratio(busy, entries)
        metrics["dynamics.engine.noop_share"] = sum(
            not r.applied for r in reports
        ) / len(reports)
        return metrics

    def cleanup(self, state: State) -> None:
        pass


EDGE = Churn("churn_edge", ("edge-down", "edge-up", "edge-reweight"), events=120)
NODE = Churn("churn_node", ("node-leave", "node-join"), events=60)
