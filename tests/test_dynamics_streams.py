"""The event-stream generators against their whole-graph oracle.

``generate_event_stream`` keeps its live edges in one sorted list and
``generate_churn_workload`` decides bridges with two local searches; the
oracle (:mod:`oracles.streams`) re-sorts every live edge per draw and runs
a whole-graph connectivity check per trial removal.  Over small graphs,
sparse ones full of bridges included, every kind subset and both
connectivity modes, the two must give equal streams or the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import streams as oracle
from repro.dynamics.stream import (
    EVENT_KINDS,
    generate_churn_workload,
    generate_event_stream,
)
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    ring_graph,
)

_SETTINGS = settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _topologies(draw):
    """A connected graph of 2 to 64 nodes: a G(n, m) from a spanning tree
    (every edge a bridge) up to average degree 6, or a geometric graph with
    real weights."""
    n = draw(st.integers(2, 64))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        m = draw(st.integers(0, min(n * (n - 1) // 2, 3 * n)))
        return gnm_random_graph(n, m, seed=seed)
    degree = draw(st.floats(1.5, 6.0))
    return geometric_random_graph(n, seed=seed, average_degree=degree)


def _outcome(generate, topology, **arguments):
    """The stream, or the error's type and message."""
    try:
        return generate(topology, **arguments)
    except ValueError as error:  # InputError is one
        return type(error), str(error)


class TestAgainstTheOracle:
    @given(
        topology=_topologies(),
        kinds=st.lists(st.sampled_from(EVENT_KINDS), min_size=1, max_size=6),
        preserve=st.booleans(),
        num_events=st.integers(1, 40),
        events_per_tick=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    @_SETTINGS
    def test_event_streams_are_the_oracles(
        self, topology, kinds, preserve, num_events, events_per_tick, seed
    ):
        arguments = dict(
            num_events=num_events,
            seed=seed,
            kinds=tuple(kinds),
            events_per_tick=events_per_tick,
            preserve_connectivity=preserve,
        )
        assert _outcome(generate_event_stream, topology, **arguments) == (
            _outcome(oracle.generate_event_stream, topology, **arguments)
        )

    @given(
        topology=_topologies(),
        recover=st.booleans(),
        num_events=st.integers(1, 40),
        events_per_tick=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    @_SETTINGS
    def test_link_flap_workloads_are_the_oracles(
        self, topology, recover, num_events, events_per_tick, seed
    ):
        arguments = dict(
            num_events=num_events,
            seed=seed,
            recover=recover,
            events_per_tick=events_per_tick,
        )
        assert _outcome(generate_churn_workload, topology, **arguments) == (
            _outcome(oracle.generate_churn_workload, topology, **arguments)
        )


def test_no_kinds_is_refused_before_any_draw():
    with pytest.raises(ValueError, match="kinds must name at least one event kind"):
        generate_event_stream(ring_graph(8), num_events=1, kinds=())
