"""Tests for the discrete-event simulator core (events, simulator, network)."""

from __future__ import annotations

import pytest

from repro.sim.events import EventQueue
from repro.sim.messages import Message, RouteAdvertisement
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.agents.base import Agent
from small_graphs import line_graph


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append(1))
        queue.push(1.0, lambda: fired.append(2))
        queue.pop().action()
        queue.pop().action()
        assert fired == [1, 2]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0

    def test_pop_on_an_empty_queue(self):
        queue = EventQueue()
        assert queue.pop() is None
        queue.push(1.0, lambda: None)
        assert queue.pop().time == 1.0
        assert queue.pop() is None and queue.peek_time() is None

    def test_len(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2


class TestSimulator:
    def test_runs_in_time_order(self):
        simulator = Simulator()
        trace = []
        simulator.schedule_in(2.0, lambda: trace.append(("b", simulator.now)))
        simulator.schedule_in(1.0, lambda: trace.append(("a", simulator.now)))
        simulator.run()
        assert trace == [("a", 1.0), ("b", 2.0)]

    def test_nested_scheduling(self):
        simulator = Simulator()
        trace = []

        def first():
            trace.append("first")
            simulator.schedule_in(1.0, lambda: trace.append("second"))

        simulator.schedule_in(1.0, first)
        simulator.run()
        assert trace == ["first", "second"]
        assert simulator.now == 2.0

    def test_until_limit(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_in(1.0, lambda: fired.append(1))
        simulator.schedule_in(10.0, lambda: fired.append(2))
        simulator.run(until=5.0)
        assert fired == [1]
        assert simulator.now == 5.0
        assert simulator.pending_events == 1

    def test_run_resumes_after_until(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_in(1.0, lambda: fired.append(simulator.now))
        simulator.schedule_in(10.0, lambda: fired.append(simulator.now))
        assert simulator.run(until=5.0) == 5.0
        # A delay counts from the clock the bounded run stopped at.
        simulator.schedule_in(1.0, lambda: fired.append(simulator.now))
        assert simulator.run() == 10.0
        assert fired == [1.0, 6.0, 10.0]
        assert simulator.pending_events == 0

    def test_zero_delay_fires_now_after_what_is_queued(self):
        simulator = Simulator()
        trace = []

        def first():
            simulator.schedule_in(0.0, lambda: trace.append(("c", simulator.now)))
            trace.append(("a", simulator.now))

        simulator.schedule_in(2.0, first)
        simulator.schedule_in(2.0, lambda: trace.append(("b", simulator.now)))
        simulator.run()
        assert trace == [("a", 2.0), ("b", 2.0), ("c", 2.0)]

    def test_max_events_limit(self):
        simulator = Simulator()
        for _ in range(10):
            simulator.schedule_in(1.0, lambda: None)
        simulator.run(max_events=3)
        assert simulator.events_processed == 3

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_in(-1.0, lambda: None)


class _EchoAgent(Agent):
    """Test agent: node 0 pings its neighbors once; others echo back."""

    def __init__(self, node, network):
        super().__init__(node, network)
        self.received: list[Message] = []

    def start(self) -> None:
        if self.node == 0:
            for neighbor in self.neighbors():
                self.send(neighbor, "ping")

    def on_message(self, message: Message) -> None:
        self.received.append(message)
        if message.kind == "ping":
            self.send(message.sender, "pong")


class TestNetwork:
    def test_message_delivery_and_counters(self):
        topology = line_graph(3)
        simulator = Simulator()
        network = Network(topology, simulator)
        agents = [_EchoAgent(v, network) for v in topology.nodes()]
        network.start()
        simulator.run()
        # Node 0 pings node 1; node 1 pongs back.
        assert [m.kind for m in agents[1].received] == ["ping"]
        assert [m.kind for m in agents[0].received] == ["pong"]
        assert network.counters(0).messages_sent == 1
        assert network.counters(1).messages_sent == 1
        assert network.counters(1).messages_received == 1
        assert network.total_messages() == 2

    def test_latency_respected(self):
        topology = line_graph(2)
        topology_weighted = line_graph(2)
        simulator = Simulator()
        network = Network(topology_weighted, simulator, processing_delay=0.0)
        received_at = {}

        class Recorder(Agent):
            def start(self) -> None:
                if self.node == 0:
                    self.send(1, "ping")

            def on_message(self, message: Message) -> None:
                received_at[self.node] = self.now

        Recorder(0, network)
        Recorder(1, network)
        network.start()
        simulator.run()
        assert received_at[1] == pytest.approx(1.0)  # edge weight 1.0

    def test_send_between_non_adjacent_rejected(self):
        topology = line_graph(3)
        network = Network(topology, Simulator())
        with pytest.raises(ValueError):
            network.send(Message(sender=0, receiver=2, kind="x"))

    def test_duplicate_agent_rejected(self):
        topology = line_graph(2)
        network = Network(topology, Simulator())
        _EchoAgent(0, network)
        with pytest.raises(ValueError):
            _EchoAgent(0, network)

    def test_entries_accounting(self):
        topology = line_graph(2)
        simulator = Simulator()
        network = Network(topology, simulator)

        class Bulk(Agent):
            def start(self) -> None:
                if self.node == 0:
                    self.send(1, "routes", size_entries=17)

            def on_message(self, message: Message) -> None:
                pass

        Bulk(0, network)
        Bulk(1, network)
        network.start()
        simulator.run()
        assert network.total_entries() == 17
        assert network.entries_per_node() == pytest.approx(8.5)

    def test_invalid_processing_delay(self):
        with pytest.raises(ValueError):
            Network(line_graph(2), Simulator(), processing_delay=-1.0)


class TestMessageObjects:
    def test_message_validation(self):
        with pytest.raises(ValueError):
            Message(sender=0, receiver=1, kind="x", size_entries=-1)

    def test_route_advertisement_fields(self):
        advertisement = RouteAdvertisement(destination=5, path=(1, 2, 5), cost=2.0)
        assert advertisement.destination == 5
        assert not advertisement.withdrawn
        assert advertisement.origin_landmark_distance is None
