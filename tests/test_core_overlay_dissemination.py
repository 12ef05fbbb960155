"""Tests for repro.core.overlay and repro.core.dissemination."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from oracles.overlay_draw import DictRingOverlay
from repro.core.disco import DiscoRouting
from repro.core.dissemination import AddressDissemination
from repro.core.overlay import DisseminationOverlay
from repro.core.sloppy_groups import SloppyGrouping
from repro.estimation.error_injection import inject_estimate_error
from repro.graphs.generators import gnm_random_graph
from repro.naming.names import name_for_node


def make_grouping(n: int, estimated_n=None) -> SloppyGrouping:
    return SloppyGrouping([name_for_node(v) for v in range(n)], estimated_n)


@pytest.fixture(scope="module")
def grouping_200() -> SloppyGrouping:
    return make_grouping(200)


@pytest.fixture(scope="module")
def overlay_200(grouping_200) -> DisseminationOverlay:
    return DisseminationOverlay(grouping_200, num_fingers=1, seed=1)


class TestOverlayStructure:
    def test_ring_is_a_permutation(self, overlay_200, grouping_200):
        ring = overlay_200.ring_nodes()
        assert sorted(ring) == list(range(grouping_200.num_nodes))
        hashes = [grouping_200.hash_of(v) for v in ring]
        assert hashes == sorted(hashes)

    def test_successor_predecessor_inverse(self, overlay_200, grouping_200):
        for node in range(grouping_200.num_nodes):
            assert overlay_200.predecessor(overlay_200.successor(node)) == node
            assert overlay_200.successor(overlay_200.predecessor(node)) == node

    def test_successor_is_next_on_ring(self, overlay_200, grouping_200):
        ring = overlay_200.ring_nodes()
        n = len(ring)
        for index, node in enumerate(ring):
            assert overlay_200.successor(node) == ring[(index + 1) % n]

    def test_neighbors_symmetric(self, overlay_200, grouping_200):
        for node in range(grouping_200.num_nodes):
            for neighbor in overlay_200.neighbors(node):
                assert node in overlay_200.neighbors(neighbor)

    def test_no_self_neighbors(self, overlay_200, grouping_200):
        for node in range(grouping_200.num_nodes):
            assert node not in overlay_200.neighbors(node)

    def test_ring_links_present(self, overlay_200, grouping_200):
        for node in range(grouping_200.num_nodes):
            neighbors = overlay_200.neighbors(node)
            assert overlay_200.successor(node) in neighbors
            assert overlay_200.predecessor(node) in neighbors

    def test_outgoing_finger_count(self, grouping_200):
        overlay = DisseminationOverlay(grouping_200, num_fingers=3, seed=2)
        counts = [len(overlay.outgoing_fingers(v)) for v in range(200)]
        assert max(counts) <= 3
        assert sum(counts) > 0

    def test_average_degree_matches_paper(self, grouping_200):
        """~4 connections with 1 finger, ~8 with 3 (counting both directions)."""
        one = DisseminationOverlay(grouping_200, num_fingers=1, seed=3)
        three = DisseminationOverlay(grouping_200, num_fingers=3, seed=3)
        assert 3.0 <= one.average_degree() <= 5.5
        assert 6.0 <= three.average_degree() <= 9.5

    def test_zero_fingers_is_pure_ring(self, grouping_200):
        overlay = DisseminationOverlay(grouping_200, num_fingers=0, seed=1)
        assert all(len(overlay.outgoing_fingers(v)) == 0 for v in range(200))
        assert overlay.average_degree() == pytest.approx(2.0)

    def test_deterministic(self, grouping_200):
        a = DisseminationOverlay(grouping_200, num_fingers=2, seed=9)
        b = DisseminationOverlay(grouping_200, num_fingers=2, seed=9)
        assert all(
            a.outgoing_fingers(v) == b.outgoing_fingers(v) for v in range(200)
        )

    def test_group_neighbors_subset(self, overlay_200):
        for node in (0, 50, 199):
            assert overlay_200.group_neighbors(node) <= overlay_200.neighbors(node)

    def test_fingers_mostly_within_group(self, grouping_200):
        """Fingers are drawn from the node's own group's hash region."""
        overlay = DisseminationOverlay(grouping_200, num_fingers=3, seed=4)
        total, in_group = 0, 0
        for node in range(200):
            for finger in overlay.outgoing_fingers(node):
                total += 1
                if grouping_200.believes_same_group(node, finger):
                    in_group += 1
        assert total > 0
        assert in_group / total >= 0.8


#: sha256(repr([ring_nodes()] + [outgoing_fingers(v) for v in range(n)]))[:16]
#: of ``DiscoRouting(gnm_random_graph(n, seed=seed), seed=seed,
#: num_fingers=fingers, estimated_n=...).overlay``, keyed ``(n, seed,
#: fingers, max_error)``; a non-zero ``max_error`` gives every node its own
#: estimate, ``inject_estimate_error(n, max_error=max_error, seed=seed)``.
#: The first four were recorded at the commit before ``_resolve_hash``
#: computed its distances inline; the last three at 048610c, before the draw
#: turned down points between a node's ring neighbours without a lookup:
#: the ``converge`` shape, a 3-finger per-node-estimate case (mixed prefix
#: lengths) and a 12-node ring (k = 0, the region is the whole hash space).
_OVERLAY_DIGESTS = {
    (64, 3, 1, 0.0): "80cde544aba0470f",
    (64, 3, 3, 0.0): "53abba7113ce5e2e",
    (1024, 8, 1, 0.0): "55d134d29a9ad4ec",
    (1024, 8, 3, 0.0): "bccfb42010148ad1",
    (4096, 2010, 1, 0.0): "a028cb95619e716b",
    (1024, 8, 3, 0.6): "533e341f89685d75",
    (12, 5, 3, 0.0): "ea84f8c8e50c911e",
}


class TestOverlayIsUnchanged:
    @pytest.mark.parametrize("n, seed, fingers, max_error", sorted(_OVERLAY_DIGESTS))
    def test_ring_and_fingers_match_recorded_digest(
        self, n, seed, fingers, max_error
    ):
        estimates = (
            inject_estimate_error(n, max_error=max_error, seed=seed)
            if max_error
            else None
        )
        overlay = DiscoRouting(
            gnm_random_graph(n, seed=seed),
            seed=seed,
            num_fingers=fingers,
            estimated_n=estimates,
        ).overlay
        rows = [overlay.ring_nodes()] + [
            overlay.outgoing_fingers(node) for node in range(n)
        ]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert digest == _OVERLAY_DIGESTS[(n, seed, fingers, max_error)]


@st.composite
def overlay_inputs(draw):
    """A grouping (hash ties forced by repeated names; a uniform, scaled or
    per-node estimate of n), a finger count and a seed."""
    n = draw(st.integers(1, 300))
    names = [name_for_node(v) for v in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for target, source in draw(st.lists(pairs, max_size=n // 2)):
        names[target] = names[source]
    estimate = draw(
        st.one_of(
            st.none(),
            st.floats(2.0, 1e15),
            st.builds(
                lambda error, seed: inject_estimate_error(
                    n, max_error=error, seed=seed
                ),
                st.floats(0.05, 0.95),
                st.integers(0, 2**16),
            ),
        )
    )
    grouping = SloppyGrouping(names, estimate)
    return grouping, draw(st.integers(0, 3)), draw(st.integers(0, 2**16))


class TestDrawMatchesDictRing:
    """The flat-ring overlay against the retired dict ring that resolved
    every draw (``tests/oracles/overlay_draw.py``)."""

    @settings(deadline=None, max_examples=60)
    @given(inputs=overlay_inputs())
    def test_same_ring_fingers_and_neighbors(self, inputs):
        grouping, fingers, seed = inputs
        overlay = DisseminationOverlay(grouping, num_fingers=fingers, seed=seed)
        oracle = DictRingOverlay(grouping, num_fingers=fingers, seed=seed)
        assert overlay.ring_nodes() == oracle.ring_nodes()
        for node in range(grouping.num_nodes):
            assert overlay.successor(node) == oracle.successor(node)
            assert overlay.predecessor(node) == oracle.predecessor(node)
            assert overlay.outgoing_fingers(node) == oracle.outgoing_fingers(node)
            assert overlay.neighbors(node) == oracle.neighbors(node)

    @pytest.mark.parametrize(
        "accessor",
        [
            "successor",
            "predecessor",
            "outgoing_fingers",
            "neighbors",
            "degree",
            "group_neighbors",
        ],
    )
    @pytest.mark.parametrize("node", [-1, 200])
    def test_accessors_refuse_ids_outside_the_ring(
        self, overlay_200, accessor, node
    ):
        with pytest.raises(KeyError):
            getattr(overlay_200, accessor)(node)


class TestDissemination:
    def test_origin_always_reached(self, overlay_200):
        dissemination = AddressDissemination(overlay_200)
        reached, messages = dissemination.disseminate_from(0)
        assert reached[0] == 0
        assert messages >= 0

    def test_full_coverage_with_uniform_estimates(self, grouping_200):
        overlay = DisseminationOverlay(grouping_200, num_fingers=1, seed=5)
        report = AddressDissemination(overlay).run()
        assert report.coverage == pytest.approx(1.0)

    def test_coverage_robust_to_factor_two_estimate_error(self):
        n = 256
        estimates = {v: float(n) * (0.6 if v % 2 else 1.7) for v in range(n)}
        grouping = make_grouping(n, estimated_n=estimates)
        overlay = DisseminationOverlay(grouping, num_fingers=1, seed=6)
        report = AddressDissemination(overlay).run()
        assert report.coverage >= 0.98

    def test_hop_distances_positive_and_bounded(self, overlay_200):
        report = AddressDissemination(overlay_200).run(origins=range(40))
        assert report.mean_hop_distance > 0
        assert report.max_hop_distance >= report.mean_hop_distance
        assert report.max_hop_distance <= 200

    def test_more_fingers_reduce_hop_distance(self, grouping_200):
        one = AddressDissemination(
            DisseminationOverlay(grouping_200, num_fingers=1, seed=7)
        ).run()
        three = AddressDissemination(
            DisseminationOverlay(grouping_200, num_fingers=3, seed=7)
        ).run()
        assert three.mean_hop_distance <= one.mean_hop_distance + 0.25

    def test_more_fingers_cost_more_messages(self, grouping_200):
        one = AddressDissemination(
            DisseminationOverlay(grouping_200, num_fingers=1, seed=8)
        ).run()
        three = AddressDissemination(
            DisseminationOverlay(grouping_200, num_fingers=3, seed=8)
        ).run()
        assert three.total_messages >= one.total_messages

    def test_messages_bounded_by_overlay_size(self, overlay_200, grouping_200):
        """Direction-monotone forwarding sends each announcement over an
        overlay link at most twice (once per direction)."""
        dissemination = AddressDissemination(overlay_200)
        total_links = sum(
            len(overlay_200.neighbors(v)) for v in range(grouping_200.num_nodes)
        )
        for origin in range(0, 200, 23):
            _, messages = dissemination.disseminate_from(origin)
            assert messages <= total_links

    def test_stored_addresses_only_at_group_members(self, overlay_200, grouping_200):
        dissemination = AddressDissemination(overlay_200)
        stored = dissemination.stored_addresses_from_dissemination(17)
        for holder in stored:
            assert grouping_200.believes_same_group(holder, 17)

    def test_dissemination_matches_static_storage_model(self, grouping_200):
        """Dynamic propagation reaches exactly the holders the static
        core-group model predicts (uniform estimates)."""
        overlay = DisseminationOverlay(grouping_200, num_fingers=1, seed=9)
        dissemination = AddressDissemination(overlay)
        for origin in (0, 41, 133):
            dynamic = dissemination.stored_addresses_from_dissemination(origin)
            static = {
                holder
                for holder in range(grouping_200.num_nodes)
                if grouping_200.stores_address_of(holder, origin)
            }
            assert static <= dynamic

    def test_run_requires_origins(self, overlay_200):
        with pytest.raises(ValueError):
            AddressDissemination(overlay_200).run(origins=[])

    def test_report_messages_per_node(self, overlay_200, grouping_200):
        report = AddressDissemination(overlay_200).run(origins=range(50))
        assert report.messages_per_node == pytest.approx(
            report.total_messages / grouping_200.num_nodes
        )
        assert report.origins == 50
