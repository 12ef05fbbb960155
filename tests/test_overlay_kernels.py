"""Disco's finger draws below the FFI: ``overlay_fingers`` against its twin.

:func:`repro.core.overlay.draw_fingers` draws every node's harmonic fingers
in one call.  On the C tier that is ``overlay_fingers`` in ``_kernels.c``,
which replays CPython's MT19937 and the twin's exact integer arithmetic;
``REPRO_NO_CKERNELS=1`` selects the pure-Python twin, whose streams are
``random.Random`` itself.  This file holds the two to three contracts:

* **tier agreement** -- every node's fingers equal on both tiers over
  random groupings: n from 4 to 300 and at most 3, tied hashes, k = 0
  (``estimated_n=1.0``), k = 64 (``1e80``) and per-node estimates;
* **the stream** -- raw seeds that put both key lengths of
  ``init_by_array`` (one 32-bit word below 2**32, two above) through both
  tiers, the twin drawing from ``random.Random(seed)`` directly;
* **the boundary** -- short or wrongly typed buffers, a prefix length
  outside ``[0, 64]`` and a ring slot outside ``[0, n)`` raise
  ``TypeError`` / ``ValueError`` before any byte of the out-buffer moves.

Without a C compiler both tiers are the twin and the tests still pass.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.overlay import DisseminationOverlay, draw_fingers
from repro.core.sloppy_groups import SloppyGrouping
from repro.estimation.error_injection import inject_estimate_error
from repro.naming.names import name_for_node

_TIERS = ("c", "python")

_SETTINGS = settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextmanager
def _tier(name: str):
    """Run the body on the C tier or, with the switch set, on the twin."""
    saved = os.environ.pop("REPRO_NO_CKERNELS", None)
    if name == "python":
        os.environ["REPRO_NO_CKERNELS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_NO_CKERNELS", None)
        if saved is not None:
            os.environ["REPRO_NO_CKERNELS"] = saved


def _fingers_by_tier(grouping: SloppyGrouping, num_fingers: int, seed: int):
    rows = {}
    for tier in _TIERS:
        with _tier(tier):
            overlay = DisseminationOverlay(
                grouping, num_fingers=num_fingers, seed=seed
            )
        rows[tier] = [
            overlay.outgoing_fingers(node) for node in range(grouping.num_nodes)
        ]
    return rows


@st.composite
def groupings(draw, min_nodes: int, max_nodes: int):
    """Names with repeats forced (tied hashes) and one of four estimates:
    none, 1.0 (k = 0), 1e80 (k = 64) or a per-node mapping."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [name_for_node(v) for v in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for target, source in draw(st.lists(pairs, max_size=n // 2)):
        names[target] = names[source]
    estimate = draw(
        st.one_of(
            st.none(),
            st.just(1.0),
            st.just(1e80),
            st.builds(
                lambda error, seed: inject_estimate_error(
                    n, max_error=error, seed=seed
                ),
                st.floats(0.05, 0.95),
                st.integers(0, 2**16),
            ),
        )
    )
    return SloppyGrouping(names, estimate)


class TestTierAgreement:
    @_SETTINGS
    @given(
        grouping=groupings(4, 300),
        num_fingers=st.sampled_from((0, 1, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_every_node_draws_the_same_fingers(
        self, grouping, num_fingers, seed
    ):
        rows = _fingers_by_tier(grouping, num_fingers, seed)
        assert rows["c"] == rows["python"]

    @settings(deadline=None, max_examples=20)
    @given(
        grouping=groupings(1, 3),
        num_fingers=st.sampled_from((0, 1, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_rings_of_three_or_fewer_draw_nothing(
        self, grouping, num_fingers, seed
    ):
        rows = _fingers_by_tier(grouping, num_fingers, seed)
        assert rows["c"] == rows["python"] == [[]] * grouping.num_nodes

    @pytest.mark.parametrize("estimate", [1.0, 1e80])
    def test_k_extremes(self, estimate):
        # k = 0 spans the whole hash space.  k = 64 is a one-value region:
        # every draw lands on the node's own hash, which resolves to a ring
        # neighbour when no hash is shared, so no finger is ever taken.
        grouping = SloppyGrouping(
            [name_for_node(v) for v in range(64)], estimate
        )
        rows = _fingers_by_tier(grouping, 3, 7)
        assert rows["c"] == rows["python"]
        assert any(rows["c"]) == (estimate == 1.0)


class TestRawSeeds:
    """The twin draws from ``random.Random(seed)``; the C tier must replay
    it for both ``init_by_array`` key lengths, which ``derive_seed``'s
    64-bit outputs almost never leave to chance (a one-word key needs a
    seed below 2**32)."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

    def _ring(self, n: int, estimate: float | None = None):
        grouping = SloppyGrouping([name_for_node(v) for v in range(n)], estimate)
        order = array(
            "q", sorted(range(n), key=lambda v: (grouping.hash_of(v), v))
        )
        hashes = array("Q", [grouping.hash_of(v) for v in order])
        position = array("q", bytes(8 * n))
        for index, node in enumerate(order):
            position[node] = index
        prefix_bits = array("q", [grouping.prefix_bits_of(v) for v in range(n)])
        return order, hashes, position, prefix_bits

    @pytest.mark.parametrize("estimate", [None, 1.0])
    @pytest.mark.parametrize("raw_seed", SEEDS)
    def test_raw_seed_streams_match(self, raw_seed, estimate):
        n, num_fingers = 300, 3
        ring = self._ring(n, estimate)
        seeds = array("Q", [raw_seed] * n)
        slabs = {}
        for tier in _TIERS:
            slabs[tier] = array("q", [-7] * (n * num_fingers))
            with _tier(tier):
                draw_fingers(*ring, seeds, num_fingers, slabs[tier])
        assert slabs["c"] == slabs["python"]
        assert -7 not in slabs["c"]

    def test_mixed_key_lengths_in_one_call(self):
        # Nodes are seeded several at a time on the C tier: neighbouring
        # nodes with one- and two-word keys share a batch.
        n, num_fingers = 203, 3
        ring = self._ring(n)
        seeds = array("Q", [self.SEEDS[v % 5] ^ v for v in range(n)])
        slabs = {}
        for tier in _TIERS:
            slabs[tier] = array("q", bytes(8 * n * num_fingers))
            with _tier(tier):
                draw_fingers(*ring, seeds, num_fingers, slabs[tier])
        assert slabs["c"] == slabs["python"]


class TestBoundary:
    N, FINGERS = 16, 2

    def _arguments(self):
        grouping = SloppyGrouping([name_for_node(v) for v in range(self.N)])
        order = array(
            "q", sorted(range(self.N), key=lambda v: (grouping.hash_of(v), v))
        )
        position = array("q", bytes(8 * self.N))
        for index, node in enumerate(order):
            position[node] = index
        return {
            "order": order,
            "hashes": array("Q", [grouping.hash_of(v) for v in order]),
            "position": position,
            "prefix_bits": array("q", [1] * self.N),
            "seeds": array("Q", range(self.N)),
            "num_fingers": self.FINGERS,
            "fingers": array("q", [-7] * (self.N * self.FINGERS)),
        }

    def _short(self, name):
        arguments = self._arguments()
        del arguments[name][-1]
        return arguments

    def _retyped(self, name, typecode):
        arguments = self._arguments()
        arguments[name] = array(typecode, bytes(arguments[name]))
        return arguments

    def _bad_entry(self, name, index, value):
        arguments = self._arguments()
        arguments[name][index] = value
        return arguments

    def _cases(self):
        for name in ("hashes", "position", "prefix_bits", "seeds", "fingers"):
            yield ValueError, self._short(name)
        yield TypeError, self._retyped("hashes", "q")
        yield TypeError, self._retyped("seeds", "q")
        yield TypeError, self._retyped("order", "Q")
        yield TypeError, self._retyped("fingers", "d")
        arguments = self._arguments()
        arguments["seeds"] = list(arguments["seeds"])
        yield TypeError, arguments
        arguments = self._arguments()
        arguments["fingers"] = bytes(8 * self.N * self.FINGERS)
        yield TypeError, arguments
        arguments = self._arguments()
        arguments["num_fingers"] = self.FINGERS + 1
        yield ValueError, arguments
        for bits in (-1, 65):
            yield ValueError, self._bad_entry("prefix_bits", 5, bits)
        for slot in (-1, self.N):
            yield ValueError, self._bad_entry("position", 3, slot)
            yield ValueError, self._bad_entry("order", 9, slot)

    @pytest.mark.parametrize("tier", _TIERS)
    def test_bad_arguments_raise_before_any_write(self, tier):
        with _tier(tier):
            for error, arguments in self._cases():
                fingers = arguments["fingers"]
                before = bytes(fingers)
                with pytest.raises(error):
                    draw_fingers(**arguments)
                assert bytes(fingers) == before
            # And the well-formed call goes through.
            arguments = self._arguments()
            draw_fingers(**arguments)
            assert -7 not in arguments["fingers"]

