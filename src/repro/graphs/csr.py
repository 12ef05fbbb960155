"""Flat-array CSR shortest-path kernels.

This module is the performance substrate under every shortest-path query in
the reproduction.  A :class:`CSRGraph` is a compressed-sparse-row snapshot of
a :class:`~repro.graphs.topology.Topology`:

* ``offsets`` -- ``array('q')`` of length ``n + 1``; node ``v``'s incident
  edges live at indices ``offsets[v] .. offsets[v + 1]``.
* ``neighbors`` -- ``array('q')`` of length ``2m`` with the edge endpoints.
* ``weights`` -- ``array('d')`` of length ``2m`` with the edge weights.

On top of that snapshot sit the Dijkstra variants the protocols need (full
single-source, *k*-nearest truncated, radius-bounded), running over a
preallocated scratch arena -- distance / predecessor / visited arrays that
are *generation-stamped* rather than reallocated or cleared per search, so a
batch of ``n`` searches touches no per-call O(n) setup.

Kernel selection
----------------

The snapshot carries a :class:`WeightProfile` (cached on the immutable
topology alongside the CSR snapshot) and picks one of three
kernels per graph, all bit-identical to each other and to the seed's
dict-based implementation (the oracle under ``tests/oracles/``):

=========  ==========================================  =====================
kernel     eligible when                               implementation
=========  ==========================================  =====================
``bucket`` every weight is an exact integer multiple   Dial-style bucket
           of one power-of-two quantum, with           queue (lazy deletion,
           ``max_weight / quantum <= 1024``            each bucket settled
                                                       in id order)
``bfs``    all weights are exactly 1.0 (both tiers;    level-ordered BFS
           preferred over ``bucket`` on unit           (each frontier
           graphs — no heap, no bucket pool)           settled in id order)
``heap``   anything else (irregular float weights,     indexed 4-ary heap
           e.g. geometric latencies)                   with decrease-key (C)
                                                       / lazy ``heapq`` (py)
=========  ==========================================  =====================

When a C compiler is available, :mod:`repro.graphs._ckernels` compiles the
``heap``, ``bucket``, and ``bfs`` kernels to native code (``_kernels.c``) and
the searches run there; otherwise the pure-Python implementations in this module
run.  The tie-break contract is identical everywhere: nodes settle in
``(distance, node id)`` order and equal-distance predecessor ties resolve
toward the smaller predecessor id, so engines and tiers can be differential-
tested bit for bit.  ``bfs`` and ``bucket`` get that order one level at a
time: ``list.sort()`` here, byte-radix passes over the ids in C, with the
still-unused tail of the settle-order array as scratch.  (A pure-Python
indexed 4-ary heap was measured slower than C-implemented ``heapq`` under
CPython, which is why the Python ``heap`` tier keeps the lazy ``heapq``
kernel; see ``docs/ARCHITECTURE.md``.)

One batch driver per kind of search (:meth:`CSRGraph.spt_rows_batch_into`,
:meth:`CSRGraph.k_nearest_batch_into` with its allocating wrapper
:meth:`CSRGraph.k_nearest_batch_flat`, :meth:`CSRGraph.radius_batch_flat`,
:meth:`CSRGraph.batched_target_distances`) puts the whole source loop in one
C call (C has no single-source search), fanned over in-kernel threads --
the only kernel-level parallelism.  The Python tier, and a C call that
could not allocate (it warns once), loop over one search per source.

Every search result is a row: dense ``(dist, parent)`` arrays indexed by
node id (:meth:`CSRGraph.spt_rows`, :func:`tree_path` walks one), or
settle-order ``(offsets, members, dists, parents)`` slabs.  Callers
normally obtain a kernel via :meth:`Topology.csr`, which caches one over
the topology's slabs.

Examples
--------
>>> from repro.graphs.topology import Topology
>>> topology = Topology.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
>>> dist, parent = topology.csr().spt_rows(0)
>>> dist[3], parent[3]
(2.0, 1)
>>> tree_path(parent, 0, 3)
[0, 1, 3]

The weight profile drives kernel selection; quantized weights select the
bucket queue and irregular weights fall back to the heap:

>>> quantized = Topology.from_edges(3, [(0, 1, 0.5), (1, 2, 2.5)])
>>> quantized.csr().kernel
'bucket'
>>> irregular = Topology.from_edges(3, [(0, 1, 0.3), (1, 2, 2.5)])
>>> irregular.csr().kernel
'heap'
"""

from __future__ import annotations

import ctypes
import heapq
import math
import os
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InputError
from repro.graphs import _ckernels

__all__ = [
    "CSRGraph",
    "WeightProfile",
    "profile_weights",
    "DIAL_MAX_QUANTA",
    "KERNELS",
    "kernel_threads",
    "tree_path",
]

_INF = math.inf


def kernel_threads(threads: int | None = None) -> int:
    """Resolve the in-kernel batch fan-out width.

    Precedence: an explicit ``threads`` argument, then the
    ``REPRO_KERNEL_THREADS`` environment variable, then the machine's CPU
    count.  Batched results are byte-identical for every width, so the
    default only affects wall-clock time -- but bench reports record the
    active width (see the ``host`` block) so runs remain comparable.  The
    argument and the variable follow one rule: anything but a positive
    integer raises ``ValueError`` (for the variable, an
    :class:`~repro.errors.InputError`).
    """
    if threads is not None:
        if not isinstance(threads, int) or threads < 1:
            raise ValueError(
                f"threads must be a positive integer, got {threads!r}"
            )
        return threads
    env = os.environ.get("REPRO_KERNEL_THREADS", "")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise InputError(
                f"REPRO_KERNEL_THREADS must be a positive integer, got {env!r}"
            )
        return value
    return os.cpu_count() or 1


#: Kernel names accepted by ``kernel=`` overrides (``None`` means auto).
KERNELS = ("bfs", "bucket", "heap")

#: Bucket-queue eligibility bound: ``max_weight / quantum`` must not exceed
#: this, which caps both the circular bucket ring and the number of empty
#: levels a sweep can cross between settles.
DIAL_MAX_QUANTA = 1024

_RADIUS_STRICT, _RADIUS_INCLUSIVE = 1, 2


@dataclass(frozen=True)
class WeightProfile:
    """Summary of a graph's edge weights, used to pick the search kernel.

    Attributes
    ----------
    unit:
        True when every weight is exactly ``1.0`` (hop-count graphs: G(n,m),
        the synthetic AS-level / router-level Internet maps).
    min_weight / max_weight:
        Extremes over all edge weights (both ``1.0`` for an edgeless graph).
    quantum:
        The largest power of two ``q`` such that every weight is an *exact*
        integer multiple of ``q`` -- or ``None`` when no such quantum keeps
        ``max_weight / q`` within :data:`DIAL_MAX_QUANTA`.  Power-of-two
        quanta make every path distance an exact multiple of ``q`` in IEEE
        arithmetic, so Dial bucket indices are exact integers and the bucket
        queue is bit-identical to the heap kernel.
    max_quanta:
        ``int(max_weight / quantum)`` when a quantum exists, else ``None``.

    Examples
    --------
    >>> profile_weights([1.0, 1.0]).unit
    True
    >>> profile_weights([0.5, 2.5, 1.0]).quantum
    0.5
    >>> profile_weights([0.1, 0.2]).quantum is None  # 0.1 is not p/2**k
    True
    """

    unit: bool
    min_weight: float
    max_weight: float
    quantum: float | None
    max_quanta: int | None

    @property
    def bucket_ok(self) -> bool:
        """True when the Dial bucket queue is applicable to this graph."""
        return self.quantum is not None


def _pow2_divisor(weight: float) -> float:
    """Largest power of two that divides ``weight`` exactly."""
    mantissa, exponent = math.frexp(weight)
    bits = int(mantissa * 9007199254740992.0)  # 2**53; exact for a double
    trailing = (bits & -bits).bit_length() - 1
    return math.ldexp(1.0, exponent - 53 + trailing)


def profile_weights(weights: Iterable[float]) -> WeightProfile:
    """Profile an iterable of edge weights in one pass.

    See :class:`WeightProfile` for the meaning of the fields.  An empty
    iterable profiles as a unit-weight graph (the kernels never read weights
    of an edgeless graph).
    """
    min_weight = _INF
    max_weight = 0.0
    quantum = _INF
    unit = True
    eligible = True
    for weight in weights:
        if weight < min_weight:
            min_weight = weight
        if weight > max_weight:
            max_weight = weight
        if weight != 1.0:
            unit = False
        if eligible:
            if not math.isfinite(weight):
                # No graph constructor accepts inf or NaN, but a raw
                # iterable may hold them: they have no power-of-two quantum,
                # so route to the heap kernel rather than crash in
                # _pow2_divisor.
                eligible = False
                continue
            divisor = _pow2_divisor(weight)
            if divisor < quantum:
                quantum = divisor
            if max_weight / quantum > DIAL_MAX_QUANTA:
                eligible = False
    if max_weight == 0.0:  # no edges
        return WeightProfile(True, 1.0, 1.0, 1.0, 1)
    if eligible and max_weight / quantum <= DIAL_MAX_QUANTA:
        return WeightProfile(
            unit, min_weight, max_weight, quantum, int(max_weight / quantum)
        )
    return WeightProfile(unit, min_weight, max_weight, None, None)


def profile_with_weight(
    profile: WeightProfile, weight: float
) -> WeightProfile:
    """Profile of the weight multiset ``old + [weight]``, without a rescan.

    Exact for additions: every field of :class:`WeightProfile` is an
    order-free reduction (``unit`` and the bounds are associative min/max
    folds, the quantum is a running minimum of per-weight power-of-two
    divisors, and Dial eligibility is monotone -- the ``max/quantum`` ratio
    only ever grows as weights are added, so an ineligible profile can
    never become eligible).  Used by :meth:`CSRGraph.splice` so an edge
    edit does not pay an O(E) weight rescan.
    """
    unit = profile.unit and weight == 1.0
    min_weight = min(profile.min_weight, weight)
    max_weight = max(profile.max_weight, weight)
    if profile.quantum is None or not math.isfinite(weight):
        return WeightProfile(unit, min_weight, max_weight, None, None)
    quantum = min(profile.quantum, _pow2_divisor(weight))
    if max_weight / quantum <= DIAL_MAX_QUANTA:
        return WeightProfile(
            unit, min_weight, max_weight, quantum, int(max_weight / quantum)
        )
    return WeightProfile(unit, min_weight, max_weight, None, None)


def tree_path(parents, root: int, node: int, *, base: int = 0) -> list[int]:
    """The path ``root .. node`` walked up a dense parent row.

    ``parents[base + v]`` is ``v``'s parent in a shortest-path tree rooted
    at ``root`` (``-1`` at the root and off the tree), as
    :meth:`CSRGraph.spt_rows` and the landmark SPT slabs hold it.  Raises
    ``ValueError`` if ``node`` is not in the tree.
    """
    path = [node]
    current = node
    limit = len(parents) - base
    while current != root:
        current = parents[base + current]
        if current < 0 or len(path) > limit:
            raise ValueError(f"node {node} not reachable from root {root}")
        path.append(current)
    path.reverse()
    return path


class CSRGraph:
    """Compressed-sparse-row graph with a reusable search arena.

    An instance wraps the arc slabs of an immutable
    :class:`~repro.graphs.topology.Topology` (:meth:`Topology.csr` caches
    one, :meth:`Topology.fresh_csr` makes one for its caller) and never
    writes them.  The one graph that changes is the churn engine's own,
    which each event edits in place with :meth:`splice`: its first splice
    copies the slabs into a store the graph owns.  The scratch arrays make
    a single instance non-reentrant -- one search at a time per
    ``CSRGraph`` (the batch drivers give each kernel thread its own arena).

    Parameters
    ----------
    num_nodes, offsets, neighbors, weights:
        The CSR slabs (see the module docstring for the layout).
    profile:
        Precomputed :class:`WeightProfile`; computed from ``weights`` when
        omitted.
    kernel:
        Force ``"bfs"`` / ``"bucket"`` / ``"heap"`` instead of the profiled
        choice (used by the differential tests).  Raises ``ValueError``
        when the forced kernel is not applicable to this graph's weights.
    use_c:
        Force the C tier on (``True``) or off (``False``); default ``None``
        autodetects via :func:`repro.graphs._ckernels.load_kernels`.
    """

    __slots__ = (
        "num_nodes",
        "offsets",
        "neighbors",
        "weights",
        "profile",
        "unit_weights",
        "kernel",
        "tier",
        "_clib",
        "_arc",
        "_dist",
        "_pred",
        "_seen",
        "_done",
        "_generation",
        "_buckets",
        "_c",
        "_store",
    )

    def __init__(
        self,
        num_nodes: int,
        offsets: array,
        neighbors: array,
        weights: array,
        *,
        profile: WeightProfile | None = None,
        kernel: str | None = None,
        use_c: bool | None = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.offsets = offsets
        self.neighbors = neighbors
        self.weights = weights
        if profile is None:
            profile = profile_weights(weights)
        self.profile = profile
        self.unit_weights = profile.unit
        if use_c is None:
            self._clib = _ckernels.load_kernels()
        elif use_c:
            self._clib = _ckernels.load_kernels()
            if self._clib is None:
                raise RuntimeError(
                    f"C kernels unavailable: {_ckernels.build_error()}"
                )
        else:
            self._clib = None
        self.kernel = self._select_kernel(kernel)
        self.tier = "c" if self._clib is not None else "python"
        # Hot-loop slabs and scratch arenas are built lazily per tier (the C
        # tier never needs the Python tuple slabs, and vice versa).
        self._arc: list[list[tuple[int, float]]] | None = None
        self._dist: Sequence[float] | None = None
        self._pred: Sequence[int] | None = None
        self._seen = None
        self._done = None
        self._generation = 0
        self._buckets: list[list[int]] = []
        self._c: tuple | None = None
        # The (neighbors, weights) store a splice writes, once there is one.
        self._store: tuple[memoryview, memoryview] | None = None

    def _select_kernel(self, forced: str | None) -> str:
        profile = self.profile
        if forced is not None:
            if forced not in KERNELS:
                raise ValueError(
                    f"unknown kernel {forced!r}; expected one of {KERNELS}"
                )
            if forced == "bfs" and not profile.unit:
                raise ValueError("bfs kernel requires unit weights")
            if forced == "bucket" and not profile.bucket_ok:
                raise ValueError(
                    "bucket kernel requires power-of-two-quantized weights "
                    f"with max_weight/quantum <= {DIAL_MAX_QUANTA}"
                )
            return forced
        if profile.unit:
            return "bfs"
        return "bucket" if profile.bucket_ok else "heap"

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the snapshot."""
        return len(self.neighbors) // 2

    # -- rows, and the churn engine's in-place edits -------------------------

    def neighbor_weights(self, node: int) -> list[tuple[int, float]]:
        """``node``'s row as ``(neighbor, weight)`` pairs, in arc order."""
        lo, hi = self.offsets[node], self.offsets[node + 1]
        return list(
            zip(self.neighbors[lo:hi].tolist(), self.weights[lo:hi].tolist())
        )

    def _arc_position(self, u: int, v: int) -> int:
        """Index of the arc ``u -> v``; ``KeyError`` when there is none."""
        if 0 <= u < self.num_nodes:
            lo = self.offsets[u]
            row = self.neighbors[lo : self.offsets[u + 1]].tolist()
            try:
                return lo + row.index(v)
            except ValueError:
                pass
        raise KeyError(f"no edge {u}-{v} in the graph")

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the edge ``{u, v}``, off ``u``'s row (``KeyError``)."""
        return self.weights[self._arc_position(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (a scan of ``u``'s row)."""
        return 0 <= u < self.num_nodes and v in self.neighbors[
            self.offsets[u] : self.offsets[u + 1]
        ]

    def splice(self, removed=(), added=(), reweighted=()) -> None:
        """Apply one batch of edge edits to this graph, in place.

        ``removed`` holds ``(u, v)`` pairs, ``added`` and ``reweighted``
        ``(u, v, weight)`` triples.  A removed arc's gap closes, an added
        arc goes at its row's end (in ``added`` order), a reweight is
        written where the arc sits -- each row in the order
        :meth:`TopologyBuilder.freeze` gives after the same edits (an
        address label is an arc position) -- and no arc moves twice.  The
        profile folds each new weight in (:func:`profile_with_weight`); the
        kernel is reselected from it.  A missing edge (``KeyError``), an
        edge present or named twice, a bad id or a weight that is not
        positive and finite (``ValueError``) raises before any byte moves.

        The first splice moves the arcs into a store this graph owns, with
        room to grow (doubled when it fills); ``neighbors`` / ``weights``
        are exact-length views into it, and the C arena's slab pointers,
        which point into it, live until the store changes.
        """
        n = self.num_nodes
        removed, added, reweighted = map(list, (removed, added, reweighted))
        keys = [
            (min(u, v), max(u, v)) for u, v, *_ in removed + added + reweighted
        ]
        if len(set(keys)) < len(keys) or not all(
            0 <= u < v < n for u, v in keys
        ):
            raise ValueError(
                f"an edge is out of range, a self-loop or named twice "
                f"(graph of {n} nodes)"
            )
        folded = [float(w) for *_, w in added + reweighted]
        if not all(0 < w < _INF for w in folded):  # also rejects NaN
            raise ValueError(f"edge weights must be > 0 and finite: {folded}")
        found = [  # KeyError for a missing edge
            (self._arc_position(u, v), self._arc_position(v, u))
            for u, v, *_ in removed + reweighted
        ]
        if any(self.has_edge(u, v) for u, v, _ in added):
            raise ValueError("an added edge is already present")
        if not keys:
            return
        cut: dict[int, set[int]] = {}
        for u, v in removed:
            cut.setdefault(u, set()).add(v)
            cut.setdefault(v, set()).add(u)
        grown: dict[int, list[tuple[int, float]]] = {}
        for (u, v, _), weight in zip(added, folded):
            grown.setdefault(u, []).append((v, weight))
            grown.setdefault(v, []).append((u, weight))
        kept = self.offsets[n] - 2 * len(removed)
        size = kept + 2 * len(added)
        self._reserve(size)
        offsets, (neighbors, weights) = self.offsets, self._store
        for (first, second), weight in zip(
            found[len(removed) :], folded[len(added) :]
        ):
            weights[first] = weights[second] = weight
        # Each touched row is rebuilt from a copy; the untouched run after
        # it shifts by what the rows up to it grew or shrank.
        rows = sorted(cut.keys() | grown.keys())
        rebuilt, runs, shift = [], [], 0
        for row, after in zip(rows, rows[1:] + [n]):
            lo, hi = offsets[row], offsets[row + 1]
            gone = cut.get(row, ())
            row_arcs = [
                arc for arc in self.neighbor_weights(row) if arc[0] not in gone
            ] + grown.get(row, [])
            rebuilt.append((lo + shift, row_arcs))
            shift += len(row_arcs) - (hi - lo)
            runs.append((row, hi, offsets[after], shift))
        # Runs moving left go left to right, then runs moving right go right
        # to left: no run is overwritten before it has moved.
        for _, lo, hi, by in [run for run in runs if run[3] < 0] + [
            run for run in reversed(runs) if run[3] > 0
        ]:
            if lo < hi:  # an empty move is skipped
                neighbors[lo + by : hi + by] = neighbors[lo:hi]
                weights[lo + by : hi + by] = weights[lo:hi]
        for start, row_arcs in rebuilt:
            if row_arcs:
                stop = start + len(row_arcs)
                neighbors[start:stop] = array("q", [v for v, _ in row_arcs])
                weights[start:stop] = array("d", [w for _, w in row_arcs])
        self.neighbors, self.weights = neighbors[:size], weights[:size]
        self._arc = None
        # Every offset past a touched row moves by that row's growth.
        previous = 0
        for row, _, _, moved in runs:
            delta, previous = moved - previous, moved
            if not delta:
                continue
            if self._clib is None:
                for node in range(row + 1, n + 1):
                    offsets[node] += delta
            else:
                self._clib.shift_offsets(
                    _ckernels.buffer_arg(offsets, "q", n + 1, "offsets"),
                    n + 1, row, delta,
                )

        profile = self.profile
        for weight in folded:
            profile = (
                profile_with_weight(profile, weight)
                if kept
                else profile_weights((weight, weight))
            )
            kept = 2
        self.profile, self.unit_weights = profile, profile.unit
        self.kernel = self._select_kernel(None)

    def _reserve(self, size: int) -> None:
        """Make the owned store hold ``size`` arcs (see :meth:`splice`)."""
        if self._store is not None and len(self._store[0]) >= size:
            return
        live = self.offsets[self.num_nodes]
        capacity = 2 * max(size, live)
        store = tuple(
            memoryview(array(code, bytes(8 * capacity))) for code in "qd"
        )
        store[0][:live] = memoryview(self.neighbors)[:live]
        store[1][:live] = memoryview(self.weights)[:live]
        if self._store is None:
            self.offsets = array("q", self.offsets)
        self._store = store
        self._c = None  # its pointers are into the old slabs

    # -- lazy slabs and arenas ----------------------------------------------

    @property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Every row as :meth:`neighbor_weights` reads it -- the shape of
        :attr:`Topology.adjacency` -- carved once per edit: the Python
        kernels' slab, which the churn passes' twins read too.

        CPython boxes a fresh object on every ``array`` index, which would
        dominate the kernel runtime, so the scan loops iterate ready-made
        tuples carved once from the CSR slab here.
        """
        if self._arc is None:
            offs = self.offsets.tolist()
            arcs = list(zip(self.neighbors.tolist(), self.weights.tolist()))
            self._arc = [
                arcs[offs[node] : offs[node + 1]]
                for node in range(self.num_nodes)
            ]
        return self._arc

    def _c_arena(self) -> tuple:
        """ctypes pointers to the offsets, neighbors and weights slabs, all
        a batched C call reads of the graph (it builds its scratch itself);
        a spliced graph's point into its store and live as long as it does.
        """
        if self._c is None:
            arg = _ckernels.buffer_arg
            neighbors, weights = self._store or (self.neighbors, self.weights)
            self._c = (
                arg(self.offsets, "q", len(self.offsets), "offsets"),
                arg(neighbors, "q", len(neighbors), "neighbors"),
                arg(weights, "d", len(weights), "weights"),
            )
        return self._c

    # -- core search dispatch ----------------------------------------------

    def _search(
        self,
        source: int,
        *,
        targets: Iterable[int] | None = None,
        k: int | None = None,
        radius: float | None = None,
        inclusive: bool = False,
        out: tuple[list[float], list[int]] | None = None,
    ) -> list[int]:
        """The Python tier's one search; the settled nodes in settle order.

        The batch drivers run it, after checking every id.  Afterwards
        ``self._dist[v]`` / ``self._pred[v]`` hold each returned node's
        distance / predecessor until the next search reuses the arena;
        ``out`` writes them into caller-owned dense rows instead (full
        searches only: with truncation, discovered-but-unsettled nodes
        would leak partial values).  The settled stamps
        :meth:`batched_target_distances` reads are kept only when
        ``targets`` is given.
        """
        if self._seen is None:  # the generation-stamped arena, made once
            n = self.num_nodes
            self._dist = [_INF] * n
            self._pred = [-1] * n
            self._seen = [0] * n
            self._done = [0] * n
        self._generation += 1
        if self.kernel == "bfs":
            return self._search_bfs(source, targets, k, radius, inclusive, out)
        if self.kernel == "bucket":
            return self._search_dial(
                source, targets, k, radius, inclusive, out
            )
        return self._search_heap(source, targets, k, radius, inclusive, out)

    # -- Python heap kernel (lazy heapq; the no-compiler fallback) ----------

    def _search_heap(
        self,
        source: int,
        targets: Iterable[int] | None,
        k: int | None,
        radius: float | None,
        inclusive: bool,
        out: tuple[list[float], list[int]] | None = None,
    ) -> list[int]:
        generation = self._generation
        if out is None:
            dist = self._dist
            pred = self._pred
        else:
            dist, pred = out
        seen = self._seen
        done = self._done
        arcs = self.adjacency
        order: list[int] = []
        settle = order.append
        remaining = set(targets) if targets is not None else None
        seen[source] = generation
        dist[source] = 0.0
        pred[source] = -1
        heap: list[tuple[float, int]] = [(0.0, source)]
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            if k is not None and len(order) >= k:
                break
            d, node = pop(heap)
            if done[node] == generation:
                continue  # stale heap entry; the node settled at a smaller d
            if radius is not None:
                # The heap pops in nondecreasing distance, so the first
                # out-of-bounds settle ends the whole search.
                if inclusive:
                    if d > radius:
                        break
                elif d >= radius and node != source:
                    break
            done[node] = generation
            settle(node)
            if remaining is not None:
                remaining.discard(node)
                if not remaining:
                    break
            for neighbor, weight in arcs[node]:
                # No settled check is needed: weights are strictly positive
                # (Topology enforces it), so for a settled neighbor the
                # candidate always exceeds its final distance and both
                # branches below reject it.
                candidate = d + weight
                if seen[neighbor] != generation:
                    seen[neighbor] = generation
                    dist[neighbor] = candidate
                    pred[neighbor] = node
                    push(heap, (candidate, neighbor))
                else:
                    current = dist[neighbor]
                    if candidate < current:
                        dist[neighbor] = candidate
                        pred[neighbor] = node
                        push(heap, (candidate, neighbor))
                    elif candidate == current and node < pred[neighbor]:
                        pred[neighbor] = node
        return order

    # -- Python Dial bucket kernel ------------------------------------------

    def _search_dial(
        self,
        source: int,
        targets: Iterable[int] | None,
        k: int | None,
        radius: float | None,
        inclusive: bool,
        out: tuple[list[float], list[int]] | None = None,
    ) -> list[int]:
        """Dial bucket queue for power-of-two-quantized weights.

        Distances are exact multiples of ``profile.quantum``, so bucket
        indices are exact integers and every bucket holds equal-distance
        nodes: sorting a bucket by id reproduces the global
        ``(distance, id)`` settle order.  Decreases append a fresh entry and
        leave the stale one behind; a sweep drops entries whose recorded
        distance no longer matches the bucket level.  Buckets live in a
        persistent arena list, cleared as they are swept (plus a tail
        cleanup on truncated searches).
        """
        generation = self._generation
        if out is None:
            dist = self._dist
            pred = self._pred
        else:
            dist, pred = out
        seen = self._seen
        done = self._done
        arcs = self.adjacency
        quantum = self.profile.quantum
        inv_quantum = 1.0 / quantum
        order: list[int] = []
        settle = order.append
        remaining = set(targets) if targets is not None else None
        seen[source] = generation
        dist[source] = 0.0
        pred[source] = -1
        buckets = self._buckets
        if not buckets:
            buckets.append([])
        num_buckets = len(buckets)
        buckets[0].append(source)
        pending = 1
        index = 0
        stop = False
        while pending and not stop:
            bucket = buckets[index]
            if not bucket:
                index += 1
                continue
            level = index * quantum
            if radius is not None:
                if inclusive:
                    if level > radius:
                        break
                elif level >= radius and index > 0:
                    break
            if len(bucket) > 1:
                bucket.sort()
            for node in bucket:
                pending -= 1
                if dist[node] != level:
                    continue  # stale entry; settled at a smaller distance
                if k is not None and len(order) >= k:
                    stop = True
                    break
                done[node] = generation
                settle(node)
                if remaining is not None:
                    remaining.discard(node)
                    if not remaining:
                        stop = True
                        break
                for neighbor, weight in arcs[node]:
                    candidate = level + weight
                    if seen[neighbor] != generation:
                        seen[neighbor] = generation
                    else:
                        current = dist[neighbor]
                        if candidate < current:
                            pass  # fall through to the append below
                        else:
                            if (
                                candidate == current
                                and node < pred[neighbor]
                            ):
                                pred[neighbor] = node
                            continue
                    dist[neighbor] = candidate
                    pred[neighbor] = node
                    slot = int(candidate * inv_quantum)
                    if slot >= num_buckets:
                        buckets.extend(
                            [] for _ in range(slot + 1 - num_buckets)
                        )
                        num_buckets = slot + 1
                    buckets[slot].append(neighbor)
                    pending += 1
            bucket.clear()
            index += 1
        if pending:
            # Truncated search: drop the entries the sweep never reached so
            # the arena is clean for the next search.
            for bucket in buckets[index:]:
                if bucket:
                    bucket.clear()
        return order

    # -- Python BFS kernel ---------------------------------------------------

    def _search_bfs(
        self,
        source: int,
        targets: Iterable[int] | None,
        k: int | None,
        radius: float | None,
        inclusive: bool,
        out: tuple[list[float], list[int]] | None = None,
    ) -> list[int]:
        """Unit-weight fast path: level-ordered BFS, bit-identical results.

        Each frontier is sorted by node id before settling, which buys two
        invariants at once: the settlement order matches the heap kernel's
        ``(distance, id)`` order exactly (required at the *k*-nearest
        truncation boundary), and -- because a level-``d+1`` node's possible
        predecessors are exactly the level-``d`` nodes and discovery scans
        them in ascending id -- the *first* discoverer of a node is its
        min-id parent, reproducing the heap kernel's tie-break with no
        per-edge comparison.  Distances are written at settlement, not
        discovery: a truncated search discovers far more nodes than it
        settles, and nothing reads the distance of an unsettled node.
        """
        generation = self._generation
        if out is None:
            dist = self._dist
            pred = self._pred
        else:
            dist, pred = out
        seen = self._seen
        done = self._done
        arcs = self.adjacency
        order: list[int] = []
        remaining = set(targets) if targets is not None else None
        seen[source] = generation
        pred[source] = -1
        frontier = [source]
        level = 0.0
        while frontier:
            if radius is not None:
                if inclusive:
                    if level > radius:
                        break
                elif level >= radius and level > 0.0:
                    break
            if len(frontier) > 1:
                frontier.sort()
            if k is not None:
                room = k - len(order)
                if len(frontier) >= room:
                    # The truncated level is settled without scanning its
                    # edges: anything it would discover can never settle.
                    frontier = frontier[:room]
                    order.extend(frontier)
                    for node in frontier:
                        dist[node] = level
                    break
            next_level = level + 1.0
            next_frontier: list[int] = []
            discover = next_frontier.append
            if remaining is None:
                order.extend(frontier)
                for node in frontier:
                    dist[node] = level
                    for neighbor, _ in arcs[node]:
                        if seen[neighbor] != generation:
                            seen[neighbor] = generation
                            pred[neighbor] = node
                            discover(neighbor)
            else:
                stop = False
                for node in frontier:
                    done[node] = generation
                    dist[node] = level
                    order.append(node)
                    remaining.discard(node)
                    if not remaining:
                        stop = True
                        break
                    for neighbor, _ in arcs[node]:
                        if seen[neighbor] != generation:
                            seen[neighbor] = generation
                            pred[neighbor] = node
                            discover(neighbor)
                if stop:
                    break
            frontier = next_frontier
            level = next_level
        return order

    def spt_rows(
        self, source: int, *, fill: float = 0.0
    ) -> tuple[list[float], list[int]]:
        """Full shortest-path tree as dense rows indexed by node id.

        Returns ``(dist_row, parent_row)``; unreachable nodes keep ``fill``
        and ``-1`` (the converged-state models assume connected topologies
        and historically used a 0.0 fill).  A one-source call of
        :meth:`spt_rows_batch_into`.
        """
        dist_row = array("d", bytes(8 * self.num_nodes))
        parent_row = array("q", bytes(8 * self.num_nodes))
        self.spt_rows_batch_into(
            (source,), dist_row, parent_row, fill=fill, threads=1
        )
        return dist_row.tolist(), parent_row.tolist()

    # -- batch drivers --------------------------------------------------------
    #
    # One driver per kind of search, taking or returning flat typed buffers
    # (the substrate build's slabs may be mmap-backed and larger than RAM):
    # no per-element boxing, no per-node dicts.  On the C tier a driver is
    # one FFI call: the source loop and a pthread fan-out run inside
    # _kernels.c, one scratch arena per thread, disjoint output --
    # byte-identical for any width (``threads=None``: :func:`kernel_threads`).
    # The Python tier, and a C call that could not allocate, loop over
    # :meth:`_search` inside the driver.

    def _batch_call(self, name: str, sources: array, *args) -> int:
        """Run the batched C entry point ``name`` over ``sources``.

        Returns its status; ``-1`` (it could not allocate) is the one
        failure every driver answers with the Python tier's loop, so the
        warning is raised here.
        """
        kernel_id = {"heap": 0, "bucket": 1, "bfs": 2}[self.kernel]
        if self.kernel == "bucket":
            quantum = self.profile.quantum
            slots = (self.profile.max_quanta or 0) + 1
        else:
            quantum, slots = 0.0, 0
        status = getattr(self._clib, name)(
            self.num_nodes,
            *self._c_arena(),
            kernel_id,
            quantum,
            slots,
            (ctypes.c_int64 * len(sources)).from_buffer(sources),
            len(sources),
            *args,
        )
        if status == -1:
            warnings.warn(
                f"{name} could not allocate its scratch; running the "
                "Python kernels instead (same output, slower)",
                RuntimeWarning,
                stacklevel=3,
            )
        return status

    def _check_sources(self, sources: array) -> None:
        if sources and not 0 <= min(sources) <= max(sources) < self.num_nodes:
            bad = min(sources) if min(sources) < 0 else max(sources)
            raise ValueError(
                f"node {bad} out of range for graph with "
                f"{self.num_nodes} nodes"
            )

    def spt_rows_batch_into(
        self,
        sources: Sequence[int],
        dist_out,
        parent_out,
        *,
        fill: float = 0.0,
        closest_dist=None,
        closest_landmark=None,
        threads: int | None = None,
    ) -> None:
        """Dense SPT rows for every source, one kernel call for the batch.

        ``dist_out`` / ``parent_out`` are writable ``'d'`` / ``'q'`` buffers
        (``array`` or ``memoryview``, e.g. a ``SubstrateTables`` slab) of at
        least ``len(sources) * n`` entries; row ``i`` belongs to
        ``sources[i]`` and unreachable nodes hold ``fill`` / ``-1``.  When
        ``closest_dist`` / ``closest_landmark`` are given (length-``n``
        writable buffers seeded ``+inf`` / ``-1``), the closest-landmark
        fold of ascending-id sources runs in the same pass -- sources must
        then be in ascending order, as the substrate build's are.  A buffer
        of the wrong type or size raises before anything is written.
        """
        width = kernel_threads(threads)
        src = sources if isinstance(sources, array) else array("q", sources)
        self._check_sources(src)
        n = self.num_nodes
        total = len(src) * n
        p_dist = _ckernels.buffer_arg(dist_out, "d", total, "dist_out", base=0)
        p_parent = _ckernels.buffer_arg(
            parent_out, "q", total, "parent_out", base=0
        )
        fold = closest_dist is not None and closest_landmark is not None
        p_best_d = p_best_l = None
        if fold:
            p_best_d = _ckernels.buffer_arg(
                closest_dist, "d", n, "closest_dist"
            )
            p_best_l = _ckernels.buffer_arg(
                closest_landmark, "q", n, "closest_landmark"
            )
        if not src:
            return
        if self.tier == "c":
            status = self._batch_call(
                "spt_rows_batch",
                src, p_dist, p_parent, fill, p_best_d, p_best_l, width,
            )
            if status == 0:
                return
        dist_mv = memoryview(dist_out)
        parent_mv = memoryview(parent_out)
        unreached = array("d", [fill]) * n
        no_parent = array("q", [-1]) * n
        for index, source in enumerate(src):
            row = dist_mv[index * n : (index + 1) * n]
            parent_row = parent_mv[index * n : (index + 1) * n]
            # Only settled nodes are written, so the rest keep the fill.
            row[:] = unreached
            parent_row[:] = no_parent
            self._search(source, out=(row, parent_row))
            if fold:
                for node in range(n):
                    d = row[node]
                    if d < closest_dist[node]:
                        closest_dist[node] = d
                        closest_landmark[node] = source

    def k_nearest_batch_into(
        self,
        k: int,
        sources: Sequence[int],
        members,
        dists,
        parents,
        offsets: array,
        *,
        base: int = 0,
        threads: int | None = None,
    ) -> int:
        """Truncated searches written straight into preallocated slabs.

        For each source (in the given order) the settled row -- members in
        settle order, their distances, and their predecessors (``-1`` for
        the source itself) -- is appended to the writable ``'q'`` / ``'d'``
        / ``'q'`` buffers starting at position ``base``; one offset per
        source is appended to ``offsets``.  Returns the position after the
        last row.  The buffers must hold ``base + len(sources) * min(k, n)``
        entries (the capacity the substrate build preallocates; a buffer of
        the wrong type or size raises before anything is written): in the
        kernel source ``i`` provisionally owns the range starting at
        ``base + i * min(k, n)`` and rows are compacted left after the
        join, reproducing the append layout.  A row is the first ``k``
        nodes in ``(distance, id)`` settle order -- the §4.2 vicinity -- or
        the whole component when it has fewer.
        """
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        width = kernel_threads(threads)
        src = sources if isinstance(sources, array) else array("q", sources)
        self._check_sources(src)
        span = len(src) * min(k, self.num_nodes)
        p_members = _ckernels.buffer_arg(
            members, "q", span, "members", base=base
        )
        p_dists = _ckernels.buffer_arg(dists, "d", span, "dists", base=base)
        p_parents = _ckernels.buffer_arg(
            parents, "q", span, "parents", base=base
        )
        if not src:
            return base
        if self.tier == "c":
            row_ends = array("q", bytes(8 * len(src)))
            total = self._batch_call(
                "k_nearest_batch",
                src, k, p_members, p_dists, p_parents,
                (ctypes.c_int64 * len(src)).from_buffer(row_ends),
                width,
            )
            if total >= 0:
                offsets.extend(
                    array("q", [base + end for end in row_ends])
                    if base
                    else row_ends
                )
                return base + total
        members = memoryview(members)
        dists = memoryview(dists)
        parents = memoryview(parents)
        position = base
        for source in src:
            order = self._search(source, k=k)
            dist = self._dist
            pred = self._pred
            for node in order:
                members[position] = node
                dists[position] = dist[node]
                parents[position] = pred[node]
                position += 1
            offsets.append(position)
        return position

    def k_nearest_batch_flat(
        self,
        k: int,
        nodes: Iterable[int] | None = None,
        *,
        threads: int | None = None,
    ) -> tuple[array, array, array, array]:
        """Per-source *k*-nearest rows as one flat CSR-shaped result.

        Returns ``(offsets, members, dists, parents)`` in the layout of
        :meth:`radius_batch_flat`.  :meth:`k_nearest_batch_into` over
        provisional slab capacity allocated here and trimmed to the actual
        fill.
        """
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        sources = range(self.num_nodes) if nodes is None else nodes
        src = sources if isinstance(sources, array) else array("q", sources)
        capacity = min(k, self.num_nodes) * len(src)
        members = array("q", bytes(8 * capacity))
        dists = array("d", bytes(8 * capacity))
        parents = array("q", bytes(8 * capacity))
        offsets = array("q", [0])
        position = self.k_nearest_batch_into(
            k, src, members, dists, parents, offsets, threads=threads
        )
        if position < capacity:
            members = members[:position]
            dists = dists[:position]
            parents = parents[:position]
        return offsets, members, dists, parents

    def radius_batch_flat(
        self,
        radii: Sequence[float],
        nodes: Sequence[int] | None = None,
        *,
        inclusive: bool = False,
        threads: int | None = None,
    ) -> tuple[array, array, array, array]:
        """Per-source radius-bounded rows as one flat CSR-shaped result.

        Returns ``(offsets, members, dists, parents)``: row ``i`` of the
        batch (source ``i`` of ``nodes``, default all nodes in id order)
        lives at ``offsets[i] .. offsets[i + 1]`` of the three data arrays,
        members in settle order with the source first (its parent entry is
        ``-1``).  ``radii`` aligns with ``nodes`` and must cover every
        source.  The boundary is strict by default -- a node at exactly
        the radius is excluded, matching the S4 cluster definition
        ``d(v, w) < d(w, l_w)`` -- and ``inclusive=True`` makes the
        comparison ``<=``; the source always settles, even at radius 0.
        Row sizes are unknown upfront, so each kernel thread grows a
        private buffer for its contiguous source chunk and the chunks are
        concatenated in task order after the join, in C.

        >>> from repro.graphs.topology import Topology
        >>> csr = Topology.from_edges(3, [(0, 1, 1.5), (1, 2, 1.5)]).csr()
        >>> list(csr.radius_batch_flat([3.0], [0])[1])
        [0, 1]
        >>> list(csr.radius_batch_flat([3.0], [0], inclusive=True)[1])
        [0, 1, 2]
        """
        width = kernel_threads(threads)
        sources = range(self.num_nodes) if nodes is None else nodes
        if len(radii) != len(sources):
            raise ValueError(
                f"radii must have exactly {len(sources)} entries, "
                f"got {len(radii)}"
            )
        src = array("q", sources)
        self._check_sources(src)
        radii_arr = radii if isinstance(radii, array) else array("d", radii)
        if src and min(radii_arr) < 0:
            raise ValueError(f"radius must be >= 0, got {min(radii_arr)}")
        offsets = array("q", [0])
        members = array("q")
        dists = array("d")
        parents = array("q")
        if self.tier == "c" and src:
            row_ends = array("q", bytes(8 * len(src)))
            out_members = ctypes.POINTER(ctypes.c_int64)()
            out_dists = ctypes.POINTER(ctypes.c_double)()
            out_parents = ctypes.POINTER(ctypes.c_int64)()
            total = self._batch_call(
                "radius_batch",
                src,
                (ctypes.c_double * len(src)).from_buffer(radii_arr),
                _RADIUS_INCLUSIVE if inclusive else _RADIUS_STRICT,
                (ctypes.c_int64 * len(src)).from_buffer(row_ends),
                ctypes.byref(out_members),
                ctypes.byref(out_dists),
                ctypes.byref(out_parents),
                width,
            )
            if total >= 0:
                try:
                    members.frombytes(ctypes.string_at(out_members, 8 * total))
                    dists.frombytes(ctypes.string_at(out_dists, 8 * total))
                    parents.frombytes(ctypes.string_at(out_parents, 8 * total))
                finally:
                    self._clib.buffer_free(out_members)
                    self._clib.buffer_free(out_dists)
                    self._clib.buffer_free(out_parents)
                offsets.extend(row_ends)
                return offsets, members, dists, parents
        for source, radius in zip(src, radii_arr):
            order = self._search(source, radius=radius, inclusive=inclusive)
            dist = self._dist
            pred = self._pred
            members.extend(order)
            dists.extend([dist[node] for node in order])
            parents.extend([pred[node] for node in order])
            offsets.append(len(members))
        return offsets, members, dists, parents

    def batched_target_distances(
        self, pairs: Iterable[tuple[int, int]], *, threads: int | None = None
    ) -> dict[tuple[int, int], float]:
        """Shortest distances for source-destination pairs.

        Pairs are grouped by source; each distinct source runs one
        early-stopping search.  On the C tier the grouped batch goes down
        in a single ``target_distances_batch`` call (sources fanned over
        kernel threads, each with its own arena).  Raises ``ValueError`` if
        any target is unreachable from its source.
        """
        width = kernel_threads(threads)
        by_source: dict[int, set[int]] = {}
        for source, target in pairs:
            by_source.setdefault(source, set()).add(target)
        grouped = sorted(by_source)
        src = array("q", grouped)
        tgt_offsets = array("q", [0])
        tgt_nodes = array("q")
        for source in grouped:
            tgt_nodes.extend(sorted(by_source[source]))
            tgt_offsets.append(len(tgt_nodes))
        self._check_sources(src)
        self._check_sources(tgt_nodes)
        if self.tier == "c" and src:
            dist_out = array("d", bytes(8 * len(tgt_nodes)))
            status = self._batch_call(
                "target_distances_batch",
                src,
                (ctypes.c_int64 * len(tgt_offsets)).from_buffer(tgt_offsets),
                (ctypes.c_int64 * len(tgt_nodes)).from_buffer(tgt_nodes),
                (ctypes.c_double * len(tgt_nodes)).from_buffer(dist_out),
                width,
            )
            if status == 0:
                flat = 0
                result = {}
                for index, source in enumerate(grouped):
                    for _ in range(tgt_offsets[index], tgt_offsets[index + 1]):
                        result[(source, tgt_nodes[flat])] = dist_out[flat]
                        flat += 1
                return result
            if status <= -2:
                flat = -status - 2
                source = grouped[bisect_right(tgt_offsets, flat) - 1]
                raise ValueError(
                    f"node {tgt_nodes[flat]} unreachable from {source}; "
                    "topology must be connected"
                )
        result = {}
        for source, targets in by_source.items():
            self._search(source, targets=targets)
            generation = self._generation
            # A target settled iff it was stamped: the search only stops
            # early once every target settled, and at exhaustion every
            # discovered node is settled.
            settled = self._done
            dist = self._dist
            for target in targets:
                if settled[target] != generation:
                    raise ValueError(
                        f"node {target} unreachable from {source}; "
                        "topology must be connected"
                    )
                result[(source, target)] = dist[target]
        return result
