"""Reference implementations the tests compare the program against.

One oracle per layer, none importable from ``src/``:

* :mod:`oracles.reference_paths` -- the seed's dict-based Dijkstra variants
  and path helpers, plus the row drivers read back as their dicts and a
  topology handed to networkx;
* :mod:`oracles.shortcutting` -- the shortcut modes over dict vicinities,
  the routes the ND-Disco router's ``shortcut`` must equal;
* :mod:`oracles.replay` -- per-event full reconvergence plus a state diff,
  the bill the churn engine must reproduce incrementally;
* :mod:`oracles.streams` -- both event-stream generators re-sorting every
  live edge per draw and checking connectivity per trial removal, the
  streams the program's generators must equal;
* :mod:`oracles.fresh_build` -- the production builder on the engine's
  mutated topology, the tables the engine's in-place repairs must equal,
  and an engine adopted from a converged routing's tables;
* :mod:`oracles.component_build` -- the dict-shaped component-wise
  substrate build, the slabs the production builder must equal;
* :mod:`oracles.overlay_draw` -- the dict-ring overlay that resolved every
  finger draw, the ring and fingers the overlay must equal;
* :mod:`oracles.hash_ring` -- the mutable consistent-hash ring, the
  placements ``VNodeRing`` must equal, and the Chord interval test;
* :mod:`oracles.resolution_db` -- the converged resolution database given
  a soft-state clock, the records and expiry the sharded service must
  equal at one replica;
* :mod:`oracles.sloppy_groups` -- §4.4's group sets node by node and the
  longest-prefix contact ``GroupContactIndex``'s bisect must equal;
* :mod:`oracles.labels` -- decoding an explicit route, the inverse
  ``route_labels`` must have;
* :mod:`oracles.state_accounting` -- ND-Disco's, Disco's and S4's per-node
  ``state_entries`` / ``state_bytes``, the values ``state_profile`` must
  equal.
"""
