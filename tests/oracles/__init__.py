"""Reference implementations the tests compare the program against.

One oracle per layer, none importable from ``src/``:

* :mod:`oracles.reference_paths` -- the seed's dict-based Dijkstra variants
  and path helpers, plus the row drivers read back as their dicts;
* :mod:`oracles.shortcutting` -- the shortcut modes over dict vicinities,
  the routes the ND-Disco router's ``shortcut`` must equal;
* :mod:`oracles.replay` -- per-event full reconvergence plus a state diff,
  the bill the churn engine must reproduce incrementally;
* :mod:`oracles.fresh_build` -- the production builder on the engine's
  mutated topology, the tables the engine's in-place repairs must equal;
* :mod:`oracles.component_build` -- the dict-shaped component-wise
  substrate build, the slabs the production builder must equal;
* :mod:`oracles.overlay_draw` -- the dict-ring overlay that resolved every
  finger draw, the ring and fingers the overlay must equal;
* :mod:`oracles.hash_ring` -- the mutable consistent-hash ring, the
  placements ``VNodeRing`` must equal;
* :mod:`oracles.state_accounting` -- ND-Disco's, Disco's and S4's per-node
  ``state_entries`` / ``state_bytes``, the values ``state_profile`` must
  equal.
"""
