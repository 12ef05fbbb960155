"""Reference implementations the tests compare the program against.

One oracle per layer, none importable from ``src/``:

* :mod:`oracles.reference_paths` -- the seed's dict-based Dijkstra variants;
* :mod:`oracles.replay` -- per-event full reconvergence plus a state diff,
  the bill the churn engine must reproduce incrementally.
"""
