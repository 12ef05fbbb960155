"""End-to-end and per-layer benchmark of the Disco reproduction.

Seven closed-loop, single-client workloads (``converge``, ``route``,
``churn_edge``, ``churn_node``, ``resolve``, ``suite_cold``, ``suite_warm``)
measured from outside ``src/`` by timing calls into public functions.
``BENCHMARK.json`` at the repository root names every workload and metric;
``bench/README.md`` explains them.

``python3 -m bench measure --workload W --seed S --seconds T --trace 0|1``
is one measurement run; ``python3 -m bench run`` drives all seven and
``python3 -m bench compare A B`` judges two result sets.
"""
