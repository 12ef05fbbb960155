"""The seven workloads, by the names ``BENCHMARK.json`` gives them.

See :mod:`bench.workloads.base` for the interface each one implements.
"""

from bench.workloads import churn, converge, resolve, route, suite

WORKLOADS = {
    workload.NAME: workload
    for workload in (
        converge,
        route,
        churn.EDGE,
        churn.NODE,
        resolve,
        suite.COLD,
        suite.WARM,
    )
}
