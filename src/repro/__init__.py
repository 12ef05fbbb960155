"""repro: a reproduction of "Scalable Routing on Flat Names" (Disco).

The public API re-exports the pieces a downstream user typically needs:

* topologies and generators (:mod:`repro.graphs`),
* the Disco / NDDisco protocols (:mod:`repro.core`),
* the baseline protocols the paper compares against (:mod:`repro.protocols`),
* the evaluation metrics (:mod:`repro.metrics`),
* the static and discrete-event simulators (:mod:`repro.staticsim`,
  :mod:`repro.sim`),
* the experiment harness that regenerates every table and figure
  (:mod:`repro.experiments`).

Quick start::

    from repro import gnm_random_graph, DiscoRouting, measure_stretch

    topology = gnm_random_graph(256, seed=1)
    disco = DiscoRouting(topology, seed=1)
    report = measure_stretch(disco, pair_sample=200, seed=1)
    print(report.first_summary.mean, report.later_summary.mean)
"""

from repro._lazy import lazy_exports

#: Eager: :mod:`repro.scenarios.cache` folds it into every artifact key,
#: and ``setup.py`` reads this line as text.
__version__ = "1.0.0"

# Public name -> the subpackage that defines it, imported when the name is
# first used: ``python -m repro list`` imports this file too, and must not
# pay for the routing stack to print twenty ids.
_EXPORTS = {
    "Topology": "repro.graphs",
    "geometric_random_graph": "repro.graphs",
    "gnm_random_graph": "repro.graphs",
    "internet_as_level": "repro.graphs",
    "internet_router_level": "repro.graphs",
    "DiscoRouting": "repro.core",
    "NDDiscoRouting": "repro.core",
    "ShortcutMode": "repro.core",
    "PathVectorRouting": "repro.protocols",
    "RouteResult": "repro.protocols",
    "RoutingScheme": "repro.protocols",
    "S4Routing": "repro.protocols",
    "ShortestPathRouting": "repro.protocols",
    "VirtualRingRouting": "repro.protocols",
    "build_scheme": "repro.protocols",
    "measure_congestion": "repro.metrics",
    "measure_state": "repro.metrics",
    "measure_stretch": "repro.metrics",
}

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
