"""Fig. 8 -- control messages per node until convergence.

"Fig. 8: Mean messages per node sent until convergence in path vector, S4,
NDDisco and Disco (with 1 and 3 fingers for address dissemination) for
G(n,m) graphs of increasing size."  (§5.2)

The discrete-event simulator exchanges batched path-vector updates; the
quantity reported here is *route entries sent per node* (one entry per
advertised destination), which is the classic per-destination UPDATE count --
see :mod:`repro.sim.agents.pathvector_agent` for the batching model and
``docs/REPRODUCING.md`` for the figure's command and how to scale it toward
the paper's sizes.  The shapes to verify: path vector grows linearly in n
and dominates; S4 and NDDisco grow much more slowly (S4 slightly below
NDDisco, whose vicinities are a bit larger); Disco adds only a modest
overhead on top of NDDisco, and 3 fingers cost slightly more than 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header
from repro.experiments.workloads import sweep_gnm
from repro.scenarios.spec import scenario
from repro.sim.convergence import (
    ConvergenceReport,
    simulate_disco_convergence,
    simulate_nddisco_convergence,
    simulate_path_vector_convergence,
    simulate_s4_convergence,
)
from repro.utils.formatting import format_table

__all__ = ["MessagingResult", "run", "format_report"]


@dataclass(frozen=True)
class MessagingResult:
    """Convergence-messaging sweep results.

    ``reports[protocol][n]`` is the :class:`ConvergenceReport` for one run.
    """

    reports: dict[str, dict[int, ConvergenceReport]]
    sweep: tuple[int, ...]
    scale_label: str

    def entries_per_node(self, protocol: str) -> dict[int, float]:
        """The Fig. 8 curve for one protocol: n -> entries sent per node."""
        return {
            n: report.entries_per_node
            for n, report in self.reports[protocol].items()
        }


_CURVES = (
    "Path-Vector",
    "S4",
    "ND-Disco",
    "Disco-1-Finger",
    "Disco-3-Finger",
)


def _run_size(scale: ExperimentScale, key: str) -> dict[str, ConvergenceReport]:
    """All five curves at one swept size -- the engine's shard unit."""
    n = int(key)
    topology = sweep_gnm(n, scale.seed + n)
    return {
        "Path-Vector": simulate_path_vector_convergence(topology),
        "S4": simulate_s4_convergence(topology, seed=scale.seed),
        "ND-Disco": simulate_nddisco_convergence(topology, seed=scale.seed),
        "Disco-1-Finger": simulate_disco_convergence(
            topology, seed=scale.seed, num_fingers=1
        ),
        "Disco-3-Finger": simulate_disco_convergence(
            topology, seed=scale.seed, num_fingers=3
        ),
    }


def _merge_sizes(
    scale: ExperimentScale, parts: dict[str, dict[str, ConvergenceReport]]
) -> MessagingResult:
    sweep = scale.messaging_sweep
    reports: dict[str, dict[int, ConvergenceReport]] = {
        curve: {n: parts[str(n)][curve] for n in sweep} for curve in _CURVES
    }
    return MessagingResult(reports=reports, sweep=sweep, scale_label=scale.label)


run = scenario(
    "fig08-messaging",
    title="Fig. 8: control entries per node until convergence (G(n,m) sweep)",
    family="gnm",
    protocols=("path-vector", "s4", "nd-disco", "disco"),
    metrics=("messages",),
    workload="event-driven convergence per swept size",
    aliases=("fig08", "messaging"),
    tags=("figure",),
    shards=lambda scale: tuple(str(n) for n in scale.messaging_sweep),
    shard_runner=_run_size,
    shard_merge=_merge_sizes,
)


def format_report(result: MessagingResult) -> str:
    """Render the Fig. 8 curves as a protocol x n table."""
    rows = []
    for protocol, per_n in result.reports.items():
        rows.append(
            [protocol] + [per_n[n].entries_per_node for n in result.sweep]
        )
    table = format_table(
        ["protocol \\ n"] + [str(n) for n in result.sweep],
        rows,
        float_format="{:.1f}",
    )
    return "\n".join(
        [
            header(
                "Fig. 8: control entries sent per node until convergence "
                "(G(n,m) sweep)",
                f"scale={result.scale_label}",
            ),
            table,
        ]
    )
