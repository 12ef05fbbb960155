"""In-memory span recorder for the traced benchmark run.

Workloads wrap every call into a layer in ``with recorder.span(name)``.
A span always measures its own duration (two ``perf_counter`` reads, the
same cost as timing by hand), so the untraced and the traced run share one
code path; only an *enabled* recorder keeps the span and folds it into the
per-layer aggregates.  Self time is a span's duration minus the part its
child spans cover.  Everything stays in memory until :meth:`Recorder.flush`.
"""

from __future__ import annotations

import json
import time

__all__ = ["TIMED", "Recorder", "Span"]

#: Name of the root span a workload opens around its timed section.
TIMED = "timed"

#: Raw spans kept per name; beyond it a name lives on as aggregates only.
SPAN_CAP = 10_000


class Span:
    """One timed interval; ``seconds`` is valid after the ``with`` block."""

    __slots__ = ("recorder", "name", "id", "start", "end", "children_s")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.children_s = 0.0

    def __enter__(self) -> "Span":
        self.id = self.recorder._new_id()
        self.recorder._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.recorder._close(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Span store plus per-name aggregates for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.spans: list[dict] = []
        #: name -> [count, total_s, self_s, self_s inside the timed section]
        self.layers: dict[str, list] = {}
        self._stack: list[Span] = []
        self._next_id = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def add(self, name: str, seconds: float) -> None:
        """Book ``seconds`` the program measured itself as a child span.

        Used for phase timings a layer already returns (``build_stats``):
        there is a duration but no start or end to record.
        """
        if not self.enabled:
            return
        if self._stack:
            self._stack[-1].children_s += seconds
        self._fold(self._new_id(), name, seconds, seconds, None, None)

    def _close(self, span: Span) -> None:
        self._stack.pop()
        if not self.enabled:
            return
        seconds = span.end - span.start
        if self._stack:
            self._stack[-1].children_s += seconds
        self._fold(
            span.id,
            span.name,
            seconds,
            seconds - span.children_s,
            span.start,
            span.end,
        )

    def _fold(self, span_id, name, seconds, self_s, start, end) -> None:
        entry = self.layers.setdefault(name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += self_s
        if name == TIMED or any(open_.name == TIMED for open_ in self._stack):
            entry[3] += self_s
        if entry[0] <= SPAN_CAP:
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "seconds": seconds,
                    "self_s": self_s,
                    "parent": self._stack[-1].id if self._stack else None,
                    "workload": self.workload,
                }
            )

    def durations(self, name: str, field: str = "seconds") -> list[float]:
        """Durations (or ``self_s``) of the kept raw spans called ``name``."""
        return [s[field] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (0.0 if none)."""
        return self.layers.get(name, (0, 0.0))[1]

    def count(self, name: str) -> int:
        return self.layers.get(name, (0,))[0]

    def layer_table(self) -> dict[str, dict]:
        """Per-layer count, total, self time and share of the timed section."""
        timed_total = self.total(TIMED)
        return {
            name: {
                "count": count,
                "total_s": total,
                "self_s": self_s,
                "share": timed_self / timed_total if timed_total else 0.0,
            }
            for name, (count, total, self_s, timed_self) in sorted(
                self.layers.items()
            )
        }

    def flush(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": "repro-bench-trace/v1",
                    "workload": self.workload,
                    "layers": self.layer_table(),
                    "spans": self.spans,
                },
                handle,
            )
            handle.write("\n")
