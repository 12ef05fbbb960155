"""Plain-text rendering of tables and CDFs for the experiment harness.

The paper's evaluation is a collection of figures (CDF plots) and tables.
Since this reproduction is library-first and runs headless, every experiment
renders its output as text: aligned tables for the tables, and a compact
textual CDF (value at selected percentiles) for the figures.  These renderers
keep that formatting consistent across all experiments and examples.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.utils.distributions import percentile

__all__ = ["format_table", "format_cdf"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned, pipe-free text table.

    Floats are formatted with ``float_format``; everything else with ``str``.
    Column widths adapt to content.  Returns the table as a single string
    (no trailing newline).
    """
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    header_cells = [str(h) for h in headers]
    num_columns = len(header_cells)
    for row in rendered_rows:
        if len(row) != num_columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {num_columns}: {row}"
            )

    widths = [len(cell) for cell in header_cells]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [render_line(header_cells)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_cdf(
    series: Mapping[str, Sequence[float]],
    *,
    quantiles: Sequence[float] = (10, 25, 50, 75, 90, 95, 99, 100),
    float_format: str = "{:.3f}",
) -> str:
    """Render one or more samples as a textual CDF comparison table.

    ``series`` maps a series label (e.g. protocol name) to its raw sample.
    The output has one row per series and one column per requested quantile,
    which is the text equivalent of the paper's CDF figures.
    """
    headers = ["series"] + [f"p{int(q) if float(q).is_integer() else q}" for q in quantiles]
    rows = []
    for label, values in series.items():
        if len(values) == 0:
            rows.append([label] + ["-"] * len(quantiles))
            continue
        rows.append([label] + [percentile(list(values), q) for q in quantiles])
    return format_table(headers, rows, float_format=float_format)

