#!/usr/bin/env python3
"""Environment-knob checker: ``REPRO_*`` in the code vs the documented table.

Collects every ``REPRO_[A-Z_]+`` literal under ``src/repro/`` and every
``REPRO_*`` name in the first column of the "Environment variables" table
of ``docs/REPRODUCING.md``; the two sets must be equal.  A variable the
code reads but the table omits, or a table row for a variable the code no
longer mentions, exits non-zero naming each side's extras -- so an
environment switch can neither appear nor linger unannounced.

Usage: python tools/check_env_knobs.py [root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

KNOB = re.compile(r"REPRO_[A-Z_]+")
TABLE_HEADING = "## Environment variables"
ROW = re.compile(r"^\|\s*`(REPRO_[A-Z_]+)`\s*\|")


def knobs_in_source(root: Path) -> set[str]:
    found: set[str] = set()
    for path in sorted((root / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            found.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return found


def knobs_in_table(doc: Path) -> set[str]:
    found: set[str] = set()
    in_section = False
    for line in doc.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_section = line.strip() == TABLE_HEADING
        elif in_section:
            match = ROW.match(line)
            if match:
                found.add(match.group(1))
    return found


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    root = root.resolve()
    doc = root / "docs" / "REPRODUCING.md"
    source = knobs_in_source(root)
    table = knobs_in_table(doc)
    errors = [
        f"{name}: read under src/repro/ but has no row in "
        f"{doc.relative_to(root)} ({TABLE_HEADING!r})"
        for name in sorted(source - table)
    ] + [
        f"{name}: documented in {doc.relative_to(root)} but not mentioned "
        "under src/repro/"
        for name in sorted(table - source)
    ]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(f"env knob check ok ({len(source)} variables)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
