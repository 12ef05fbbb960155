"""``repro cache``: stats, ls, clear and prune of the artifact cache."""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli.parser import cache_root
from repro.scenarios import lifecycle
from repro.utils.formatting import format_table


def _parse_size(text: str) -> int:
    """Parse a byte budget like ``1048576``, ``512K``, ``200M``, ``2G``."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    if text and text[-1].upper() in units:
        return int(float(text[:-1]) * units[text[-1].upper()])
    return int(text)


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB"):
        if count < 1024:
            return f"{count:.1f} {unit}" if unit != "B" else f"{int(count)} B"
        count /= 1024
    return f"{count:.1f} GiB"


def command(args: argparse.Namespace) -> int:
    root = cache_root(args)
    if args.cache_command == "stats":
        stats = lifecycle.cache_stats(root)
        rows = [
            [kind, entry["count"], _format_bytes(entry["bytes"])]
            for kind, entry in stats["kinds"].items()
        ]
        rows.append(["total", stats["count"], _format_bytes(stats["bytes"])])
        print(f"cache root: {root}")
        print(format_table(["kind", "artifacts", "bytes"], rows))
        # Refresh the aggregate view whenever a root exists -- including
        # an emptied one, so a stale manifest never outlives its artifacts.
        if os.path.isdir(root):
            manifest = lifecycle.write_manifest(root)
            print(f"manifest refreshed: {manifest}")
        return 0
    if args.cache_command == "ls":
        artifacts = lifecycle.scan(root)
        if args.kind:
            artifacts = [a for a in artifacts if a.kind == args.kind]
        rows = [
            [
                info.kind,
                info.key[:16],
                _format_bytes(info.bytes),
                f"{info.age_s / 3600.0:.1f}h",
            ]
            for info in sorted(artifacts, key=lambda a: (a.kind, a.key))
        ]
        print(format_table(["kind", "key", "bytes", "last hit"], rows))
        return 0
    if args.cache_command == "clear":
        report = lifecycle.clear(root)
        print(
            f"removed {len(report.removed)} artifact(s), "
            f"{_format_bytes(report.removed_bytes)}"
        )
        if os.path.isdir(root):
            lifecycle.write_manifest(root)
        return 0
    if args.cache_command == "prune":
        if args.max_bytes is None and args.max_age_days is None:
            print(
                "prune needs --max-bytes and/or --max-age-days",
                file=sys.stderr,
            )
            return 2
        try:
            max_bytes = (
                _parse_size(args.max_bytes)
                if args.max_bytes is not None
                else None
            )
        except ValueError:
            print(f"bad --max-bytes {args.max_bytes!r}", file=sys.stderr)
            return 2
        report = lifecycle.prune(
            root,
            max_bytes=max_bytes,
            max_age_s=(
                args.max_age_days * 86400.0
                if args.max_age_days is not None
                else None
            ),
            dry_run=args.dry_run,
        )
        if args.dry_run:
            for info in report.removed:
                print(
                    f"would evict {info.kind}/{info.key[:16]} "
                    f"({_format_bytes(info.bytes)}, "
                    f"last hit {info.age_s / 3600.0:.1f}h ago)"
                )
            print(
                f"dry run: would prune {len(report.removed)} artifact(s), "
                f"{_format_bytes(report.removed_bytes)}; "
                f"{len(report.kept)} kept, {_format_bytes(report.kept_bytes)}"
            )
            return 0
        print(
            f"pruned {len(report.removed)} artifact(s), "
            f"{_format_bytes(report.removed_bytes)} freed; "
            f"{len(report.kept)} kept, {_format_bytes(report.kept_bytes)}"
        )
        lifecycle.write_manifest(root)
        return 0
    print(f"unknown cache command {args.cache_command!r}", file=sys.stderr)
    return 2  # pragma: no cover - argparse enforces the choices
