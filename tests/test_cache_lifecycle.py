"""Cache lifecycle: manifest sidecars, stats, clear, and eviction policy.

Covers the ops layer of the v2 artifact store (`repro.scenarios.lifecycle`
and the ``repro cache`` CLI): prune ordering (least-recently-hit first),
size-budget exactness, age-based eviction, tolerance of concurrent
writers/vanishing files, and the bounded-growth guarantee under repeated
scale sweeps.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.cli import main
from repro.scenarios.cache import ArtifactCache, cache_key
from repro.scenarios.lifecycle import (
    cache_stats,
    clear,
    prune,
    scan,
    write_manifest,
)


def _fill(root, sizes: dict[str, int], kind: str = "scheme") -> dict[str, str]:
    """Store artifacts with payloads of known approximate sizes; return keys."""
    cache = ArtifactCache(root)
    keys = {}
    for name, size in sizes.items():
        key = cache_key(kind, name)
        cache.get(kind, key, lambda size=size: "x" * size)
        keys[name] = key
    return keys


def _total_pickle_bytes(root) -> int:
    return sum(info.bytes for info in scan(root))


class TestManifestSidecars:
    def test_store_writes_sidecar_with_byte_count(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache_key("scheme", "a")
        cache.get("scheme", key, lambda: "payload")
        meta_path = tmp_path / "scheme" / f"{key}.meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["kind"] == "scheme"
        assert meta["key"] == key
        pkl = tmp_path / "scheme" / f"{key}.pkl"
        assert meta["bytes"] == pkl.stat().st_size
        assert meta["last_hit"] >= meta["created"] > 0

    def test_disk_hit_bumps_last_hit(self, tmp_path):
        key = _fill(tmp_path, {"a": 10})["a"]
        meta_path = tmp_path / "scheme" / f"{key}.meta.json"
        before = json.loads(meta_path.read_text())
        # Backdate, then hit from a fresh cache (fresh process-equivalent).
        before["last_hit"] = before["created"] - 1000.0
        meta_path.write_text(json.dumps(before))
        ArtifactCache(tmp_path).get(
            "scheme", key, lambda: pytest.fail("should hit disk")
        )
        after = json.loads(meta_path.read_text())
        assert after["last_hit"] > before["last_hit"]

    def test_scan_survives_missing_sidecar(self, tmp_path):
        key = _fill(tmp_path, {"a": 10})["a"]
        os.unlink(tmp_path / "scheme" / f"{key}.meta.json")
        (info,) = scan(tmp_path)
        assert info.key == key
        assert info.bytes == (tmp_path / "scheme" / f"{key}.pkl").stat().st_size

    def test_write_manifest_aggregates(self, tmp_path):
        _fill(tmp_path, {"a": 10, "b": 20})
        manifest = json.loads(open(write_manifest(tmp_path)).read())
        assert manifest["count"] == 2
        assert len(manifest["artifacts"]) == 2
        assert manifest["kinds"]["scheme"]["count"] == 2

    def test_stats_empty_root(self, tmp_path):
        stats = cache_stats(tmp_path / "nothing-here")
        assert stats["count"] == 0 and stats["bytes"] == 0


class TestClear:
    def test_clear_removes_everything(self, tmp_path):
        _fill(tmp_path, {"a": 100, "b": 200})
        report = clear(tmp_path)
        assert len(report.removed) == 2
        assert scan(tmp_path) == []

    def test_clear_sweeps_orphaned_sidecars(self, tmp_path):
        keys = _fill(tmp_path, {"a": 100})
        # A crashed writer / racing touch can leave a sidecar behind its
        # evicted pickle; clear must return the root to truly empty.
        os.unlink(tmp_path / "scheme" / f"{keys['a']}.pkl")
        orphan = tmp_path / "scheme" / f"{keys['a']}.meta.json"
        assert orphan.exists()
        clear(tmp_path)
        assert not orphan.exists()

    def test_prune_sweeps_orphaned_sidecars(self, tmp_path):
        keys = _fill(tmp_path, {"a": 100, "b": 100})
        os.unlink(tmp_path / "scheme" / f"{keys['a']}.pkl")
        orphan = tmp_path / "scheme" / f"{keys['a']}.meta.json"
        prune(tmp_path, max_bytes=0)
        assert not orphan.exists()


class TestPruneOrdering:
    def _backdate(self, root, key: str, *, last_hit: float) -> None:
        meta_path = root / "scheme" / f"{key}.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["last_hit"] = last_hit
        meta_path.write_text(json.dumps(meta))

    def test_least_recently_hit_evicted_first(self, tmp_path):
        keys = _fill(tmp_path, {"old": 100, "new": 100})
        self._backdate(tmp_path, keys["old"], last_hit=1000.0)
        self._backdate(tmp_path, keys["new"], last_hit=2000.0)
        per = next(
            info.bytes for info in scan(tmp_path) if info.key == keys["new"]
        )
        report = prune(tmp_path, max_bytes=per)
        assert [info.key for info in report.removed] == [keys["old"]]
        assert [info.key for info in scan(tmp_path)] == [keys["new"]]

    def test_recent_hit_rescues_an_artifact(self, tmp_path):
        keys = _fill(tmp_path, {"a": 100, "b": 100})
        self._backdate(tmp_path, keys["a"], last_hit=1000.0)
        self._backdate(tmp_path, keys["b"], last_hit=2000.0)
        # A disk hit on "a" from a fresh cache makes it the survivor.
        ArtifactCache(tmp_path).get(
            "scheme", keys["a"], lambda: pytest.fail("should hit disk")
        )
        per = next(iter(scan(tmp_path))).bytes
        report = prune(tmp_path, max_bytes=per)
        assert [info.key for info in report.removed] == [keys["b"]]

    def test_size_threshold_is_exact(self, tmp_path):
        keys = _fill(tmp_path, {"a": 100, "b": 100, "c": 100})
        infos = {info.key: info for info in scan(tmp_path)}
        for rank, name in enumerate(("a", "b", "c")):
            self._backdate(tmp_path, keys[name], last_hit=1000.0 + rank)
        sizes = [infos[keys[n]].bytes for n in ("a", "b", "c")]
        # Budget for exactly the two most recently hit artifacts: prune
        # must remove only "a" (the eviction stops the moment the total
        # fits) and must not evict below the budget.
        budget = sizes[1] + sizes[2]
        report = prune(tmp_path, max_bytes=budget)
        assert [info.key for info in report.removed] == [keys["a"]]
        assert _total_pickle_bytes(tmp_path) == budget
        # One byte less than a single artifact's size removes everything.
        report = prune(tmp_path, max_bytes=sizes[1] - 1)
        assert _total_pickle_bytes(tmp_path) == 0
        assert len(report.kept) == 0

    def test_age_based_prune(self, tmp_path):
        keys = _fill(tmp_path, {"stale": 100, "fresh": 100})
        self._backdate(tmp_path, keys["stale"], last_hit=1000.0)
        report = prune(tmp_path, max_age_s=86400.0, now=1000.0 + 2 * 86400.0)
        assert [info.key for info in report.removed] == [keys["stale"]]

    def test_prune_without_limits_is_a_noop(self, tmp_path):
        _fill(tmp_path, {"a": 100})
        report = prune(tmp_path)
        assert report.removed == () and len(report.kept) == 1


class TestPruneConcurrency:
    def test_inflight_tmp_files_are_ignored(self, tmp_path):
        _fill(tmp_path, {"a": 100})
        spool = tmp_path / "scheme" / "writer12345.tmp"
        spool.write_bytes(b"half-written artifact")
        report = prune(tmp_path, max_bytes=0)
        assert spool.exists()  # never touched
        assert len(report.removed) == 1

    def test_vanishing_files_are_tolerated(self, tmp_path, monkeypatch):
        # Deterministic race: another process deletes the LRU victim
        # between prune's scan and its unlink.  Prune must neither raise
        # nor stop early.
        keys = _fill(tmp_path, {"a": 100, "b": 100})
        victim = str(tmp_path / "scheme" / f"{keys['a']}.pkl")
        real_unlink = os.unlink

        def racing_unlink(path, *args, **kwargs):
            if os.fspath(path) == victim and os.path.exists(victim):
                real_unlink(victim)  # the other process wins the race
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(
            "repro.scenarios.lifecycle.os.unlink", racing_unlink
        )
        prune(tmp_path, max_bytes=0)
        assert _total_pickle_bytes(tmp_path) == 0

    def test_concurrent_write_during_prune_survives_intact(self, tmp_path):
        keys = _fill(tmp_path, {"a": 4096})
        barrier = threading.Barrier(2)

        def writer():
            barrier.wait()
            cache = ArtifactCache(tmp_path)
            cache.get("scheme", cache_key("scheme", "b"), lambda: "y" * 4096)

        thread = threading.Thread(target=writer)
        thread.start()
        barrier.wait()
        prune(tmp_path, max_bytes=0)
        thread.join()
        # Whatever the interleaving, every surviving artifact is complete
        # and loadable; the in-flight write was never corrupted.
        for info in scan(tmp_path):
            loaded = ArtifactCache(tmp_path).get(
                "scheme", info.key, lambda: pytest.fail("should hit disk")
            )
            assert loaded == "y" * 4096
        # A later prune can still evict it.
        prune(tmp_path, max_bytes=0)
        assert _total_pickle_bytes(tmp_path) == 0


class TestBoundedGrowth:
    def test_repeated_sweeps_stay_under_budget(self, tmp_path):
        """`repro cache prune --max-bytes` bounds the root across sweeps."""
        from repro.experiments.config import ExperimentScale
        from repro.scenarios.engine import run_scenarios

        budget = 256 * 1024
        for n in (48, 64, 80):
            scale = ExperimentScale(
                comparison_nodes=n,
                large_nodes=n,
                as_level_nodes=n,
                router_level_nodes=n + 8,
                pair_sample=30,
                messaging_sweep=(16, 20),
                scaling_sweep=(32, 40),
                seed=7,
                label=f"sweep-{n}",
            )
            run_scenarios(
                ["addr-sizes", "fig07-state-bytes"],
                scale=scale,
                cache=tmp_path,
            )
            prune(tmp_path, max_bytes=budget)
            assert _total_pickle_bytes(tmp_path) <= budget


class TestCacheCli:
    def test_stats_ls_prune_clear_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "cc")
        _fill(root, {"a": 2048, "b": 2048})
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "scheme" in out and "manifest refreshed" in out
        assert (tmp_path / "cc" / "manifest.json").exists()

        assert main(["cache", "ls", "--cache-dir", root]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) >= 4

        assert main(
            ["cache", "prune", "--cache-dir", root, "--max-bytes", "2K"]
        ) == 0
        assert "pruned" in capsys.readouterr().out
        assert _total_pickle_bytes(root) <= 2048

        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "removed" in capsys.readouterr().out
        assert scan(root) == []
        # clear must not leave a stale manifest behind.
        manifest = json.loads((tmp_path / "cc" / "manifest.json").read_text())
        assert manifest["count"] == 0 and manifest["artifacts"] == []

    def test_stats_refreshes_manifest_on_empty_root(self, tmp_path, capsys):
        root = tmp_path / "cc"
        _fill(root, {"a": 100})
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        clear(root)
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        capsys.readouterr()
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["count"] == 0

    def test_prune_requires_a_limit(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "max-bytes" in capsys.readouterr().err

    def test_prune_rejects_bad_size(self, tmp_path, capsys):
        code = main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", "lots"]
        )
        assert code == 2

    def test_size_suffix_parsing(self):
        from repro.cli.cmd_cache import _parse_size

        assert _parse_size("1024") == 1024
        assert _parse_size("2K") == 2048
        assert _parse_size("1.5M") == int(1.5 * 1024**2)
        assert _parse_size("1g") == 1024**3


class TestCompressedFraming:
    def test_payloads_are_compressed_on_disk(self, tmp_path):
        from repro.scenarios.cache import COMPRESS_MAGIC

        cache = ArtifactCache(tmp_path)
        key = cache_key("scheme", "compress-me")
        cache.get("scheme", key, lambda: "x" * 50_000)
        payload = (tmp_path / "scheme" / f"{key}.pkl").read_bytes()
        assert payload.startswith(COMPRESS_MAGIC)
        # Highly repetitive payload: compression must bite hard.
        assert len(payload) < 5_000
        meta = json.loads(
            (tmp_path / "scheme" / f"{key}.meta.json").read_text()
        )
        assert meta["bytes"] == len(payload)
        assert meta["raw_bytes"] > meta["bytes"]

    def test_unframed_artifact_is_a_miss_and_is_rebuilt(self, tmp_path):
        import pickle

        from repro.scenarios.cache import COMPRESS_MAGIC, _read_payload

        key = cache_key("scheme", "unframed")
        directory = tmp_path / "scheme"
        directory.mkdir(parents=True)
        path = directory / f"{key}.pkl"
        path.write_bytes(pickle.dumps("unframed-payload", protocol=4))
        with pytest.raises(ValueError):
            _read_payload(str(path))
        cache = ArtifactCache(tmp_path)
        assert cache.get("scheme", key, lambda: "rebuilt") == "rebuilt"
        assert cache.hits == 0 and cache.misses == 1
        # The rebuild overwrote it with a framed payload, which a fresh
        # process then hits.
        assert path.read_bytes().startswith(COMPRESS_MAGIC)
        again = ArtifactCache(tmp_path)
        assert again.get("scheme", key, lambda: "rebuilt twice") == "rebuilt"
        assert again.hits == 1 and again.misses == 0

    def test_stats_report_compression_ratio(self, tmp_path):
        _fill(tmp_path, {"a": 50_000})
        stats = cache_stats(tmp_path)
        assert stats["raw_bytes"] > stats["bytes"]
        assert 0 < stats["compression_ratio"] < 1

    def test_stats_cli_prints_ratio(self, tmp_path, capsys):
        _fill(tmp_path, {"a": 50_000})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "compression:" in capsys.readouterr().out


class TestPruneDryRun:
    def test_dry_run_removes_nothing(self, tmp_path):
        _fill(tmp_path, {"a": 4096, "b": 4096})
        before = {info.key for info in scan(tmp_path)}
        report = prune(tmp_path, max_bytes=1, dry_run=True)
        assert {info.key for info in report.removed} == before
        assert {info.key for info in scan(tmp_path)} == before

    def test_dry_run_report_matches_real_prune(self, tmp_path):
        _fill(tmp_path, {"a": 4096, "b": 4096, "c": 4096})
        dry = prune(tmp_path, max_bytes=5000, dry_run=True)
        real = prune(tmp_path, max_bytes=5000)
        assert {info.key for info in dry.removed} == {
            info.key for info in real.removed
        }
        assert {info.key for info in dry.kept} == {
            info.key for info in real.kept
        }

    def test_cli_dry_run_prints_and_preserves(self, tmp_path, capsys):
        _fill(tmp_path, {"a": 4096})
        before = _total_pickle_bytes(tmp_path)
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", "1", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would evict" in out and "dry run" in out
        assert _total_pickle_bytes(tmp_path) == before
