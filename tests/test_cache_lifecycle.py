"""Cache lifecycle: manifest sidecars, stats, clear, and eviction policy.

Covers the ops layer of the artifact store (`repro.scenarios.lifecycle`
and the ``repro cache`` CLI): prune ordering (least-recently-hit first),
size-budget exactness, age-based eviction, tolerance of concurrent
writers/vanishing files, the bounded-growth guarantee under repeated
scale sweeps, and emptying a root an older layout wrote.  The artifacts
are small path-graph topologies, slab directories like every artifact.
"""

from __future__ import annotations

import json
import os
import shutil
import threading

import pytest

from repro.cli import main
from repro.graphs.topology import Topology
from repro.scenarios.cache import ArtifactCache, cache_key
from repro.scenarios.lifecycle import (
    cache_stats,
    clear,
    prune,
    scan,
    write_manifest,
)


def _path_topology(size: int) -> Topology:
    """A path graph whose slabs come to about ``size`` bytes (64 n - 48)."""
    n = max(2, size // 64)
    return Topology.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def _fill(root, sizes: dict[str, int]) -> dict[str, str]:
    """Store artifacts with payloads of known approximate sizes; return keys."""
    cache = ArtifactCache(root)
    keys = {}
    for name, size in sizes.items():
        key = cache_key("topology", name)
        cache.get("topology", key, lambda size=size: _path_topology(size))
        keys[name] = key
    return keys


def _slabs(root, key: str):
    return os.path.join(root, "topology", f"{key}.slabs")


def _meta(root, key: str):
    return os.path.join(root, "topology", f"{key}.slabs.meta.json")


def _payload_bytes(slab_dir) -> int:
    return sum(
        os.path.getsize(os.path.join(slab_dir, name))
        for name in os.listdir(slab_dir)
        if name.endswith(".bin")
    )


def _total_artifact_bytes(root) -> int:
    return sum(info.bytes for info in scan(root))


class TestManifestSidecars:
    def test_store_writes_sidecar_with_byte_count(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache_key("topology", "a")
        cache.get("topology", key, lambda: _path_topology(640))
        meta = json.loads(open(_meta(tmp_path, key)).read())
        assert meta["kind"] == "topology"
        assert meta["key"] == key
        assert meta["bytes"] == _payload_bytes(_slabs(tmp_path, key))
        assert meta["last_hit"] >= meta["created"] > 0

    def test_disk_hit_bumps_last_hit(self, tmp_path):
        key = _fill(tmp_path, {"a": 640})["a"]
        before = json.loads(open(_meta(tmp_path, key)).read())
        # Backdate, then hit from a fresh cache (fresh process-equivalent).
        before["last_hit"] = before["created"] - 1000.0
        with open(_meta(tmp_path, key), "w") as handle:
            json.dump(before, handle)
        ArtifactCache(tmp_path).get(
            "topology", key, lambda: pytest.fail("should hit disk")
        )
        after = json.loads(open(_meta(tmp_path, key)).read())
        assert after["last_hit"] > before["last_hit"]

    def test_scan_survives_missing_sidecar(self, tmp_path):
        key = _fill(tmp_path, {"a": 640})["a"]
        os.unlink(_meta(tmp_path, key))
        (info,) = scan(tmp_path)
        assert info.key == key
        assert info.bytes == _payload_bytes(_slabs(tmp_path, key))

    def test_write_manifest_aggregates(self, tmp_path):
        _fill(tmp_path, {"a": 640, "b": 1280})
        manifest = json.loads(open(write_manifest(tmp_path)).read())
        assert manifest["count"] == 2
        assert len(manifest["artifacts"]) == 2
        assert manifest["kinds"]["topology"]["count"] == 2

    def test_stats_empty_root(self, tmp_path):
        stats = cache_stats(tmp_path / "nothing-here")
        assert stats["count"] == 0 and stats["bytes"] == 0


class TestClear:
    def test_clear_removes_everything(self, tmp_path):
        _fill(tmp_path, {"a": 640, "b": 1280})
        report = clear(tmp_path)
        assert len(report.removed) == 2
        assert scan(tmp_path) == []

    def test_clear_sweeps_orphaned_sidecars(self, tmp_path):
        keys = _fill(tmp_path, {"a": 640})
        # A crashed writer / racing touch can leave a sidecar behind its
        # evicted slab directory; clear must return the root to truly empty.
        shutil.rmtree(_slabs(tmp_path, keys["a"]))
        orphan = _meta(tmp_path, keys["a"])
        assert os.path.exists(orphan)
        clear(tmp_path)
        assert not os.path.exists(orphan)

    def test_prune_sweeps_orphaned_sidecars(self, tmp_path):
        keys = _fill(tmp_path, {"a": 640, "b": 640})
        shutil.rmtree(_slabs(tmp_path, keys["a"]))
        orphan = _meta(tmp_path, keys["a"])
        prune(tmp_path, max_bytes=0)
        assert not os.path.exists(orphan)

    def test_clear_empties_a_root_an_older_layout_wrote(self, tmp_path):
        """A v11 root keeps substrates and scheme shells as ``<key>.pkl``
        plus a sidecar, which no scan lists any more: clear still deletes
        them, and every pickle beside the slab directories."""
        _fill(tmp_path, {"a": 640})
        key = cache_key("scheme", "a v11 shell")
        for kind in ("scheme", "substrate", "topology"):
            directory = tmp_path / kind
            directory.mkdir(exist_ok=True)
            (directory / f"{key}.pkl").write_bytes(b"RPZC not read any more")
            (directory / f"{key}.meta.json").write_text(
                json.dumps({"kind": kind, "key": key, "bytes": 22})
            )
        clear(tmp_path)
        left = [
            os.path.join(directory, name)
            for directory, _, names in os.walk(tmp_path)
            for name in names
        ]
        assert left == []
        assert not (tmp_path / "scheme").exists()
        assert not (tmp_path / "substrate").exists()


class TestPruneOrdering:
    def _backdate(self, root, key: str, *, last_hit: float) -> None:
        meta = json.loads(open(_meta(root, key)).read())
        meta["last_hit"] = last_hit
        with open(_meta(root, key), "w") as handle:
            json.dump(meta, handle)

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
            "topology", keys["a"], lambda: pytest.fail("should hit disk")
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
        assert _total_artifact_bytes(tmp_path) == budget
        # One byte less than a single artifact's size removes everything.
        report = prune(tmp_path, max_bytes=sizes[1] - 1)
        assert _total_artifact_bytes(tmp_path) == 0
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
        spool = tmp_path / "topology" / "writer12345.tmp"
        spool.write_bytes(b"half-written artifact")
        report = prune(tmp_path, max_bytes=0)
        assert spool.exists()  # never touched
        assert len(report.removed) == 1

    def test_vanishing_files_are_tolerated(self, tmp_path, monkeypatch):
        # Deterministic race: another process deletes the LRU victim
        # between prune's scan and its removal.  Prune must neither raise
        # nor stop early.
        keys = _fill(tmp_path, {"a": 640, "b": 640})
        victim = _slabs(tmp_path, keys["a"])
        real_rmtree = shutil.rmtree

        def racing_rmtree(path, *args, **kwargs):
            if os.fspath(path) == victim and os.path.exists(victim):
                real_rmtree(victim)  # the other process wins the race
            return real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(
            "repro.scenarios.lifecycle.shutil.rmtree", racing_rmtree
        )
        prune(tmp_path, max_bytes=0)
        assert _total_artifact_bytes(tmp_path) == 0

    def test_concurrent_write_during_prune_survives_intact(self, tmp_path):
        _fill(tmp_path, {"a": 4096})
        barrier = threading.Barrier(2)

        def writer():
            barrier.wait()
            cache = ArtifactCache(tmp_path)
            cache.get(
                "topology", cache_key("topology", "b"), lambda: _path_topology(4096)
            )

        thread = threading.Thread(target=writer)
        thread.start()
        barrier.wait()
        prune(tmp_path, max_bytes=0)
        thread.join()
        # Whatever the interleaving, every surviving artifact is complete
        # and loadable; the in-flight write was never corrupted.
        for info in scan(tmp_path):
            loaded = ArtifactCache(tmp_path).get(
                "topology", info.key, lambda: pytest.fail("should hit disk")
            )
            assert loaded == _path_topology(4096)
        # A later prune can still evict it.
        prune(tmp_path, max_bytes=0)
        assert _total_artifact_bytes(tmp_path) == 0


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
            assert _total_artifact_bytes(tmp_path) <= budget


class TestCacheCli:
    def test_stats_ls_prune_clear_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "cc")
        _fill(root, {"a": 2048, "b": 2048})
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "topology" in out and "manifest refreshed" in out
        assert (tmp_path / "cc" / "manifest.json").exists()

        assert main(["cache", "ls", "--cache-dir", root]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) >= 4

        assert main(
            ["cache", "prune", "--cache-dir", root, "--max-bytes", "2K"]
        ) == 0
        assert "pruned" in capsys.readouterr().out
        assert _total_artifact_bytes(root) <= 2048

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
        # --max-bytes is parsed by its argparse type: a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["cache", "prune", "--cache-dir", str(tmp_path),
                 "--max-bytes", "lots"]
            )
        assert exit_info.value.code == 2

    def test_size_suffix_parsing(self):
        from repro.cli.parser import _parse_size

        assert _parse_size("1024") == 1024
        assert _parse_size("2K") == 2048
        assert _parse_size("1.5M") == int(1.5 * 1024**2)
        assert _parse_size("1g") == 1024**3


class TestSlabDirectories:
    def test_payloads_are_slab_directories_on_disk(self, tmp_path):
        key = _fill(tmp_path, {"a": 50_000})["a"]
        slab_dir = _slabs(tmp_path, key)
        assert sorted(os.listdir(slab_dir)) == sorted(
            [f"{name}.bin" for name in (
                "offsets", "neighbors", "weights", "edges_u", "edges_v", "edges_w"
            )] + ["manifest.json"]
        )
        meta = json.loads(open(_meta(tmp_path, key)).read())
        assert meta["bytes"] == _payload_bytes(slab_dir)
        assert "raw_bytes" not in meta

    def test_an_unattachable_artifact_is_a_miss_and_is_rebuilt(self, tmp_path):
        key = cache_key("topology", "unattachable")
        slab_dir = tmp_path / "topology" / f"{key}.slabs"
        slab_dir.mkdir(parents=True)
        (slab_dir / "manifest.json").write_text("not a manifest")
        built = _path_topology(640)
        cache = ArtifactCache(tmp_path)
        assert cache.get("topology", key, lambda: built) is built
        assert cache.hits == 0 and cache.misses == 1
        # The rebuild replaced it with a good directory, which a fresh
        # process then hits.
        again = ArtifactCache(tmp_path)
        assert again.get("topology", key, lambda: None) == built
        assert again.hits == 1 and again.misses == 0

    def test_stats_report_slab_bytes(self, tmp_path):
        keys = _fill(tmp_path, {"a": 50_000, "b": 640})
        stats = cache_stats(tmp_path)
        assert stats["bytes"] == sum(
            _payload_bytes(_slabs(tmp_path, key)) for key in keys.values()
        )
        assert stats["kinds"]["topology"]["bytes"] == stats["bytes"]
        assert "raw_bytes" not in stats and "compression_ratio" not in stats

    def test_stats_cli_prints_totals(self, tmp_path, capsys):
        _fill(tmp_path, {"a": 50_000})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "compression" not in out


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
        before = _total_artifact_bytes(tmp_path)
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", "1", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would evict" in out and "dry run" in out
        assert _total_artifact_bytes(tmp_path) == before
