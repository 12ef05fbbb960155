"""Tests for the scenario engine: spec/registry, artifact cache, JSON results.

The determinism differential between serial and parallel execution lives in
``tests/test_scenarios_parallel.py``; this module covers the single-process
behavior (registration, alias resolution, near-miss suggestions, shard
decomposition, prerequisite caching, and JSON serialization).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import fig09_scaling
from repro.experiments.config import ExperimentScale
from repro.cli import main
from repro.scenarios import (
    ArtifactCache,
    Scenario,
    ScenarioLoadError,
    UnknownScenarioError,
    all_scenarios,
    registry,
    resolve,
    scenario,
    scenario_ids,
    suggest,
)
from repro.scenarios.cache import activated, cache_key, cached_scheme, scheme_key
from repro.scenarios.engine import plan_scenarios, run_scenarios
from repro.scenarios.results import RESULT_SCHEMA, dump_json, to_jsonable
from repro.staticsim.simulation import StaticSimulation

TINY = ExperimentScale(
    comparison_nodes=72,
    large_nodes=72,
    as_level_nodes=72,
    router_level_nodes=80,
    pair_sample=50,
    messaging_sweep=(20, 28),
    scaling_sweep=(40, 56),
    seed=11,
    label="tiny-test",
)


def _ghost_shard(scale, key, suffix=""):
    return f"{key}:{scale.seed}{suffix}"


def _ghost_merge(scale, parts, suffix=""):
    return " ".join(parts.values())


class TestRegistry:
    def test_every_experiment_is_a_scenario(self):
        for scenario_id in scenario_ids():
            scenario = resolve(scenario_id)
            assert scenario.scenario_id == scenario_id
            assert callable(scenario.run) and callable(scenario.format_report)

    def test_alias_resolution(self):
        assert resolve("fig04").scenario_id == "fig04-gnm-comparison"
        assert resolve("churn").scenario_id == "churn-cost"
        assert resolve("fig09-scaling").scenario_id == "fig09-scaling"

    def test_unknown_id_raises_with_suggestions(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            resolve("fig04-gnm-comparisn")
        assert "fig04-gnm-comparison" in excinfo.value.suggestions
        assert "did you mean" in str(excinfo.value)

    def test_unknown_error_is_a_keyerror(self):
        with pytest.raises(KeyError):
            resolve("no-such-scenario")

    def test_suggest_falls_back_to_substring(self):
        assert "fig06-shortcutting" in suggest("shortcut")

    def test_experiments_keep_the_historical_order(self):
        listing = Path(__file__).parent / "data" / "repro_list.txt"
        catalog = [row.scenario_id for row in registry.CATALOG]
        assert catalog == listing.read_text().split()
        assert sorted(catalog) == sorted(scenario_ids())

    def test_catalog_rows_are_what_the_decorators_register(self):
        scenarios = all_scenarios()
        assert [s.scenario_id for s in scenarios] == scenario_ids()
        assert sorted(
            (s.scenario_id, s.aliases, s.module) for s in scenarios
        ) == sorted(registry.CATALOG)
        names = [
            name
            for row in registry.CATALOG
            for name in (row.scenario_id, *row.aliases)
        ]
        assert len(names) == len(set(names))

    def test_decorator_refuses_what_the_catalog_does_not_list(self):
        with pytest.raises(ValueError, match="not in .*CATALOG"):
            scenario("fig11-unlisted", title="t")(lambda scale=None: None)
        with pytest.raises(ValueError, match="catalog row says"):
            # Listed, but from another module and without its alias.
            scenario("fig07-state-bytes", title="t")(lambda scale=None: None)
        assert resolve("fig07").module == "repro.experiments.fig07_state_bytes"

    @pytest.mark.parametrize(
        "module, cause",
        [
            ("repro.experiments.no_such_module", ModuleNotFoundError),
            ("repro.experiments.config", type(None)),
        ],
        ids=["import-fails", "registers-nothing"],
    )
    def test_lying_catalog_row_fails_typed(
        self, module, cause, monkeypatch, capsys
    ):
        row = registry.CatalogRow("ghost-study", ("ghost",), module)
        monkeypatch.setattr(registry, "CATALOG", (*registry.CATALOG, row))
        for name in ("ghost-study", "ghost"):
            with pytest.raises(ScenarioLoadError) as excinfo:
                resolve(name)
            error = excinfo.value
            assert (error.scenario_id, error.module) == ("ghost-study", module)
            assert isinstance(error.cause, cause)
        # Planning comes first: the good scenario beside it does not run.
        assert main(["run", "fig07", "ghost", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot load experiment 'ghost-study'" in captured.err
        assert module in captured.err

    def test_a_sharded_scenario_runs_its_shards_and_has_no_body(self):
        sharded = [s for s in all_scenarios() if s.shards is not None]
        assert len(sharded) == 12
        for spec in all_scenarios():
            assert (spec.body is None) == (spec.shards is not None)
        for spec in sharded:
            # The registered run is Scenario.run, and it is what the
            # module publishes (run, or run_latency & co.), not a body.
            assert spec.run.__func__ is Scenario.run
            published = [
                name
                for name, value in vars(sys.modules[spec.module]).items()
                if getattr(value, "__self__", None) is spec
            ]
            assert len(published) == 1, spec.scenario_id
            assert published[0].startswith("run"), spec.scenario_id

    def test_sharded_declaration_cannot_take_a_body(self, monkeypatch):
        row = registry.CatalogRow("ghost-study", ("ghost",), __name__)
        monkeypatch.setattr(registry, "CATALOG", (*registry.CATALOG, row))
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        run = scenario(
            "ghost-study",
            title="t",
            aliases=("ghost",),
            shards=("b", "a"),
            shard_runner=_ghost_shard,
            shard_merge=_ghost_merge,
        )
        assert resolve("ghost").run == run
        assert run(TINY) == "b:11 a:11"
        assert run(TINY, suffix="!") == "b:11! a:11!"
        with pytest.raises(TypeError, match="cannot decorate a body"):
            # What `@scenario(..., shards=...)` over a def would do.
            run(lambda scale=None: None)
        with pytest.raises(ValueError, match="no shards"):
            scenario("ghost-study", title="t", shard_runner=_ghost_shard)
        with pytest.raises(ValueError, match="no shard_runner"):
            scenario("ghost-study", title="t", shards=("a",))

    def test_specs_are_complete(self):
        for scenario in all_scenarios():
            assert scenario.title
            assert scenario.family
            assert scenario.metrics
            assert scenario.module.startswith("repro.experiments.")

    def test_quick_tag_marks_a_nonempty_subset(self):
        quick = [s for s in all_scenarios() if "quick" in s.tags]
        assert len(quick) >= 4


class TestShards:
    def test_static_shards(self):
        scenario = resolve("fig02-state-cdf")
        assert scenario.shard_keys(TINY) == (
            "geometric",
            "as_level",
            "router_level",
        )

    def test_scale_dependent_shards(self):
        scenario = resolve("fig09-scaling")
        assert scenario.shard_keys(TINY) == ("40", "56")

    def test_unsharded_scenario_has_no_keys(self):
        assert resolve("fig07-state-bytes").shard_keys(TINY) == ()

    def test_plan_expands_shards(self):
        plan = plan_scenarios(["fig02-state-cdf", "fig07-state-bytes"], TINY)
        assert plan.tasks() == [
            ("fig02-state-cdf", "geometric"),
            ("fig02-state-cdf", "as_level"),
            ("fig02-state-cdf", "router_level"),
            ("fig07-state-bytes", None),
        ]

    def test_repeated_shard_keys_are_refused(self):
        # The engine merges shard results by key: a repeated sweep size
        # would be one task's result standing in for two.
        scale = dataclasses.replace(TINY, messaging_sweep=(20, 20))
        with pytest.raises(ValueError, match="repeated shard keys"):
            resolve("fig08-messaging").shard_keys(scale)
        with pytest.raises(ValueError, match="repeated shard keys"):
            plan_scenarios(["fig08"], scale)

    def test_plan_deduplicates_and_resolves_aliases(self):
        plan = plan_scenarios(["fig07", "fig07-state-bytes", "addr"], TINY)
        assert [e.scenario.scenario_id for e in plan.entries] == [
            "fig07-state-bytes",
            "addr-sizes",
        ]


class TestArtifactCache:
    def test_topology_builds_once(self):
        cache = ArtifactCache()
        calls = []

        def build():
            calls.append(1)
            return object()

        first = cache.topology(("gnm", 64, 11, 8.0), build)
        second = cache.topology(("gnm", 64, 11, 8.0), build)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_inputs_distinct_artifacts(self):
        cache = ArtifactCache()
        a = cache.topology(("gnm", 64, 11, 8.0), object)
        b = cache.topology(("gnm", 64, 12, 8.0), object)
        assert a is not b

    def test_disk_roundtrip(self, tmp_path):
        from repro.graphs.generators import gnm_random_graph

        build = lambda: gnm_random_graph(48, seed=5, average_degree=6.0)
        first_cache = ArtifactCache(tmp_path / "cache")
        built = first_cache.topology(("gnm", 48, 5, 6.0), build)
        # A second cache over the same root loads from disk, not build().
        second_cache = ArtifactCache(tmp_path / "cache")
        loaded = second_cache.topology(
            ("gnm", 48, 5, 6.0), lambda: pytest.fail("should hit disk")
        )
        assert loaded.content_key() == built.content_key()
        assert second_cache.hits == 1

    def test_corrupt_disk_artifact_is_a_miss(self, tmp_path):
        from repro.graphs.generators import gnm_random_graph

        build = lambda: gnm_random_graph(48, seed=5, average_degree=6.0)
        cache = ArtifactCache(tmp_path / "cache")
        key = ("gnm", 48, 5, 6.0)
        built = cache.topology(key, build)
        path = next((tmp_path / "cache" / "topology").glob("*.slabs"))
        (path / "manifest.json").write_bytes(b"not a manifest")
        fresh = ArtifactCache(tmp_path / "cache")
        assert fresh.topology(key, build).content_key() == built.content_key()
        assert (fresh.hits, fresh.misses) == (0, 1)

    def test_cache_key_is_order_sensitive(self):
        assert cache_key("topology", 1, 2) != cache_key("topology", 2, 1)
        assert cache_key("topology", 1) != cache_key("scheme", 1)


class TestSchemeCache:
    def test_scheme_key_covers_topology_content(self):
        from repro.graphs.generators import gnm_random_graph
        from repro.graphs.topology import TopologyBuilder

        topology = gnm_random_graph(48, seed=5, average_degree=6.0)
        before = scheme_key(topology, "nd-disco", seed=3)
        builder = TopologyBuilder.from_topology(topology)
        builder.add_edge(0, 47, 5.0)
        after = scheme_key(builder.freeze(), "nd-disco", seed=3)
        assert before != after

    def test_scheme_key_ignores_build_mechanics(self):
        from repro.graphs.generators import gnm_random_graph

        topology = gnm_random_graph(48, seed=5, average_degree=6.0)
        assert scheme_key(topology, "s4", seed=3) == scheme_key(
            topology, "s4", seed=3, threads=2
        )
        # Disco's and S4's keys carry the nd-disco options as a nested
        # term, and every one of them shapes the key.
        nested = {"vicinity_scale": 2.0}
        plain = scheme_key(
            topology, "disco", seed=3, nddisco_options=tuple(nested.items())
        )
        assert plain != scheme_key(topology, "disco", seed=3, nddisco_options=())

    def test_uncacheable_params_build_directly(self):
        from repro.graphs.generators import gnm_random_graph

        topology = gnm_random_graph(48, seed=5, average_degree=6.0)
        assert scheme_key(topology, "s4", substrate=object()) is None
        with activated(ArtifactCache()):
            built = cached_scheme(
                topology, "s4", lambda: "built", substrate=object()
            )
        assert built == "built"

    def test_staticsim_substrates_dedupe_across_simulations(self):
        from repro.graphs.generators import gnm_random_graph

        topology = gnm_random_graph(72, seed=5, average_degree=6.0)
        with activated(ArtifactCache()) as cache:
            first = StaticSimulation(topology, ("nd-disco", "s4"), seed=3)
            second = StaticSimulation(topology, ("disco", "s4"), seed=3)
        # The second simulation's S4 (and the NDDisco underlying Disco) come
        # from the cache's memo rather than being rebuilt, over the one
        # tables artifact the first simulation stored.
        assert second.scheme("s4") is first.scheme("s4")
        assert second.scheme("disco").nddisco is first.scheme("nd-disco")
        assert (cache.hits, cache.misses) == (0, 1)

    def test_disk_cached_substrate_composes_with_fresh_topology(self, tmp_path):
        # Regression: with a disk cache shared between worker processes, one
        # worker can load another worker's converged NDDisco (a
        # content-equal but *distinct* Topology object inside) and then
        # build Disco/S4 around it.  The schemes must accept content-equal
        # topologies, not demand object identity.
        from repro.graphs.generators import gnm_random_graph

        root = tmp_path / "cache"
        build = lambda: gnm_random_graph(72, seed=5, average_degree=6.0)
        with activated(ArtifactCache(root)):
            StaticSimulation(build(), ("nd-disco",), seed=3)
        with activated(ArtifactCache(root)) as cache:
            # Fresh memory cache + fresh topology object: nd-disco comes
            # from disk, disco and s4 are built around the loaded object.
            simulation = StaticSimulation(build(), ("disco", "s4"), seed=3)
            assert cache.hits >= 1
        baseline = StaticSimulation(build(), ("disco", "s4"), seed=3)
        assert (
            simulation.scheme("disco").state_entries(0)
            == baseline.scheme("disco").state_entries(0)
        )

    def test_staticsim_results_unchanged_by_cache(self):
        from repro.graphs.generators import gnm_random_graph

        topology = gnm_random_graph(72, seed=5, average_degree=6.0)
        baseline = StaticSimulation(
            topology.copy(), ("nd-disco", "s4"), seed=3
        ).run(pair_sample=40)
        with activated(ArtifactCache()):
            cached = StaticSimulation(
                topology.copy(), ("nd-disco", "s4"), seed=3
            ).run(pair_sample=40)
        assert baseline.state.keys() == cached.state.keys()
        for name in baseline.state:
            assert (
                baseline.state[name].entry_summary
                == cached.state[name].entry_summary
            )
            assert (
                baseline.stretch[name].first_summary
                == cached.stretch[name].first_summary
            )


class TestResults:
    def test_to_jsonable_handles_result_dataclasses(self):
        result = fig09_scaling.run(TINY)
        payload = to_jsonable(result)
        assert payload["sweep"] == [40, 56]
        assert "Disco" in payload["mean_state"]
        json.dumps(payload)  # round-trips

    def test_to_jsonable_nonfinite_floats(self):
        assert to_jsonable(float("inf")) == "inf"
        assert to_jsonable(float("nan")) == "nan"

    @pytest.mark.parametrize(
        "value, kind",
        [(object(), "object"), (b"raw", "bytes"), ({"k": [1, 2.0j]}, "complex")],
        ids=["object", "bytes", "nested-complex"],
    )
    def test_to_jsonable_refuses_an_unknown_type(self, value, kind):
        """A value with no JSON form is an error naming its type, not a
        ``repr`` string in the document."""
        with pytest.raises(TypeError, match=f"no JSON form for a {kind}"):
            to_jsonable(value)

    def test_dump_json_is_deterministic(self):
        document = {"b": 1, "a": {"y": 2.5, "x": (1, 2)}}
        assert dump_json(document) == dump_json(
            json.loads(dump_json(document))
        )


class TestEngine:
    def test_serial_run_matches_the_scenario_run(self):
        runs = run_scenarios(
            ["fig07-state-bytes"], scale=TINY, cache=None
        )
        scenario = resolve("fig07-state-bytes")
        report = scenario.format_report(scenario.run(TINY))
        assert runs["fig07-state-bytes"].report == report

    def test_cache_does_not_change_reports(self):
        ids = ["fig02-state-cdf", "fig03-stretch-cdf"]
        cold = run_scenarios(ids, scale=TINY, cache=None)
        warm = run_scenarios(ids, scale=TINY, cache=ArtifactCache())
        for scenario_id in ids:
            assert cold[scenario_id].report == warm[scenario_id].report

    def test_json_documents_written(self, tmp_path):
        json_dir = tmp_path / "results"
        runs = run_scenarios(
            ["addr-sizes"],
            scale=TINY,
            json_dir=json_dir,
            cache=None,
        )
        document = json.loads((json_dir / "addr-sizes.json").read_text())
        assert document["schema"] == RESULT_SCHEMA
        assert document["id"] == "addr-sizes"
        assert document["report"] == runs["addr-sizes"].report
        assert document["scale"]["label"] == "tiny-test"
        manifest = json.loads((json_dir / "manifest.json").read_text())
        assert manifest["scenarios"]["addr-sizes"]["seconds"] >= 0

    def test_unknown_id_propagates(self):
        with pytest.raises(UnknownScenarioError):
            run_scenarios(["definitely-not-a-scenario"], scale=TINY)
