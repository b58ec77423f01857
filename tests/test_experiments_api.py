"""Tests for the declarative experiment registry, artifact store and CLI."""

import json

import pytest

from repro.experiments.api import (
    DuplicateExperimentError,
    ExperimentLookupError,
    ExperimentRegistry,
    ParamSpec,
    ParameterValueError,
    UnknownParameterError,
    UnknownProfileError,
    default_experiment_registry,
    param,
)
from repro.experiments.reporting import ExperimentResult, RunManifest
from repro.experiments.runner import (
    main as runner_main,
    run_experiment,
    run_suite,
)
from repro.experiments.store import ArtifactStore, cache_key


def _dummy(num_chips: int = 8, seed: int = 0, labels=("a", "b")):
    return ExperimentResult(
        name="dummy", title="Dummy",
        rows=[{"num_chips": num_chips, "seed": seed,
               "labels": ",".join(labels)}],
        headline={"num_chips": num_chips})


def _boom():
    raise RuntimeError("boom")


def _dummy_registry() -> ExperimentRegistry:
    registry = ExperimentRegistry()
    registry.register(
        "dummy", _dummy, artifact="Dummy artifact", tags=("test", "cheap"),
        params=(param("num_chips", 8, fast=3, smoke=1),
                param("seed", 0),
                param("labels", ("a", "b"))))
    return registry


class TestRegistry:
    def test_lookup_is_case_insensitive(self):
        registry = _dummy_registry()
        assert registry.entry("DUMMY").name == "dummy"
        assert registry.canonical_name("Dummy") == "dummy"
        assert "dummy" in registry

    def test_unknown_name_raises_lookup_error(self):
        with pytest.raises(ExperimentLookupError):
            _dummy_registry().entry("nope")

    def test_duplicate_registration_rejected(self):
        registry = _dummy_registry()
        with pytest.raises(DuplicateExperimentError):
            registry.register("dummy", _dummy)
        registry.register("dummy", _dummy, overwrite=True)  # allowed

    def test_decorator_registers_and_returns_fn(self):
        registry = ExperimentRegistry()

        @registry.register_experiment("exp", tags=("t",),
                                      params=(param("seed", 0),))
        def harness(seed=0):
            """One-line doc."""
            return ExperimentResult(name="exp", title="E")

        assert harness(seed=1).name == "exp"
        assert registry.entry("exp").doc == "One-line doc."
        assert registry.names(tag="t") == ("exp",)

    def test_declared_param_must_exist_in_signature(self):
        registry = ExperimentRegistry()
        with pytest.raises(ValueError, match="does not accept"):
            registry.register("bad", _dummy,
                              params=(param("not_a_kwarg", 1),))

    def test_resolve_targets_name_tag_all(self):
        registry = _dummy_registry()
        assert registry.resolve_targets("dummy") == ("dummy",)
        assert registry.resolve_targets("cheap") == ("dummy",)
        assert registry.resolve_targets("all") == ("dummy",)
        with pytest.raises(ExperimentLookupError):
            registry.resolve_targets("no-such-target")

    def test_default_registry_has_all_builtin_experiments(self):
        registry = default_experiment_registry()
        assert set(registry.names(tag="paper")) >= {"table1", "fig05",
                                                    "fig14", "fig15"}
        assert set(registry.names(tag="ablation")) == {
            "ablation_rpt", "ablation_scheduling", "ablation_extensions"}


class TestParamSpec:
    def test_profiles_resolve_with_fallback_to_default(self):
        spec = ParamSpec(param("num_chips", 8, fast=3, smoke=1),
                         param("seed", 0))
        assert spec.resolve("full") == {"num_chips": 8, "seed": 0}
        assert spec.resolve("fast") == {"num_chips": 3, "seed": 0}
        assert spec.resolve("smoke") == {"num_chips": 1, "seed": 0}

    def test_unknown_profile_rejected(self):
        from repro.experiments.api import Param

        with pytest.raises(UnknownProfileError):
            ParamSpec(param("seed", 0)).resolve("warp")
        with pytest.raises(UnknownProfileError):
            Param("seed", 0, profiles={"warp": 1})

    def test_override_validation_lists_valid_parameters(self):
        spec = ParamSpec(param("num_chips", 8), param("seed", 0))
        with pytest.raises(UnknownParameterError) as excinfo:
            spec.resolve("full", {"num_chip": 4}, experiment="fig05")
        message = str(excinfo.value)
        assert "num_chip" in message and "fig05" in message
        assert "num_chips" in message and "seed" in message

    def test_overrides_win_over_profile(self):
        spec = ParamSpec(param("num_chips", 8, fast=3))
        assert spec.resolve("fast", {"num_chips": 5}) == {"num_chips": 5}

    def test_cli_coercion_by_declared_type(self):
        spec = ParamSpec(param("num_chips", 8), param("ratio", 0.5),
                         param("label", "x"), param("flag", True),
                         param("conditions", ((0, 0.0),)),
                         param("names", ("a",)))
        resolved = spec.resolve("full", {
            "num_chips": "12", "ratio": "0.25", "label": "y", "flag": "no",
            "conditions": "[[1000, 6.0], [2000, 12.0]]",
            "names": "usr_1,stg_0"}, coerce=True)
        assert resolved == {"num_chips": 12, "ratio": 0.25, "label": "y",
                            "flag": False,
                            "conditions": ((1000, 6.0), (2000, 12.0)),
                            "names": ("usr_1", "stg_0")}

    def test_bad_cli_value_raises_parameter_value_error(self):
        spec = ParamSpec(param("num_chips", 8))
        with pytest.raises(ParameterValueError, match="num_chips"):
            spec.resolve("full", {"num_chips": "zzz"}, coerce=True)

    def test_single_string_coerces_to_one_element_sequence(self):
        # A string-sequence param set to one bare name must not be iterated
        # character by character by the harness.
        spec = ParamSpec(param("workloads", None, fast=("usr_1", "stg_0")))
        assert (spec.resolve("full", {"workloads": "usr_1"}, coerce=True)
                == {"workloads": ("usr_1",)})

    def test_numeric_sequence_requires_json(self):
        spec = ParamSpec(param("conditions", ((0, 0.0),)))
        with pytest.raises(ParameterValueError, match="JSON"):
            spec.resolve("full", {"conditions": "1000,6.0"}, coerce=True)

    def test_cache_irrelevant_params_share_an_address(self):
        spec = ParamSpec(param("num_requests", 600),
                         param("processes", 1, cache_relevant=False))
        assert (spec.cache_params({"num_requests": 600, "processes": 4})
                == {"num_requests": 600})


class TestResultSerialization:
    def _result(self):
        return ExperimentResult(
            name="x", title="X",
            rows=[{"a": 1, "b": 0.25, "c": "text"},
                  {"a": 2, "b": 0.5, "c": "more"}],
            headline={"key": (1, 2.0)}, notes=["note"],
            manifest=RunManifest(experiment="x", params={"seed": 0},
                                 profile="fast", seed=0,
                                 repro_version="1.0.0", cache_key="abc"))

    def test_json_round_trip_is_lossless_and_stable(self):
        result = self._result()
        clone = ExperimentResult.from_json(result.to_json())
        assert clone.rows == result.rows
        assert clone.notes == result.notes
        assert clone.manifest.params == {"seed": 0}
        assert clone.manifest.profile == "fast"
        # Canonical serialization: a second round trip is byte-identical.
        assert clone.to_json() == result.to_json()

    def test_to_dict_canonicalizes_tuples(self):
        assert self._result().to_dict()["headline"]["key"] == [1, 2.0]

    def test_to_csv_round_trips_rows(self):
        import csv
        import io

        result = self._result()
        parsed = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(parsed) == 2
        assert parsed[0] == {"a": "1", "b": "0.25", "c": "text"}

    def test_incompatible_schema_version_rejected(self):
        data = self._result().to_dict()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            ExperimentResult.from_dict(data)

    def test_filter_rows_approx_matches_within_tolerance(self):
        result = ExperimentResult(name="x", title="X", rows=[
            {"reduction": 0.1 + 0.2, "v": 1}, {"reduction": 0.5, "v": 2}])
        assert result.filter_rows(approx={"reduction": 0.3})[0]["v"] == 1
        assert result.filter_rows(approx={"reduction": 0.31}) == []
        assert result.filter_rows(
            approx={"reduction": 0.31}, tolerance=0.02)[0]["v"] == 1
        assert result.first_row(v=2)["reduction"] == 0.5
        assert result.first_row(v=3) is None


class TestArtifactStore:
    def test_key_depends_on_params_and_experiment(self):
        key = cache_key("fig05", {"num_chips": 4})
        assert key == cache_key("fig05", {"num_chips": 4})
        assert key != cache_key("fig05", {"num_chips": 5})
        assert key != cache_key("fig07", {"num_chips": 4})
        # Tuples and lists address the same artifact (JSON canonical form).
        assert (cache_key("f", {"grid": ((0, 0.0),)})
                == cache_key("f", {"grid": [[0, 0.0]]}))

    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        assert store.load("dummy", {"seed": 0}) is None
        result = ExperimentResult(
            name="dummy", title="D", rows=[{"a": 1}],
            manifest=RunManifest(experiment="dummy", params={"seed": 0},
                                 cache_key=store.key("dummy", {"seed": 0})))
        path = store.save(result)
        assert path.is_file()
        loaded = store.load("dummy", {"seed": 0})
        assert loaded.rows == [{"a": 1}]
        assert store.stats() == {"hits": 1, "misses": 1, "stored": 1}
        assert store.clear() == 1
        assert store.entries() == []

    def test_result_without_manifest_not_cacheable(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            ArtifactStore(root=tmp_path).save(
                ExperimentResult(name="x", title="X"))

    def test_corrupt_artifact_counts_as_miss(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        path = store.root / "dummy" / f"{store.key('dummy', {})}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.load("dummy", {}) is None


class TestRunExperiment:
    def test_unknown_override_gets_helpful_error(self):
        with pytest.raises(UnknownParameterError) as excinfo:
            run_experiment("fig11", num_chips=2)
        assert "seed" in str(excinfo.value)

    def test_unknown_experiment_raises_value_error(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_cache_hit_equals_fresh_run(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        fresh = run_experiment("table1", store=store)
        assert store.stats()["stored"] == 1
        cached = run_experiment("table1", store=store)
        assert store.hits == 1
        assert cached.to_json() == fresh.to_json()
        assert cached.to_csv() == fresh.to_csv()
        assert cached.manifest.experiment == "table1"

    def test_execution_only_override_is_served_from_cache(self, tmp_path):
        # fig11's seed is declared cache-irrelevant: a run differing only in
        # it must hit the artifact stored by the first run.
        store = ArtifactStore(root=tmp_path)
        run_experiment("fig11", profile="fast", store=store)
        run_experiment("fig11", profile="fast", store=store, seed=7)
        assert store.hits == 1
        assert store.stats()["stored"] == 1

    def test_manifest_records_resolved_params_and_profile(self, tmp_path):
        result = run_experiment("fig09", profile="smoke",
                                store=ArtifactStore(root=tmp_path))
        assert result.manifest.profile == "smoke"
        assert result.manifest.params["num_chips"] == 2
        assert result.manifest.seed == 0
        assert result.manifest.cache_key


class TestRunSuite:
    CHEAP = ("table1", "fig04b", "fig11")

    def test_parallel_suite_matches_serial_bitwise(self):
        serial = run_suite(self.CHEAP, profile="smoke", jobs=1)
        parallel = run_suite(self.CHEAP, profile="smoke", jobs=2)
        assert [run.name for run in serial] == list(self.CHEAP)
        for left, right in zip(serial, parallel):
            assert not left.cached and not right.cached
            assert left.result.to_json() == right.result.to_json()

    def test_suite_resumes_from_cache(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        first = run_suite(("table1", "fig04b"), profile="smoke", store=store)
        second = run_suite(("table1", "fig04b"), profile="smoke", store=store)
        assert [run.cached for run in first] == [False, False]
        assert [run.cached for run in second] == [True, True]
        for fresh, cached in zip(first, second):
            assert cached.result.to_json() == fresh.result.to_json()

    def test_override_applies_only_where_declared(self):
        runs = run_suite(("table1", "fig09"), profile="smoke",
                         overrides={"num_chips": 3})
        fig09 = next(run for run in runs if run.name == "fig09")
        assert fig09.result.manifest.params["num_chips"] == 3

    def test_override_unknown_everywhere_rejected(self):
        with pytest.raises(UnknownParameterError):
            run_suite(("table1", "fig04b"), profile="smoke",
                      overrides={"bogus": 1})

    def test_tag_target_expands(self):
        runs = run_suite("table", profile="smoke")
        assert [run.name for run in runs] == ["table1", "table2"]

    def test_crashed_suite_keeps_finished_artifacts(self, tmp_path):
        from repro.experiments.api import DEFAULT_EXPERIMENT_REGISTRY

        DEFAULT_EXPERIMENT_REGISTRY.register("boom", _boom)
        try:
            store = ArtifactStore(root=tmp_path)
            with pytest.raises(RuntimeError, match="boom"):
                run_suite(("table1", "boom"), profile="smoke", store=store)
            # table1 finished before the crash and must already be stored,
            # so the re-run resumes instead of recomputing.
            assert store.stats()["stored"] == 1
            resumed = run_experiment("table1", profile="smoke", store=store)
            assert store.hits == 1 and resumed.rows
        finally:
            DEFAULT_EXPERIMENT_REGISTRY.unregister("boom")


class TestCli:
    def test_list_json_covers_registry(self, capsys):
        assert runner_main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload]
        assert "fig14" in names and "ablation_rpt" in names

    def test_run_with_cache_then_show(self, capsys, tmp_path):
        cache = str(tmp_path)
        assert runner_main(["run", "table1", "--profile", "smoke",
                            "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "Table 1" in first and "ran in" in first
        assert runner_main(["run", "table1", "--profile", "smoke",
                            "--cache-dir", cache]) == 0
        assert "(cached)" in capsys.readouterr().out
        assert runner_main(["show", "table1", "--profile", "smoke",
                            "--cache-dir", cache]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_show_without_artifact_fails(self, capsys, tmp_path):
        assert runner_main(["show", "table1", "--cache-dir",
                            str(tmp_path)]) == 1
        assert "no cached artifact" in capsys.readouterr().err

    def test_export_writes_json_and_csv(self, tmp_path):
        out = tmp_path / "exports"
        assert runner_main(["export", "table1", "--profile", "smoke",
                            "--no-cache", "--dir", str(out),
                            "--format", "csv"]) == 0
        text = (out / "table1.csv").read_text()
        assert text.splitlines()[0] == "parameter,time_us"
        assert runner_main(["export", "table1", "--profile", "smoke",
                            "--no-cache", "--dir", str(out)]) == 0
        data = json.loads((out / "table1.json").read_text())
        assert data["manifest"]["experiment"] == "table1"

    def test_run_set_override_and_bad_value(self, capsys):
        assert runner_main(["run", "fig04b", "--no-cache",
                            "--set", "last_steps=2"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            runner_main(["run", "fig04b", "--no-cache",
                         "--set", "last_steps=bad"])

    def test_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            runner_main(["run", "figure-zero"])

    def test_bare_experiment_name_is_a_usage_error(self, capsys):
        # Every invocation names a subcommand: `table1` alone is rejected.
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["table1", "--no-cache"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_malformed_set_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["run", "table1", "--no-cache", "--set", "oops"])
        assert excinfo.value.code == 2


class TestModuleEntryPoint:
    def test_python_m_repro_routes_to_experiment_cli(self, capsys):
        from repro.__main__ import main as module_main

        assert module_main(["list"]) == 0
        assert "fig14" in capsys.readouterr().out
