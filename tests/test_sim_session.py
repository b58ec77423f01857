"""End-to-end tests for the fluent Simulation builder and its value objects."""

import json

import pytest

from repro.core.policies import get_policy
from repro.sim import Condition, Simulation, WorkloadSpec
from repro.ssd.controller import SsdSimulator
from repro.workloads.catalog import catalog_workload
from repro.workloads.synthetic import WorkloadShape


class TestValueObjects:
    def test_workload_spec_canonicalizes_name(self):
        spec = WorkloadSpec(name="ycsb-a", num_requests=50)
        assert spec.name == "YCSB-A"
        assert spec.label == "YCSB-A"

    def test_workload_spec_unknown_name(self):
        with pytest.raises(KeyError):
            WorkloadSpec(name="not-a-workload")

    def test_workload_spec_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            WorkloadSpec()
        with pytest.raises(ValueError):
            WorkloadSpec(name="usr_1", shape=WorkloadShape())

    def test_workload_spec_round_trips_through_json(self):
        spec = WorkloadSpec(name="usr_1", num_requests=120, seed=3,
                            mean_interarrival_us=500.0)
        assert WorkloadSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_synthetic_spec_round_trips(self):
        spec = WorkloadSpec(shape=WorkloadShape(read_ratio=0.5,
                                                zipf_theta=0.9),
                            num_requests=40, seed=9)
        rebuilt = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        # Synthetic labels embed a digest of the spec so that distinct
        # shapes never collide in sweep cells; equal specs agree on it.
        assert rebuilt.label.startswith("synthetic-")
        assert rebuilt.label == spec.label

    def test_spec_builds_same_stream_as_catalog(self, tiny_ssd_config):
        spec = WorkloadSpec(name="usr_1", num_requests=30, seed=5,
                            mean_interarrival_us=700.0)
        built = spec.build_requests(tiny_ssd_config)
        expected = catalog_workload(
            "usr_1", spec.footprint_pages(tiny_ssd_config), seed=5,
            mean_interarrival_us=700.0).iter_requests(30)
        assert [(r.arrival_us, r.kind, r.start_lpn, r.page_count)
                for r in built] == \
               [(r.arrival_us, r.kind, r.start_lpn, r.page_count)
                for r in expected]

    def test_condition_coercion(self):
        assert Condition.coerce((1000, 6)) == Condition(1000, 6.0)
        assert Condition.coerce({"pe_cycles": 2000,
                                 "retention_months": 12.0}) == \
            Condition(2000, 12.0)
        assert Condition(1000, 6.0).label == "1K PEC / 6 mo"

    def test_condition_validation(self):
        with pytest.raises(ValueError):
            Condition(pe_cycles=-1)


class TestSimulationBuilder:
    @pytest.fixture(scope="class")
    def run(self, tiny_ssd_config):
        return (Simulation(tiny_ssd_config)
                .policies("Baseline", "PnAR2", "NoRR")
                .workload("usr_1", n=60, seed=1)
                .condition(pec=1000, months=6.0)
                .run())

    def test_runs_every_policy(self, run):
        assert run.policies == ["Baseline", "PnAR2", "NoRR"]
        assert run["Baseline"].metrics.host_reads > 0

    def test_policy_ordering_expected(self, run):
        normalized = run.normalized()
        assert normalized["Baseline"] == pytest.approx(1.0)
        assert normalized["NoRR"] < normalized["PnAR2"] < 1.0

    def test_manifest_is_json_able_and_complete(self, run, tiny_ssd_config):
        manifest = json.loads(json.dumps(run.manifest))
        assert manifest["policies"] == ["Baseline", "PnAR2", "NoRR"]
        assert manifest["workload"]["name"] == "usr_1"
        assert manifest["condition"] == {"pe_cycles": 1000,
                                         "retention_months": 6.0}
        from repro.ssd.config import SsdConfig
        assert SsdConfig.from_dict(manifest["config"]) == tiny_ssd_config

    def test_summary_rows(self, run):
        rows = run.summary_rows()
        assert {row["policy"] for row in rows} == {"Baseline", "PnAR2", "NoRR"}
        assert all(row["workload"] == "usr_1" for row in rows)

    def test_single_policy_result_accessor(self, tiny_ssd_config):
        run = (Simulation(tiny_ssd_config)
               .policy("NoRR")
               .workload("usr_1", n=30)
               .run())
        assert run.result.policy_name == "NoRR"

    def test_case_insensitive_names(self, tiny_ssd_config):
        run = (Simulation(tiny_ssd_config)
               .policy("norr")
               .workload("YCSB-C", n=30)
               .run())
        assert run.result.policy_name == "NoRR"

    def test_repeated_policy_rejected(self, tiny_ssd_config):
        with pytest.raises(ValueError, match="given more than once"):
            (Simulation(tiny_ssd_config).policies("PnAR2", "pnar2")
             .workload("usr_1", n=30).run())
        # A policy instance counts by its name.
        with pytest.raises(ValueError, match="given more than once"):
            (Simulation(tiny_ssd_config).policy("PnAR2").policy(get_policy("PnAR2"))
             .workload("usr_1", n=30).run())

    def test_run_without_policy_or_workload_raises(self, tiny_ssd_config):
        with pytest.raises(ValueError):
            Simulation(tiny_ssd_config).workload("usr_1", n=30).run()
        with pytest.raises(ValueError):
            Simulation(tiny_ssd_config).policy("NoRR").run()

    def test_explicit_requests_are_not_mutated(self, tiny_ssd_config):
        requests = list(catalog_workload("usr_1", 2000,
                                         seed=2).iter_requests(30))
        run = (Simulation(tiny_ssd_config)
               .policies("Baseline", "NoRR")
               .requests(requests)
               .run())
        # The caller's stream stays pristine: both policies saw copies.
        assert all(request.completion_us is None for request in requests)
        assert run["Baseline"].metrics.host_reads > 0

    def test_synthetic_shape_workload(self, tiny_ssd_config):
        run = (Simulation(tiny_ssd_config)
               .policy("Baseline")
               .synthetic(read_ratio=0.5, n=40, seed=4)
               .condition(pec=0, months=0.0)
               .run())
        assert run.result.metrics.host_writes > 0

    def test_matches_direct_simulator_runs(self, tiny_ssd_config,
                                           default_rpt):
        footprint = int(tiny_ssd_config.logical_pages * 0.8)
        direct = {}
        for policy in ("Baseline", "PnAR2"):
            simulator = SsdSimulator(tiny_ssd_config, policy=policy,
                                     rpt=default_rpt)
            simulator.precondition(pe_cycles=1000, retention_months=6.0)
            direct[policy] = simulator.run(catalog_workload(
                "usr_1", footprint, seed=0).iter_requests(40))
        new = (Simulation(tiny_ssd_config)
               .policies("Baseline", "PnAR2")
               .workload("usr_1", n=40, seed=0)
               .condition(pec=1000, months=6.0)
               .rpt(default_rpt)
               .run())
        for policy in ("Baseline", "PnAR2"):
            assert new[policy].metrics.summary() == \
                direct[policy].metrics.summary()
