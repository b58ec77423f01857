"""Tests for the experiment harnesses and the runner."""

import pytest

from repro.experiments import EXPERIMENT_NAMES
from repro.experiments.reporting import ExperimentResult
from repro.experiments.runner import run_experiment
from repro.experiments import (fig14, fig15, table1, table2, tail_latency,
                               wear_dynamics)


class TestReporting:
    def test_columns_and_filter(self):
        result = ExperimentResult(name="x", title="X", rows=[
            {"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 4}])
        assert result.columns() == ["a", "b"]
        assert result.column("b") == [2, 3, 4]
        assert len(result.filter_rows(a=1)) == 2

    def test_to_text_renders_headline_and_rows(self):
        result = ExperimentResult(name="x", title="Title",
                                  rows=[{"a": 1}],
                                  headline={"key": "value"},
                                  notes=["caveat"])
        text = result.to_text()
        assert "Title" in text
        assert "key: value" in text
        assert "caveat" in text

    def test_to_text_row_limit(self):
        result = ExperimentResult(name="x", title="T",
                                  rows=[{"a": i} for i in range(10)])
        text = result.to_text(max_rows=3)
        assert "more rows" in text

    def test_empty_result_renders(self):
        assert "T" in ExperimentResult(name="x", title="T").to_text()


class TestStaticExperiments:
    def test_table1_matches_timing_parameters(self):
        result = table1.run()
        assert result.headline["tPROG [us]"] == 700.0
        rows = {row["parameter"]: row["time_us"] for row in result.rows}
        assert rows["tDMA"] == 16.0
        assert rows["tECC"] == 20.0

    def test_table2_measured_ratios_close_to_paper(self):
        result = table2.run(num_requests=1500, footprint_pages=6000)
        assert result.headline["workloads"] == 12
        assert result.headline["largest paper-vs-measured ratio gap"] <= 0.15


class TestRunner:
    def test_experiment_names_are_registered(self):
        assert "fig05" in EXPERIMENT_NAMES
        assert "fig14" in EXPERIMENT_NAMES

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_run_experiment_fast_characterization(self):
        result = run_experiment("fig11", profile="fast")
        assert result.name == "fig11"
        assert result.headline["smallest safe tPRE reduction [%]"] >= 40.0

    def test_run_experiment_overrides(self):
        result = run_experiment("fig05", profile="fast", num_chips=2)
        assert result.rows


class TestSystemExperiments:
    """Small smoke runs of the Figure 14/15 harnesses."""

    @pytest.fixture(scope="class")
    def fig14_result(self):
        return fig14.run(workloads=("usr_1",), conditions=((1000, 6.0),),
                         num_requests=120)

    def test_fig14_rows_cover_all_policies(self, fig14_result):
        policies = {row["policy"] for row in fig14_result.rows}
        assert policies == {"Baseline", "PR2", "AR2", "PnAR2", "NoRR"}

    def test_fig14_baseline_normalized_to_one(self, fig14_result):
        for row in fig14_result.filter_rows(policy="Baseline"):
            assert row["normalized_response_time"] == pytest.approx(1.0)

    def test_fig14_pnar2_improves_over_baseline(self, fig14_result):
        for row in fig14_result.filter_rows(policy="PnAR2"):
            assert row["normalized_response_time"] < 1.0

    def test_fig14_norr_is_lower_bound(self, fig14_result):
        by_policy = {row["policy"]: row["normalized_response_time"]
                     for row in fig14_result.rows}
        assert by_policy["NoRR"] <= min(by_policy.values())

    def test_fig15_pso_combined_beats_pso(self):
        result = fig15.run(workloads=("YCSB-C",), conditions=((2000, 12.0),),
                           num_requests=120)
        by_policy = {row["policy"]: row["normalized_response_time"]
                     for row in result.rows}
        assert by_policy["PSO+PnAR2"] < by_policy["PSO"] < 1.0


class TestTailLatencyExperiment:
    """Smoke runs of the tail-latency harness."""

    @pytest.fixture(scope="class")
    def tail_result(self):
        return tail_latency.run(workloads=("usr_1",),
                                conditions=((1000, 6.0),), num_requests=120)

    def test_rows_cover_all_policies_with_tail_columns(self, tail_result):
        policies = {row["policy"] for row in tail_result.rows}
        assert policies == {"Baseline", "PR2", "AR2", "PnAR2", "NoRR"}
        for row in tail_result.rows:
            assert row["p999_response_us"] >= row["p99_response_us"] \
                >= row["p50_response_us"] >= 0.0

    def test_pnar2_shortens_the_tail(self, tail_result):
        by_policy = {row["policy"]: row for row in tail_result.rows}
        assert by_policy["PnAR2"]["p99_response_us"] < \
            by_policy["Baseline"]["p99_response_us"]
        assert by_policy["PnAR2"]["p999_response_us"] < \
            by_policy["Baseline"]["p999_response_us"]

    def test_headline_reports_merged_tails(self, tail_result):
        assert "PnAR2 p99 reduction vs Baseline" in tail_result.headline
        assert "Baseline merged p99/p999 (us)" in tail_result.headline

    def test_serial_equals_parallel(self, tail_result):
        parallel = tail_latency.run(workloads=("usr_1",),
                                    conditions=((1000, 6.0),),
                                    num_requests=120, processes=2)
        assert parallel.rows == tail_result.rows
        assert parallel.headline == tail_result.headline


class TestWearDynamicsExperiment:
    """Smoke runs of the DFTL wear-dynamics harness."""

    @pytest.fixture(scope="class")
    def wear_result(self):
        return wear_dynamics.run(workloads=("stg_0",), num_requests=300)

    def test_rows_cover_all_policies_under_live_gc(self, wear_result):
        policies = {row["policy"] for row in wear_result.rows}
        assert policies == {"Baseline", "PR2", "AR2", "PnAR2", "NoRR"}
        for row in wear_result.rows:
            assert row["gc_invocations"] > 0
            assert row["gc_erases"] > 0
            assert row["translation_reads"] > 0
            assert row["translation_writes"] > 0
            assert row["write_amplification"] > 1.0
            assert 0.0 < row["mapping_cache_hit_rate"] < 1.0
            assert row["distinct_read_conditions"] > 1
            assert row["p999_response_us"] >= row["p99_response_us"] > 0.0

    def test_headline_reports_tails_and_wear_costs(self, wear_result):
        for policy in ("Baseline", "PR2", "AR2", "PnAR2", "NoRR"):
            assert f"{policy} p99/p999 under GC (us)" in wear_result.headline
        assert float(wear_result.headline["write amplification"]) > 1.0
        assert int(wear_result.headline["gc invocations"]) > 0
        assert wear_result.headline["mapping cache hit rate"].endswith("%")

    def test_norr_is_lower_bound_under_gc(self, wear_result):
        by_policy = {row["policy"]: row["normalized_response_time"]
                     for row in wear_result.rows}
        assert by_policy["NoRR"] <= min(by_policy.values())

    def test_serial_equals_parallel(self, wear_result):
        parallel = wear_dynamics.run(workloads=("stg_0",),
                                     num_requests=300, processes=2)
        assert parallel.rows == wear_result.rows
        assert parallel.headline == wear_result.headline
