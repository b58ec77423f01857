"""Tests for the parallel sweep runner and the legacy grid shims."""

import pytest

from repro.sim import Condition, SweepRunner, WorkloadSpec
from repro.sim import sweep as sweep_module
from repro.ssd.config import SsdConfig

POLICIES = ("Baseline", "PnAR2", "NoRR")
WORKLOADS = ("usr_1", "stg_0")
CONDITIONS = ((0, 0.0), (1000, 6.0))


@pytest.fixture(scope="module")
def tiny_config():
    return SsdConfig.tiny()


@pytest.fixture(scope="module")
def serial_result(tiny_config):
    runner = SweepRunner(config=tiny_config, processes=1)
    return runner.run(policies=POLICIES, workloads=WORKLOADS,
                      conditions=CONDITIONS, num_requests=50)


class TestSweepResult:
    def test_row_grid_shape(self, serial_result):
        assert len(serial_result.rows) == (
            len(POLICIES) * len(WORKLOADS) * len(CONDITIONS))
        assert {row["workload"] for row in serial_result.rows} == set(WORKLOADS)

    def test_rows_normalized_to_baseline(self, serial_result):
        for row in serial_result.filter_rows(policy="Baseline"):
            assert row["normalized_response_time"] == pytest.approx(1.0)
        for row in serial_result.filter_rows(policy="NoRR"):
            # At the fresh (0 PEC, 0 mo) condition no read retries, so NoRR
            # ties the Baseline; under aging it must win outright.
            assert row["normalized_response_time"] <= 1.0
        aged = serial_result.filter_rows(policy="NoRR", workload="usr_1",
                                         pe_cycles=1000)
        assert aged and all(row["normalized_response_time"] < 1.0
                            for row in aged)

    def test_workload_classes(self, serial_result):
        assert all(row["class"] == "read-dominant"
                   for row in serial_result.filter_rows(workload="usr_1"))
        assert all(row["class"] == "write-dominant"
                   for row in serial_result.filter_rows(workload="stg_0"))

    def test_cell_accessor(self, serial_result):
        cell = serial_result.cell("usr_1", 1000, 6.0)
        assert set(cell) == set(POLICIES)
        assert cell["Baseline"].preconditioned_pe_cycles == 1000

    def test_to_grid_matches_legacy_layout(self, serial_result):
        grid = serial_result.to_grid()
        assert set(grid) == set(WORKLOADS)
        assert set(grid["usr_1"]) == {(0, 0.0), (1000, 6.0)}
        assert set(grid["usr_1"][(1000, 6.0)]) == set(POLICIES)

    def test_table_renders(self, serial_result):
        text = serial_result.table(max_rows=5)
        assert "normalized_response_time" in text
        assert "more rows" in text


class TestParallelEquality:
    def test_parallel_rows_bitwise_identical(self, tiny_config, serial_result):
        parallel = SweepRunner(config=tiny_config, processes=4).run(
            policies=POLICIES, workloads=WORKLOADS, conditions=CONDITIONS,
            num_requests=50)
        assert parallel.rows == serial_result.rows
        for key, cell in serial_result.cells.items():
            for policy, result in cell.items():
                other = parallel.cells[key][policy]
                # Histogram equality covers bucket counts, the exact count
                # and the compensated sum — i.e. the full recorder state.
                assert other.metrics.read_latency == \
                    result.metrics.read_latency
                assert other.metrics.summary() == result.metrics.summary()

    def test_rows_carry_tail_latency_columns(self, serial_result):
        for row in serial_result.rows:
            assert row["p999_response_us"] >= row["p99_response_us"] >= 0.0
        aged = serial_result.filter_rows(policy="Baseline", workload="usr_1",
                                         pe_cycles=1000)
        assert all(row["p99_response_us"] > row["mean_response_us"]
                   for row in aged)


class TestStreamCache:
    def test_stream_reused_across_conditions(self, tiny_config):
        sweep_module._STREAM_CACHE.clear()
        stats = sweep_module._STREAM_CACHE_STATS
        before = dict(stats)
        SweepRunner(config=tiny_config, processes=1).run(
            policies=("NoRR",), workloads=("usr_1",),
            conditions=((0, 0.0), (1000, 6.0), (2000, 12.0)),
            num_requests=30)
        assert stats["misses"] - before["misses"] == 1
        assert stats["hits"] - before["hits"] == 2

    def test_per_cell_seeds_vary_streams(self, tiny_config):
        runner = SweepRunner(config=tiny_config, per_cell_seeds=True)
        result = runner.run(policies=("NoRR",), workloads=("usr_1",),
                            conditions=((0, 0.0), (1000, 6.0)),
                            num_requests=30)
        first = result.cell("usr_1", 0, 0.0)["NoRR"]
        second = result.cell("usr_1", 1000, 6.0)["NoRR"]
        assert first.metrics.read_latency != second.metrics.read_latency


class TestValidation:
    def test_rejects_empty_grid(self, tiny_config):
        runner = SweepRunner(config=tiny_config)
        with pytest.raises(ValueError):
            runner.run(policies=POLICIES, workloads=())
        with pytest.raises(ValueError):
            runner.run(policies=POLICIES, workloads=("usr_1",),
                       conditions=())

    def test_rejects_unknown_workload(self, tiny_config):
        with pytest.raises(KeyError):
            SweepRunner(config=tiny_config).run(
                policies=POLICIES, workloads=("not-a-workload",))

    def test_rejects_bad_process_count(self):
        with pytest.raises(ValueError):
            SweepRunner(processes=0)

    def test_duplicate_workload_labels_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="collide"):
            SweepRunner(config=tiny_config).run(
                policies=("NoRR",), workloads=("usr_1", "USR_1"))

    def test_distinct_synthetic_specs_get_distinct_cells(self, tiny_config):
        from repro.workloads.synthetic import WorkloadShape

        read_heavy = WorkloadSpec(shape=WorkloadShape(read_ratio=0.95),
                                  num_requests=30)
        write_heavy = WorkloadSpec(shape=WorkloadShape(read_ratio=0.10),
                                   num_requests=30)
        assert read_heavy.label != write_heavy.label
        result = SweepRunner(config=tiny_config).run(
            policies=("Baseline",), workloads=(read_heavy, write_heavy),
            conditions=((0, 0.0),))
        assert len(result.cells) == 2
        reads = [result.cell(spec.label, 0, 0.0)["Baseline"].metrics.host_reads
                 for spec in (read_heavy, write_heavy)]
        assert reads[0] > reads[1]

    def test_explicit_spec_keeps_its_own_fields(self, tiny_config):
        spec = WorkloadSpec(name="usr_1", num_requests=30,
                            mean_interarrival_us=300.0,
                            footprint_fraction=0.5)
        runner = SweepRunner(config=tiny_config, mean_interarrival_us=700.0)
        result = runner.run(policies=("NoRR",), workloads=(spec,),
                            conditions=((0, 0.0),))
        used = result.workloads[0]
        assert used.mean_interarrival_us == 300.0
        assert used.footprint_fraction == 0.5

    def test_workload_spec_objects_accepted(self, tiny_config):
        spec = WorkloadSpec(name="usr_1", num_requests=30, seed=2,
                            mean_interarrival_us=700.0)
        result = SweepRunner(config=tiny_config).run(
            policies=("NoRR",), workloads=(spec,),
            conditions=(Condition(0, 0.0),))
        assert result.cell("usr_1", 0, 0.0)["NoRR"].metrics.host_reads > 0


class TestMainSmoke:
    def test_python_m_repro_entry_point(self, capsys):
        from repro.__main__ import main

        exit_code = main(["--workloads", "usr_1", "--requests", "40"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "normalized_response_time" in out
        assert "Baseline" in out
