"""Tests for the parallel sweep runner and its worker pool."""

import gc
import multiprocessing

import pytest

from repro.core.rpt import ReadTimingParameterTable
from repro.sim import Condition, SweepRunner, WorkloadSpec
from repro.sim import fleet as fleet_module
from repro.sim import sweep as sweep_module
from repro.sim.fleet import FleetRunner, FleetSpec
from repro.sim.sweep import WorkerPool, pool_map
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.retry_grid import clear_shared_grids, shared_grid

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

    def test_spawned_workers_match_a_serial_run_of_either_runner(self, monkeypatch):
        # A spawned worker starts without the parent's retry-grid slabs and
        # must build the ones its condition reads, or its reads of rewritten
        # data fall back to scalar walks and the grid counters in summary()
        # drift from the serial run's.  A scaled() grid builds a slab only
        # after several queries, so a missing prefill shows; a tiny() grid
        # builds on the first query.
        config = SsdConfig.scaled()
        conditions = (Condition(1000, 6.0), Condition(2000, 12.0))
        policies = ("Baseline", "PnAR2")
        # A 5-page stripe unit divides a scaled() device into whole groups.
        fleet = FleetSpec(devices=2, stripe_unit_pages=5, config=config,
                          device_conditions=conditions)
        workload = WorkloadSpec(name="usr_1", num_requests=120, seed=3,
                                mean_interarrival_us=700.0)

        def summaries(processes):
            sweep = SweepRunner(config=config, processes=processes).run(
                policies=policies, workloads=("usr_1",), conditions=conditions,
                num_requests=60)
            run = FleetRunner(fleet, processes=processes).run(workload, policies=policies)
            return (
                {key: {name: result.summary() for name, result in cell.items()}
                 for key, cell in sweep.cells.items()},
                {name: (result.merged.summary(), result.summary(), result.device_rows())
                 for name, result in run},
            )

        serial = summaries(1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert summaries(2) == serial

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


class TestValidation:
    def test_rejects_empty_grid(self, tiny_config):
        runner = SweepRunner(config=tiny_config)
        with pytest.raises(ValueError):
            runner.run(policies=POLICIES, workloads=())
        with pytest.raises(ValueError):
            runner.run(policies=POLICIES, workloads=("usr_1",),
                       conditions=())
        with pytest.raises(ValueError, match="no policies"):
            runner.run(policies=(), workloads=("usr_1",))

    def test_rejects_unknown_workload(self, tiny_config):
        with pytest.raises(KeyError):
            SweepRunner(config=tiny_config).run(
                policies=POLICIES, workloads=("not-a-workload",))

    def test_rejects_bad_process_count(self):
        with pytest.raises(ValueError):
            SweepRunner(processes=0)

    def test_repeated_condition_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="given more than once"):
            SweepRunner(config=tiny_config).run(
                policies=("Baseline", "NoRR"), workloads=("usr_1",),
                conditions=[(1000, 6), (1000, 6.0)], num_requests=30)

    def test_repeated_policy_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="given more than once"):
            SweepRunner(config=tiny_config).run(
                policies=("PnAR2", "pnar2"), workloads=("usr_1",),
                conditions=((0, 0.0),), num_requests=30)

    def test_cells_precondition_with_the_condition_fill(self, tiny_config, monkeypatch):
        fills = []
        precondition = SsdSimulator.precondition

        def recording(self, *args, **kwargs):
            fills.append(kwargs["fill_fraction"])
            return precondition(self, *args, **kwargs)

        monkeypatch.setattr(SsdSimulator, "precondition", recording)

        def rows(condition):
            return SweepRunner(config=tiny_config).run(
                policies=("Baseline",), workloads=("usr_1",),
                conditions=(condition,), num_requests=60).rows

        sparse = rows(Condition(1000, 6.0, fill_fraction=0.3))
        assert fills == [0.3]
        assert sparse != rows(Condition(1000, 6.0))
        assert fills == [0.3, 0.85]

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


class TestSlabPrefill:
    """Both runners keep every device's slabs in the parent before any
    device runs, so forked workers inherit them; a worker that starts
    without them (spawn, or an LRU eviction) keeps its own.  The rows fill
    where the reads run."""

    CONDITIONS = (Condition(1000, 6.0), Condition(2000, 12.0))
    COLD_AND_REWRITTEN = [{(1000, 6.0), (1000, 0.0)}, {(2000, 12.0), (2000, 0.0)}]

    @pytest.fixture(autouse=True)
    def _no_shared_grids(self):
        clear_shared_grids()
        yield
        clear_shared_grids()

    @staticmethod
    def _slabs(config):
        return set(shared_grid(config, ReadTimingParameterTable.default())._slabs)

    @staticmethod
    def _record_slabs_at_precondition(monkeypatch):
        recorded = []
        precondition = SsdSimulator.precondition

        def recording(self, *args, **kwargs):
            recorded.append(set(self.grid._slabs))
            return precondition(self, *args, **kwargs)

        monkeypatch.setattr(SsdSimulator, "precondition", recording)
        return recorded

    def _fleet(self, config):
        return FleetSpec(devices=2, stripe_unit_pages=2, config=config,
                         device_conditions=self.CONDITIONS)

    def test_the_sweep_parent_builds_every_slab_before_the_pool_maps(
            self, tiny_config, monkeypatch):
        seen = []
        run_pool = sweep_module.pool_map

        def recording(*args, **kwargs):
            seen.append(self._slabs(tiny_config))
            return run_pool(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "pool_map", recording)
        SweepRunner(config=tiny_config, processes=2).run(
            policies=("Baseline",), workloads=("usr_1",),
            conditions=self.CONDITIONS, num_requests=30)
        assert seen == [set.union(*self.COLD_AND_REWRITTEN)]

    def test_the_fleet_parent_builds_every_slab_before_a_device_runs(
            self, tiny_config, monkeypatch):
        seen = []
        run_device = fleet_module._run_fleet_device

        def recording(payload):
            seen.append(self._slabs(tiny_config))
            return run_device(payload)

        monkeypatch.setattr(fleet_module, "_run_fleet_device", recording)
        FleetRunner(self._fleet(tiny_config)).run(
            WorkloadSpec(name="usr_1", num_requests=40, seed=3), policies="Baseline")
        assert seen[0] == set.union(*self.COLD_AND_REWRITTEN)

    @staticmethod
    def _slabs_after_a_fleet_run(config, processes):
        # Both devices form one shard, so processes=2 sends it to workers.
        spec = FleetSpec(devices=2, stripe_unit_pages=2, config=config,
                         condition=Condition(1000, 6.0))
        FleetRunner(spec, processes=processes).run(
            WorkloadSpec(name="usr_1", num_requests=40, seed=3), policies="PnAR2")
        return shared_grid(config, ReadTimingParameterTable.default())._slabs

    @staticmethod
    def _rows(slabs):
        return [behaviour for slab in slabs.values()
                for row in slab.rows for behaviour in row]

    def test_a_forking_fleet_parent_computes_no_row(self, tiny_config):
        slabs = self._slabs_after_a_fleet_run(tiny_config, processes=2)
        assert set(slabs) == {(1000, 6.0), (1000, 0.0)}
        assert set(self._rows(slabs)) == {None}

    def test_a_forking_fleet_parent_keeps_every_device_condition_empty(
            self, tiny_config):
        FleetRunner(self._fleet(tiny_config), processes=2).run(
            WorkloadSpec(name="usr_1", num_requests=40, seed=3), policies="PnAR2")
        slabs = shared_grid(tiny_config, ReadTimingParameterTable.default())._slabs
        assert set(slabs) == set.union(*self.COLD_AND_REWRITTEN)
        assert set(self._rows(slabs)) == {None}

    def test_a_serial_fleet_parent_fills_only_the_rows_it_reads(self, tiny_config):
        rows = self._rows(self._slabs_after_a_fleet_run(tiny_config, processes=1))
        assert None in rows
        assert any(behaviour is not None for behaviour in rows)

    def test_a_sweep_cell_without_slabs_builds_its_own(self, tiny_config, monkeypatch):
        run_cell = sweep_module._run_cell

        def in_an_empty_process(payload):
            clear_shared_grids()
            return run_cell(payload)

        monkeypatch.setattr(sweep_module, "_run_cell", in_an_empty_process)
        recorded = self._record_slabs_at_precondition(monkeypatch)
        SweepRunner(config=tiny_config).run(
            policies=("Baseline",), workloads=("usr_1",),
            conditions=self.CONDITIONS, num_requests=30)
        assert recorded == self.COLD_AND_REWRITTEN

    def test_a_fleet_device_without_slabs_builds_its_own(self, tiny_config, monkeypatch):
        run_device = fleet_module._run_fleet_device

        def in_an_empty_process(payload):
            clear_shared_grids()
            return run_device(payload)

        monkeypatch.setattr(fleet_module, "_run_fleet_device", in_an_empty_process)
        recorded = self._record_slabs_at_precondition(monkeypatch)
        FleetRunner(self._fleet(tiny_config)).run(
            WorkloadSpec(name="usr_1", num_requests=40, seed=3), policies="Baseline")
        assert recorded == self.COLD_AND_REWRITTEN


def _square(value):
    return value * value


def _freeze_count(_):
    return gc.get_freeze_count()


class TestWorkerPool:
    def test_one_pool_serves_every_map_in_payload_order(self):
        delivered = []
        with WorkerPool(2) as pool:
            first = pool.map(_square, [3, 1, 2], on_result=delivered.append)
            pool_process = pool._pool
            second = pool.map(_square, [4, 5])
            assert pool._pool is pool_process
        assert first == delivered == [9, 1, 4]
        assert second == [16, 25]

    def test_submit_forks_only_for_two_payloads_and_two_workers(self):
        with WorkerPool(2) as pool:
            assert list(pool.submit(_square, [3])) == [9]
            assert pool._pool is None
            assert list(pool.submit(_square, [3, 4])) == [9, 16]
            assert pool._pool is not None
        serial = WorkerPool(1)
        assert list(serial.submit(_square, [1, 2, 3])) == [1, 4, 9]
        assert serial._pool is None

    def test_submitting_no_payloads_forks_nothing(self):
        with WorkerPool(2) as pool:
            assert list(pool.submit(_square, [])) == []
            assert pool.map(_square, []) == []
            assert pool._pool is None

    def test_pool_map_maps_nothing_and_one_payload_serially(self):
        assert pool_map(_square, [], 4) == []
        delivered = []
        assert pool_map(_square, [7], 4, on_result=delivered.append) == [49]
        assert delivered == [49]

    def test_chunked_submissions_deliver_in_payload_order(self):
        with WorkerPool(2) as pool:
            first = pool.submit(_square, list(range(7)), chunksize=4)
            # A second call queues behind the first without waiting for it.
            second = pool.submit(_square, [10, 11, 12], chunksize=2)
            assert list(first) == [value * value for value in range(7)]
            assert list(second) == [100, 121, 144]

    def test_map_sends_one_payload_per_message(self, monkeypatch):
        chunksizes = []
        submit = WorkerPool.submit

        def recording(self, func, payloads, chunksize=1):
            chunksizes.append(chunksize)
            return submit(self, func, payloads, chunksize)

        monkeypatch.setattr(WorkerPool, "submit", recording)
        with WorkerPool(2) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert chunksizes == [1]

    def test_a_serial_submission_runs_nothing_until_iterated(self):
        ran = []

        def work(payload):
            ran.append(payload)
            return payload + 1

        results = WorkerPool(1).submit(work, [1, 2, 3])
        assert ran == []
        assert next(results) == 2
        assert ran == [1]
        assert list(results) == [3, 4]

    def test_workers_fork_from_a_frozen_heap_the_parent_unfreezes(self):
        assert gc.get_freeze_count() == 0
        with WorkerPool(2) as pool:
            counts = pool.map(_freeze_count, [0, 1])
            assert gc.get_freeze_count() == 0
        if "fork" in multiprocessing.get_all_start_methods():
            # Each forked worker inherited the parent's objects frozen, so its
            # collector never walks them.
            assert min(counts) > 0


class TestMainSmoke:
    def test_python_m_repro_entry_point(self, capsys):
        from repro.__main__ import main

        exit_code = main(["--workloads", "usr_1", "--requests", "40"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "normalized_response_time" in out
        assert "Baseline" in out
