"""Tests for the end-to-end SSD simulator."""

import gc

import pytest

from repro.ssd.config import SsdConfig
from repro.sim import Simulation
from repro.ssd.controller import SsdSimulator
from repro.ssd.faults import FaultPlan, die_failure, grown_bad_blocks, read_disturb
from repro.ssd.request import HostRequest, RequestKind
from repro.workloads.catalog import catalog_workload
from repro.workloads.closed_loop import ClosedLoopSource


def read(arrival, lpn, pages=1):
    return HostRequest(arrival_us=arrival, kind=RequestKind.READ,
                       start_lpn=lpn, page_count=pages)


def write(arrival, lpn, pages=1):
    return HostRequest(arrival_us=arrival, kind=RequestKind.WRITE,
                       start_lpn=lpn, page_count=pages)


@pytest.fixture()
def config():
    return SsdConfig.tiny()


class TestBasicOperation:
    def test_single_fresh_read(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(pe_cycles=0, retention_months=0.0)
        result = simulator.run([read(0.0, 10)])
        assert result.metrics.host_reads == 1
        # A fresh read needs no retry: tR + tDMA + tECC at most (CSB worst).
        assert result.metrics.mean_response_time_us("read") <= 117.0 + 36.0 + 1e-6
        assert result.metrics.mean_retry_steps() == 0.0

    def test_aged_read_takes_much_longer(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(pe_cycles=2000, retention_months=12.0)
        result = simulator.run([read(0.0, 10)])
        assert result.metrics.mean_retry_steps() >= 10
        assert result.metrics.mean_response_time_us("read") > 1000.0

    def test_write_is_absorbed_by_buffer(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition()
        result = simulator.run([write(0.0, 5)])
        assert result.metrics.host_writes == 1
        assert result.metrics.mean_response_time_us("write") == pytest.approx(0.0)
        assert result.metrics.host_programs == 1

    def test_write_back_pressure_when_buffer_full(self, default_rpt):
        config = SsdConfig.tiny(write_buffer_pages=2)
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition()
        requests = [write(0.0, lpn) for lpn in range(6)]
        result = simulator.run(requests)
        assert result.metrics.host_writes == 6
        # Later writes had to wait for flash programs to drain the buffer.
        assert result.metrics.max_response_time_us("write") > 0.0

    def test_multi_page_read_completes_once(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition()
        result = simulator.run([read(0.0, 0, pages=4)])
        assert result.metrics.host_reads == 1
        assert result.metrics.pages_read == 4

    def test_unmapped_read_is_treated_as_cold_data(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0,
                               fill_fraction=0.05)
        lpn = config.logical_pages - 1  # outside the preconditioned range
        result = simulator.run([read(0.0, lpn)])
        assert result.metrics.mean_retry_steps() > 0

    def test_precondition_validation(self, config):
        simulator = SsdSimulator(config, policy="NoRR")
        with pytest.raises(ValueError):
            simulator.precondition(fill_fraction=0.0)


class TestPolicyBehaviour:
    def test_policy_accepts_instances_and_names(self, config, default_rpt):
        from repro.core.policies import PR2Policy

        by_name = SsdSimulator(config, policy="PR2", rpt=default_rpt)
        by_instance = SsdSimulator(config, policy=PR2Policy(config.timing,
                                                            default_rpt))
        assert by_name.policy.name == by_instance.policy.name == "PR2"

    def test_pnar2_beats_baseline_under_aging(self, config, default_rpt):
        results = (Simulation(config).policies("Baseline", "PnAR2", "NoRR")
                   .requests([read(i * 400.0, 7 * i % 200)
                              for i in range(40)])
                   .condition(pec=1000, months=6.0).rpt(default_rpt).run())
        baseline = results["Baseline"].mean_response_time_us
        pnar2 = results["PnAR2"].mean_response_time_us
        norr = results["NoRR"].mean_response_time_us
        assert norr < pnar2 < baseline

    def test_all_policies_identical_on_fresh_ssd(self, config, default_rpt):
        results = (Simulation(config)
                   .policies("Baseline", "PR2", "PnAR2", "NoRR")
                   .requests([read(i * 500.0, i) for i in range(20)])
                   .condition(pec=0, months=0.0).rpt(default_rpt).run())
        means = {name: round(result.mean_response_time_us, 3)
                 for name, result in results}
        assert len(set(means.values())) == 1

    def test_result_summary_contains_policy(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="AR2", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        result = simulator.run([read(0.0, 3)])
        summary = result.summary()
        assert summary["policy"] == "AR2"
        assert result.preconditioned_pe_cycles == 1000
        assert result.preconditioned_retention_months == 6.0


class TestGcIntegration:
    def test_sustained_writes_trigger_gc(self, default_rpt):
        config = SsdConfig.tiny(write_buffer_pages=16,
                                gc_free_block_threshold=6)
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(fill_fraction=0.7)
        hot_span = 40
        requests = [write(i * 30.0, i % hot_span, pages=1)
                    for i in range(800)]
        result = simulator.run(requests)
        assert result.metrics.gc_erases > 0
        assert result.metrics.gc_programs >= 0
        # The device never runs out of free blocks (the run completes).
        assert result.metrics.host_writes == 800

    def test_block_mode_reports_gc_invocations(self, default_rpt):
        # Block GC collects at most one victim per plane below its trigger,
        # and each such plane counts one invocation: erases never outnumber
        # invocations.
        config = SsdConfig.tiny(write_buffer_pages=16,
                                gc_free_block_threshold=6)
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(fill_fraction=0.7)
        requests = [write(i * 30.0, i % 40) for i in range(800)]
        metrics = simulator.run(requests).metrics
        assert 0 < metrics.gc_erases <= metrics.gc_invocations
        assert metrics.summary()["gc_invocations"] == metrics.gc_invocations


class TestAttributeBudget:
    @pytest.mark.parametrize("mapping", ["block", "page"])
    def test_a_simulator_fits_the_shared_key_table(self, mapping,
                                                   default_rpt):
        # CPython 3.11 shares one key table among a class's instances for
        # at most 29 attributes.  A 30th gives every simulator a plain
        # __dict__, and each self.attribute load on the per-page paths
        # becomes a hashed lookup instead of an indexed one.
        simulator = SsdSimulator(SsdConfig.tiny(mapping=mapping),
                                 policy="PnAR2", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        simulator.run([HostRequest(0.0, RequestKind.WRITE, 3),
                       HostRequest(10.0, RequestKind.READ, 3, page_count=2)])
        assert len(vars(simulator)) <= 29


class TestNoReferenceCycles:
    FAULTS = FaultPlan(faults=(
        die_failure(at_us=2000.0, channel=0, die=1),
        read_disturb(at_us=4000.0, duration_us=20000.0),
        grown_bad_blocks(at_us=6000.0, blocks=2)), seed=3)

    @pytest.mark.parametrize("mapping, faults, closed_loop", [
        ("block", False, False),
        ("page", False, False),
        ("page", True, False),
        ("block", False, True),
    ], ids=["block", "page", "page-faults", "closed-loop"])
    def test_a_finished_run_leaves_nothing_for_the_collector(
            self, mapping, faults, closed_loop, default_rpt):
        # No per-die record or fault injector points back at the simulator,
        # so a finished one is freed by reference counting alone: a fleet's
        # peak memory does not wait for the cyclic collector.
        config = SsdConfig.tiny(mapping=mapping)
        gc.collect()
        gc.disable()
        try:
            simulator = SsdSimulator(config, policy="PnAR2", rpt=default_rpt)
            simulator.precondition(pe_cycles=1000, retention_months=6.0,
                                   fill_fraction=0.5)
            if faults:
                simulator.install_faults(self.FAULTS)
            if closed_loop:
                result = simulator.run_closed_loop(ClosedLoopSource(
                    "ycsb-c", config=config, clients=3, queue_depth=2,
                    total_requests=200, seed=1))
            else:
                result = simulator.run(list(catalog_workload(
                    "stg_0", config.logical_pages // 2, seed=1,
                    mean_interarrival_us=300.0).iter_requests(200)))
            assert result.metrics.host_reads + result.metrics.host_writes == 200
            if faults:
                assert result.metrics.fault_injections == 3
                assert result.metrics.grown_bad_blocks == 2
            del simulator, result
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNoRequestLeftBehind:
    def test_a_write_larger_than_the_buffer_is_refused_on_arrival(
            self, default_rpt):
        # It could never be admitted: the run would end with it, and any
        # write queued behind it, silently outstanding.
        simulator = SsdSimulator(SsdConfig.tiny(), policy="Baseline",
                                 rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        oversized = write(0.0, 0, pages=40)
        with pytest.raises(ValueError, match=(
                f"write request {oversized.request_id} of 40 pages can never "
                "fit the 32-page write buffer")):
            simulator.run([oversized, write(10.0, 50), read(20.0, 60)])

    @pytest.mark.parametrize("closed_loop", [False, True])
    def test_a_drained_queue_with_requests_outstanding_raises(
            self, closed_loop, default_rpt):
        # A write buffer that never frees a slot strands every write that
        # does not fit, and a page read that is lost strands its request:
        # the run must say so instead of returning short.
        config = SsdConfig.tiny(write_buffer_pages=2)
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        simulator.write_buffer.release = lambda pages=1: None
        enqueue = simulator._enqueue

        def lose_lpn_7(transaction):
            if transaction.lpn != 7 or transaction.kind.is_background:
                enqueue(transaction)
        simulator._enqueue = lose_lpn_7
        requests = [write(0.0, 0), write(1.0, 1), write(2.0, 2),
                    read(3.0, 7), write(4.0, 3), read(5.0, 8)]
        message = (r"the event queue drained with 3 admitted requests still "
                   r"outstanding: 1 in-flight reads, 2 waiting writes")
        with pytest.raises(RuntimeError, match=message):
            if closed_loop:
                simulator.run_closed_loop(_Replay(requests))
            else:
                simulator.run(requests)


class TestReadsSharingAnId:
    """A read's completion state is its own, whatever its ``request_id``:
    reads in flight together that share an id complete independently."""

    @staticmethod
    def _run(requests):
        simulator = SsdSimulator(SsdConfig.tiny())
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        return simulator.run(iter(requests))

    def test_one_request_read_twice_at_once(self):
        request = read(0.0, 5, pages=4)
        twice = self._run([request, request])
        distinct = self._run([read(0.0, 5, pages=4), read(0.0, 5, pages=4)])
        assert twice.metrics.host_reads == 2
        assert twice.metrics.pages_read == 8
        assert twice.summary() == distinct.summary()

    def test_overlapping_reads_built_with_one_id(self):
        def reads(first_id, second_id):
            return [HostRequest(0.0, RequestKind.READ, 5, page_count=4,
                                request_id=first_id),
                    HostRequest(40.0, RequestKind.READ, 40, page_count=3,
                                request_id=second_id)]

        shared = self._run(reads(7, 7))
        distinct = self._run(reads(7, 8))
        assert shared.metrics.host_reads == 2
        assert shared.metrics.pages_read == 7
        assert shared.summary() == distinct.summary()


class _Replay:
    """A closed-loop source that issues a fixed list of requests at once."""

    def __init__(self, requests):
        self.requests = requests

    def start(self):
        return list(self.requests)

    def on_complete(self, request, now_us):
        return []


class TestRepeatedRuns:
    def test_second_run_does_not_recount_die_busy_time(self, config,
                                                        default_rpt):
        # Schedulers keep their busy time across runs, as the event clock
        # keeps its time; the metrics must hold it once, not once per run.
        simulator = SsdSimulator(config, policy="PnAR2", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0,
                               fill_fraction=0.5)
        simulator.run([read(i * 100.0, i) for i in range(50)])
        start_us = simulator.events.now_us
        metrics = simulator.run(
            [read(start_us + i * 100.0, 50 + i) for i in range(50)]).metrics
        assert metrics.host_reads == 100
        assert metrics.die_busy_us == {
            key: scheduler.total_busy_us
            for key, scheduler in simulator.schedulers.items()}
        busy_us = sum(metrics.die_busy_us.values()) / len(metrics.die_busy_us)
        assert busy_us < metrics.simulated_time_us
        assert metrics.die_utilization() == busy_us / metrics.simulated_time_us
