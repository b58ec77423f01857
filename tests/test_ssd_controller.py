"""Tests for the end-to-end SSD simulator."""

import pytest

from repro.ssd.config import SsdConfig
from repro.sim import Simulation
from repro.ssd.controller import SsdSimulator
from repro.ssd.request import HostRequest, RequestKind


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
