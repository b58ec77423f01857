"""Tests for host requests, the read path's page-ready time and
failure-path behaviour."""

import pytest

from repro.errors.condition import OperatingCondition
from repro.nand.geometry import PAGE_TYPE_ORDER
from repro.nand.voltage import ReadRetryTable
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.ftl import PageAddressing, PhysicalPage
from repro.ssd.request import HostRequest, RequestKind
from repro.ssd.retry_grid import RetryStepGrid


class TestHostRequest:
    def test_lpns(self):
        request = HostRequest(arrival_us=10.0, kind=RequestKind.READ,
                              start_lpn=5, page_count=3)
        assert request.lpns == [5, 6, 7]
        assert request.page_count == 3
        assert request.is_read

    def test_a_request_holds_what_arrived_and_nothing_else(self):
        # The simulator keeps every completion record itself, so a request
        # carries no completion fields a caller could mistake for results.
        assert HostRequest.__slots__ == (
            "arrival_us", "kind", "start_lpn", "page_count", "queue_id",
            "request_id")
        with pytest.raises(TypeError):
            HostRequest(10.0, RequestKind.WRITE, 0, completion_us=35.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostRequest(arrival_us=-1.0, kind=RequestKind.READ, start_lpn=0)
        with pytest.raises(ValueError):
            HostRequest(arrival_us=0.0, kind=RequestKind.READ, start_lpn=0,
                        page_count=0)
        with pytest.raises(ValueError):
            HostRequest(arrival_us=0.0, kind=RequestKind.READ, start_lpn=-3)

    def test_request_ids_unique(self):
        first = HostRequest(0.0, RequestKind.READ, 0)
        second = HostRequest(0.0, RequestKind.READ, 0)
        assert first.request_id != second.request_id


class TestPageReadyTime:
    """A read's die records when its page is ready: the read's start plus
    its priced response, and its request completes from that time."""

    def test_page_ready_is_the_start_plus_the_priced_response(
            self, default_rpt):
        # PnAR2 pipelines its retry steps, so a read's response is shorter
        # than the time it holds the die.
        config = SsdConfig.tiny()
        simulator = SsdSimulator(config, policy="PnAR2", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        priced = []
        price = simulator._read_service_time

        def record(die, packed):
            die_busy_us = price(die, packed)
            priced.append((simulator.events.now_us, packed, die.retry_steps,
                           die.page_ready_us, die_busy_us))
            return die_busy_us
        simulator._read_service_time = record
        # Two reads of one die and one of another, all arriving at once:
        # the second read of the shared die starts after it arrived.
        pages_per_die = PageAddressing(config).pages_per_die

        def die_of(lpn):
            packed, _ = simulator.mapper.read_target_packed(lpn, 0.0)
            return packed // pages_per_die
        same = next(lpn for lpn in range(1, 64) if die_of(lpn) == die_of(0))
        other = next(lpn for lpn in range(1, 64) if die_of(lpn) != die_of(0))
        requests = [HostRequest(0.0, RequestKind.READ, lpn)
                    for lpn in (0, same, other)]
        result = simulator.run(requests)
        starts = [start for start, _, _, _, _ in priced]
        assert len(starts) == 3
        assert sorted(starts)[:2] == [0.0, 0.0] and max(starts) > 0.0
        for start, packed, steps, page_ready_us, die_busy_us in priced:
            pe_cycles, retention = simulator.mapper.read_condition_packed(
                packed, start)
            breakdown = simulator.policy.shared_breakdown(
                steps, PAGE_TYPE_ORDER[packed % config.pages_per_block % 3],
                OperatingCondition(pe_cycles=pe_cycles,
                                   retention_months=retention,
                                   temperature_c=config.temperature_c))
            assert breakdown.response_us < breakdown.die_busy_us
            assert page_ready_us == start + breakdown.response_us
            assert die_busy_us == breakdown.die_busy_us
        assert result.metrics.reduced_timing_fallbacks == 0
        # Each one-page read arrived at 0.0, so its response time is its
        # page-ready time.
        latency = result.metrics.read_latency
        assert latency.count == 3
        assert latency.max_us == max(ready for _, _, _, ready, _ in priced)
        assert latency.min_us == min(ready for _, _, _, ready, _ in priced)


class TestReadFailurePath:
    """A retry table too short for the V_TH shift: the read fails outright
    (footnote 13) and the grid charges the full table walk."""

    def test_grid_charges_full_table_on_failure(self, default_rpt):
        config = SsdConfig.tiny()
        tiny_table = ReadRetryTable(num_entries=4)
        grid = RetryStepGrid(config, rpt=default_rpt, retry_table=tiny_table)
        packed = PageAddressing(config).pack(PhysicalPage(0, 0, 0, 1, 4))
        behaviour, _ = grid.behaviour_at(
            packed % config.pages_per_block % 3, 2000, 12.0,
            packed // config.pages_per_block)
        assert behaviour.retry_steps == tiny_table.num_entries

    def test_simulation_survives_unreadable_pages(self, default_rpt):
        config = SsdConfig.tiny()
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        # A private grid over the shortened table, so it cannot pollute the
        # process-shared grid of this configuration.
        simulator.grid = RetryStepGrid(
            config, rpt=default_rpt, retry_table=ReadRetryTable(num_entries=4))
        simulator.precondition(pe_cycles=2000, retention_months=12.0)
        requests = [HostRequest(i * 200.0, RequestKind.READ, i)
                    for i in range(10)]
        result = simulator.run(requests)
        assert result.metrics.host_reads == 10
        # Every read paid for the whole (short) table.
        assert result.metrics.mean_retry_steps() == pytest.approx(4.0)
