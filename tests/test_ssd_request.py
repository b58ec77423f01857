"""Tests for host requests, flash transactions and failure-path behaviour."""

import pytest

from repro.nand.voltage import ReadRetryTable
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.ftl import PageAddressing, PhysicalPage
from repro.ssd.request import (
    FlashTransaction,
    HostRequest,
    RequestKind,
    TransactionKind,
)
from repro.ssd.retry_grid import RetryStepGrid


class TestHostRequest:
    def test_lpns_and_pending_pages(self):
        request = HostRequest(arrival_us=10.0, kind=RequestKind.READ,
                              start_lpn=5, page_count=3)
        assert request.lpns == [5, 6, 7]
        assert request.pending_pages == 3
        assert request.is_read

    def test_response_time(self):
        request = HostRequest(arrival_us=10.0, kind=RequestKind.WRITE,
                              start_lpn=0)
        assert request.response_time_us is None
        request.completion_us = 35.0
        assert request.response_time_us == pytest.approx(25.0)

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


class TestFlashTransaction:
    def test_kind_classification(self):
        assert TransactionKind.GC_READ.is_read
        assert TransactionKind.GC_PROGRAM.is_background
        assert not TransactionKind.PROGRAM.is_background

    def test_waiting_time(self):
        transaction = FlashTransaction(kind=TransactionKind.READ, lpn=1,
                                       packed=0, die=0, issue_us=100.0)
        assert transaction.waiting_time_us is None
        transaction.service_start_us = 160.0
        assert transaction.waiting_time_us == pytest.approx(60.0)
        assert transaction.die == 0


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
