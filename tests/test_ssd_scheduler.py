"""Tests for per-die scheduling: read priority and program/erase suspension."""

import pytest

from repro.ssd.config import SsdConfig
from repro.ssd.engine import EventQueue
from repro.ssd.request import FlashTransaction, TransactionKind
from repro.ssd.scheduler import DieScheduler


def make_transaction(kind, issue_us=0.0):
    return FlashTransaction(kind=kind, lpn=0, packed=0, die=0,
                            issue_us=issue_us)


SERVICE_TIMES = {
    TransactionKind.READ: 100.0,
    TransactionKind.GC_READ: 100.0,
    TransactionKind.PROGRAM: 700.0,
    TransactionKind.GC_PROGRAM: 700.0,
    TransactionKind.ERASE: 5000.0,
}


def build_scheduler(config=None, completed=None):
    config = config or SsdConfig.tiny()
    events = EventQueue()
    completed = completed if completed is not None else []
    scheduler = DieScheduler(
        (0, 0), config, events,
        service_time_fn=lambda txn: SERVICE_TIMES[txn.kind],
        on_complete=completed.append)
    return scheduler, events, completed


class TestBasicScheduling:
    def test_single_transaction_completes(self):
        scheduler, events, completed = build_scheduler()
        read = make_transaction(TransactionKind.READ)
        scheduler.enqueue(read)
        events.run()
        assert completed == [read]
        assert read.service_start_us == 0.0
        assert read.completion_us == pytest.approx(100.0)
        assert scheduler.is_idle

    def test_reads_overtake_queued_programs(self):
        # Out-of-order I/O scheduling: a read enqueued behind programs is
        # served as soon as the die becomes free, before the programs.
        scheduler, events, completed = build_scheduler()
        first_program = make_transaction(TransactionKind.PROGRAM)
        second_program = make_transaction(TransactionKind.PROGRAM)
        read = make_transaction(TransactionKind.READ)
        scheduler.enqueue(first_program)
        scheduler.enqueue(second_program)
        events.schedule(10.0, lambda: scheduler.enqueue(read))
        events.run()
        assert completed.index(read) < completed.index(second_program)

    def test_fifo_without_read_priority(self):
        config = SsdConfig.tiny(read_priority=False, suspension=False)
        scheduler, events, completed = build_scheduler(config)
        program = make_transaction(TransactionKind.PROGRAM)
        read = make_transaction(TransactionKind.READ)
        scheduler.enqueue(program)
        scheduler.enqueue(read)
        events.run()
        assert completed == [program, read]

    def test_busy_time_accounting(self):
        scheduler, events, _ = build_scheduler()
        scheduler.enqueue(make_transaction(TransactionKind.READ))
        scheduler.enqueue(make_transaction(TransactionKind.READ))
        events.run()
        assert scheduler.total_busy_us == pytest.approx(200.0)
        assert scheduler.completed_transactions == 2


class TestSuspension:
    def test_read_suspends_inflight_program(self):
        scheduler, events, completed = build_scheduler()
        program = make_transaction(TransactionKind.PROGRAM)
        read = make_transaction(TransactionKind.READ)
        scheduler.enqueue(program)
        events.schedule(200.0, lambda: scheduler.enqueue(read))
        events.run()
        # The read finishes long before the program would have (at 700 us).
        assert read.completion_us == pytest.approx(300.0)
        # The program pays the remaining time plus the suspension overhead.
        config = SsdConfig.tiny()
        expected_program_end = (300.0 + (700.0 - 200.0)
                                + config.timing.program_suspend_us)
        assert program.completion_us == pytest.approx(expected_program_end)
        assert scheduler.suspensions == 1

    def test_erase_suspension_uses_erase_overhead(self):
        scheduler, events, _ = build_scheduler()
        erase = make_transaction(TransactionKind.ERASE)
        read = make_transaction(TransactionKind.READ)
        scheduler.enqueue(erase)
        events.schedule(1000.0, lambda: scheduler.enqueue(read))
        events.run()
        config = SsdConfig.tiny()
        expected = 1000.0 + 100.0 + 4000.0 + config.timing.erase_suspend_us
        assert erase.completion_us == pytest.approx(expected)

    def test_program_suspended_only_once(self):
        scheduler, events, completed = build_scheduler()
        program = make_transaction(TransactionKind.PROGRAM)
        scheduler.enqueue(program)
        events.schedule(100.0, lambda: scheduler.enqueue(
            make_transaction(TransactionKind.READ)))
        events.schedule(150.0, lambda: scheduler.enqueue(
            make_transaction(TransactionKind.READ)))
        events.run()
        assert scheduler.suspensions == 1
        assert len(completed) == 3

    def test_no_suspension_when_disabled(self):
        config = SsdConfig.tiny(suspension=False)
        scheduler, events, _ = build_scheduler(config)
        program = make_transaction(TransactionKind.PROGRAM)
        read = make_transaction(TransactionKind.READ)
        scheduler.enqueue(program)
        events.schedule(100.0, lambda: scheduler.enqueue(read))
        events.run()
        # The read waits for the full program.
        assert read.service_start_us == pytest.approx(700.0)
        assert scheduler.suspensions == 0

    def test_read_does_not_suspend_read(self):
        scheduler, events, _ = build_scheduler()
        first = make_transaction(TransactionKind.READ)
        second = make_transaction(TransactionKind.READ)
        scheduler.enqueue(first)
        events.schedule(10.0, lambda: scheduler.enqueue(second))
        events.run()
        assert second.service_start_us == pytest.approx(100.0)
        assert scheduler.suspensions == 0
