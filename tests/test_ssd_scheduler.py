"""Tests for per-die scheduling: read priority and program/erase suspension."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestDirectStart:
    def test_idle_die_starts_a_newcomer_without_queueing_it(self):
        scheduler, events, _ = build_scheduler()
        program = make_transaction(TransactionKind.PROGRAM)
        scheduler.enqueue(program)
        assert scheduler.current is program
        assert scheduler.queue_depth == 0
        assert program.service_start_us == 0.0

    def test_callback_enqueue_waits_behind_queued_work(self):
        # A completion callback enqueues onto its own die while another
        # transaction waits there: the die is idle but not empty, and the
        # waiting transaction must start first.
        events = EventQueue()
        first, waiting, late = (make_transaction(TransactionKind.READ)
                                for _ in range(3))
        started = []

        def service_time(transaction):
            started.append(transaction)
            return 100.0

        def on_complete(transaction):
            if transaction is first:
                scheduler.enqueue(late)

        scheduler = DieScheduler((0, 0), SsdConfig.tiny(), events,
                                 service_time_fn=service_time,
                                 on_complete=on_complete)
        scheduler.enqueue(first)
        scheduler.enqueue(waiting)
        events.run()
        assert started == [first, waiting, late]
        assert waiting.service_start_us == 100.0
        assert late.service_start_us == 200.0


class TestReentrantStart:
    @pytest.mark.parametrize("waiting_reads", [0, 2])
    def test_work_enqueued_while_a_read_is_priced_waits_for_it(
            self, waiting_reads):
        # Pricing a read polls the fault injector, and a grown-bad-block
        # fault it activates enqueues relocation work onto the same die.
        # That work must wait for the read being started, whether the die
        # has other reads waiting or none: every transaction completes, and
        # the die never runs two at once.
        events = EventQueue()
        opener, first = (make_transaction(TransactionKind.READ)
                         for _ in range(2))
        waiting = [make_transaction(TransactionKind.READ)
                   for _ in range(waiting_reads)]
        relocation = make_transaction(TransactionKind.GC_READ)
        completed = []

        def service_time(transaction):
            if transaction is first:
                scheduler.enqueue(relocation)
            return 100.0

        scheduler = DieScheduler((0, 0), SsdConfig.tiny(), events,
                                 service_time_fn=service_time,
                                 on_complete=completed.append)
        for transaction in [opener, first, *waiting]:
            scheduler.enqueue(transaction)
        events.run()
        everything = [opener, first, *waiting, relocation]
        assert sorted(map(id, completed)) == sorted(map(id, everything))
        spans = sorted((transaction.service_start_us,
                        transaction.completion_us)
                       for transaction in completed)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end
        assert scheduler.completed_transactions == len(everything)
        assert scheduler.is_idle


class _QueueFirstScheduler(DieScheduler):
    """Oracle: every transaction passes through the queues before it
    starts, even on an idle die with both queues empty."""

    def enqueue(self, transaction):
        is_read = transaction.kind.is_read
        if is_read and self._read_priority:
            self.read_queue.append(transaction)
        else:
            self.write_queue.append(transaction)
        if self.current is None:
            self._start_next()
        elif (is_read and self._suspension
              and self._current_handle is not None):
            self._suspend_current()
            self._start_next()


_KINDS = st.sampled_from(list(TransactionKind))
_SERVICE_US = st.sampled_from([50.0, 100.0, 700.0, 5000.0])


def _replay(scheduler_class, config, arrivals):
    """Run one die over drawn arrivals; each arrival may enqueue follow-ups
    onto the same die from its completion callback."""
    events = EventQueue()
    service_us = {}
    followups = {}
    finished = []
    # Follow-ups are numbered as they are created, so two runs that
    # schedule alike number them alike.
    followup_ids = itertools.count(len(arrivals))

    def transaction_of(kind, issue_us, transaction_id, service):
        transaction = FlashTransaction(kind, 0, 0, 0, issue_us,
                                       transaction_id=transaction_id)
        service_us[transaction] = service
        return transaction

    def on_complete(transaction):
        finished.append(transaction)
        for kind, service in followups.pop(transaction, ()):
            scheduler.enqueue(transaction_of(kind, events.now_us,
                                             next(followup_ids), service))

    scheduler = scheduler_class((0, 0), config, events,
                                service_time_fn=service_us.__getitem__,
                                on_complete=on_complete)
    time_us = 0.0
    for index, (gap_us, kind, service, children) in enumerate(arrivals):
        time_us += gap_us
        transaction = transaction_of(kind, time_us, index, service)
        followups[transaction] = children
        events.schedule_call(time_us, scheduler.enqueue, transaction)
    events.run()
    return ([(transaction.transaction_id, transaction.service_start_us,
              transaction.completion_us) for transaction in finished],
            scheduler.total_busy_us, scheduler.suspensions,
            scheduler.completed_transactions)


class TestDirectStartMatchesQueueFirst:
    # Zero gaps, drawn twice as often, make simultaneous arrivals common.
    @given(st.booleans(), st.booleans(), st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 25.0, 100.0, 650.0]), _KINDS,
                  _SERVICE_US,
                  st.lists(st.tuples(_KINDS, _SERVICE_US), max_size=2)),
        min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_same_schedule_as_the_oracle(self, read_priority, suspension,
                                         arrivals):
        config = SsdConfig.tiny(read_priority=read_priority,
                                suspension=suspension)
        direct = _replay(DieScheduler, config, arrivals)
        assert direct == _replay(_QueueFirstScheduler, config, arrivals)
        assert direct[3] == len(arrivals) + sum(
            len(children) for *_, children in arrivals)

