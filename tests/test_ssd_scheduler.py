"""Tests for the per-die transaction lifecycle: read priority and
program/erase suspension.

The controller runs every die itself (``SsdSimulator._enqueue``,
``_start``, ``_suspend`` and ``_complete`` over
:class:`repro.ssd.scheduler.DieState` records), and a transaction is the
controller's plain tuple ``(kind, packed, progress, remaining_us)``.  These
tests drive that lifecycle on die 0 of a simulator whose read pricing is
stubbed, and keep :class:`DieScheduler`, the callback-driven scheduler the
lifecycle replaced, as the reference oracle of the hypothesis property at
the end.
"""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator, _ReadProgress
from repro.ssd.engine import EventQueue
from repro.ssd.request import HostRequest, RequestKind, TransactionKind

READ = TransactionKind.READ
GC_READ = TransactionKind.GC_READ
PROGRAM = TransactionKind.PROGRAM
GC_PROGRAM = TransactionKind.GC_PROGRAM
ERASE = TransactionKind.ERASE
TRANS_READ = TransactionKind.TRANS_READ
#: The kinds the oracle gives read priority and lets suspend a program or
#: erase.
READ_KINDS = frozenset({READ, GC_READ, TRANS_READ})

READ_US = 100.0
PROGRAM_US = 700.0
ERASE_US = 5000.0


def idle(die):
    return die.running is None and not die.read_queue and not die.write_queue


def operation(kind, op_id):
    """The controller's transaction tuple, with ``op_id`` as its packed
    index: the harness stubs read pricing, and a translation read's price
    does not depend on its page.  A host read carries a one-page read's
    completion record, as every host read page does."""
    progress = (_ReadProgress(HostRequest(0.0, RequestKind.READ, 0))
                if kind is READ else None)
    return (kind, op_id, progress, None)


class Lifecycle:
    """Die 0 of a simulator, its read pricing stubbed out.

    Reads and GC reads cost ``read_us(op_id)``; programs, erases and
    translation reads cost the controller's constants, set here.  The
    harness keeps its own record of the tuples it sees, by wrapping
    ``_start``, ``_suspend`` and ``_complete``: ``started`` maps each id to
    its first start, ``completed`` lists ``(id, start, completion)`` as
    transactions complete, and ``suspended`` lists the tuple each
    suspension puts back at the head of the write queue.
    ``on_program_complete(op_id)`` runs where a host program's completion
    releases its write-buffer slot, the one completion that enqueues flash
    work directly (waiting writes and garbage collection).  A host read's
    last page finishes its request through ``_finish_read``, which the
    harness skips: its request is a stand-in.
    """

    def __init__(self, config=None, read_us=None, on_program_complete=None,
                 program_us=PROGRAM_US, erase_us=ERASE_US,
                 trans_read_us=READ_US):
        simulator = SsdSimulator(config or SsdConfig.tiny())
        simulator._program_us = program_us
        simulator._erase_us = erase_us
        simulator._trans_read_us = (trans_read_us,) * 3
        price = read_us or (lambda op_id: READ_US)
        simulator._read_service_time = lambda die, packed: price(packed)
        simulator._finish_read = lambda progress: None
        self.started = {}
        self.completed = []
        self.suspended = []
        start = simulator._start
        suspend = simulator._suspend
        complete = simulator._complete

        def record_start(die, transaction):
            self.started.setdefault(transaction[1], self.events.now_us)
            start(die, transaction)

        def record_suspend(die):
            suspend(die)
            self.suspended.append(die.write_queue[0])

        def record_complete(die):
            op_id = die.running[1]
            self.completed.append(
                (op_id, self.started[op_id], self.events.now_us))
            complete(die)

        def release():
            if on_program_complete is not None:
                on_program_complete(self.completed[-1][0])

        simulator._start = record_start
        simulator._suspend = record_suspend
        simulator._complete = record_complete
        simulator._release_host_program = release
        self.simulator = simulator
        self.events = simulator.events
        self.die = simulator._dies[0]

    def enqueue(self, transaction):
        self.simulator._enqueue(0, transaction)

    def enqueue_at(self, time_us, transaction):
        self.events.schedule_call(time_us, self.enqueue, transaction)

    def run(self):
        self.events.run()

    def order(self):
        """Ids in completion order."""
        return [op_id for op_id, _, _ in self.completed]

    def completion_us(self, op_id):
        return next(end for done, _, end in self.completed if done == op_id)


class TestBasicScheduling:
    def test_single_transaction_completes(self):
        die = Lifecycle()
        die.enqueue(operation(READ, 1))
        die.run()
        assert die.completed == [(1, 0.0, pytest.approx(READ_US))]
        assert idle(die.die)

    def test_reads_overtake_queued_programs(self):
        # Out-of-order I/O scheduling: a read enqueued behind programs is
        # served as soon as the die becomes free, before the programs.
        die = Lifecycle(SsdConfig.tiny(suspension=False))
        die.enqueue(operation(PROGRAM, 1))
        die.enqueue(operation(PROGRAM, 2))
        die.enqueue_at(10.0, operation(READ, 3))
        die.run()
        assert die.order() == [1, 3, 2]

    def test_fifo_without_read_priority(self):
        die = Lifecycle(SsdConfig.tiny(read_priority=False, suspension=False))
        die.enqueue(operation(PROGRAM, 1))
        die.enqueue(operation(PROGRAM, 2))
        die.enqueue_at(10.0, operation(READ, 3))
        die.run()
        assert die.order() == [1, 2, 3]

    def test_busy_time_accounting(self):
        die = Lifecycle()
        die.enqueue(operation(READ, 1))
        die.enqueue(operation(READ, 2))
        die.enqueue(operation(TRANS_READ, 3))
        die.run()
        assert die.die.total_busy_us == pytest.approx(3 * READ_US)
        assert die.die.completed_transactions == 3
        assert die.simulator.schedulers[(0, 0)] is die.die


class TestSuspension:
    @pytest.mark.parametrize("kind", [PROGRAM, GC_PROGRAM])
    def test_read_suspends_inflight_program(self, kind):
        die = Lifecycle()
        die.enqueue(operation(kind, 1))
        die.enqueue_at(200.0, operation(READ, 2))
        die.run()
        # The read finishes long before the program would have (at 700 us),
        # and the program's first completion never runs.
        assert die.order() == [2, 1]
        assert die.completion_us(2) == pytest.approx(300.0)
        # The program goes back to the head of the write queue once, with
        # the remaining time plus the suspension overhead, and pays it.
        overhead = SsdConfig.tiny().timing.program_suspend_us
        assert die.suspended == [
            (kind, 1, None, pytest.approx((PROGRAM_US - 200.0) + overhead))]
        assert die.completion_us(1) == pytest.approx(
            300.0 + (PROGRAM_US - 200.0) + overhead)
        assert die.die.suspensions == 1
        assert die.die.total_busy_us == pytest.approx(
            PROGRAM_US + READ_US + overhead)
        assert not die.events.heap and not die.events.cancelled

    def test_erase_suspension_uses_erase_overhead(self):
        die = Lifecycle()
        die.enqueue(operation(ERASE, 1))
        die.enqueue_at(1000.0, operation(READ, 2))
        die.run()
        overhead = SsdConfig.tiny().timing.erase_suspend_us
        assert die.suspended == [
            (ERASE, 1, None, pytest.approx((ERASE_US - 1000.0) + overhead))]
        expected = 1000.0 + READ_US + (ERASE_US - 1000.0) + overhead
        assert die.completion_us(1) == pytest.approx(expected)
        assert die.order() == [2, 1]

    def test_program_suspended_only_once(self):
        die = Lifecycle()
        die.enqueue(operation(PROGRAM, 1))
        die.enqueue_at(100.0, operation(READ, 2))
        die.enqueue_at(150.0, operation(READ, 3))
        die.run()
        assert die.die.suspensions == 1
        assert [suspended[1] for suspended in die.suspended] == [1]
        assert len(die.completed) == 3
        assert die.order()[-1] == 1

    def test_no_suspension_when_disabled(self):
        die = Lifecycle(SsdConfig.tiny(suspension=False))
        die.enqueue(operation(PROGRAM, 1))
        die.enqueue_at(100.0, operation(READ, 2))
        die.run()
        # The read waits for the full program.
        assert die.started[2] == pytest.approx(PROGRAM_US)
        assert die.die.suspensions == 0
        assert die.suspended == []

    def test_read_does_not_suspend_read(self):
        die = Lifecycle()
        die.enqueue(operation(READ, 1))
        die.enqueue_at(10.0, operation(READ, 2))
        die.run()
        assert die.started[2] == pytest.approx(READ_US)
        assert die.die.suspensions == 0


class TestDirectStart:
    def test_idle_die_starts_a_newcomer_without_queueing_it(self):
        die = Lifecycle()
        program = operation(PROGRAM, 1)
        die.enqueue(program)
        assert die.die.running is program
        assert not die.die.read_queue and not die.die.write_queue
        assert die.started == {1: 0.0}

    def test_completion_enqueue_waits_behind_queued_work(self):
        # A host program's completion enqueues onto its own die while
        # another transaction waits there: the die is idle but not empty,
        # and the waiting transaction must start first.
        started = []

        def read_us(op_id):
            started.append(op_id)
            return READ_US

        def on_program_complete(op_id):
            if op_id == 1:
                die.enqueue(operation(READ, 3))

        die = Lifecycle(SsdConfig.tiny(suspension=False), read_us=read_us,
                        on_program_complete=on_program_complete)
        die.enqueue(operation(PROGRAM, 1))
        die.enqueue(operation(READ, 2))
        die.run()
        assert started == [2, 3]
        assert die.started[2] == PROGRAM_US
        assert die.started[3] == PROGRAM_US + READ_US


class TestReentrantStart:
    @pytest.mark.parametrize("waiting_reads", [0, 2])
    def test_work_enqueued_while_a_read_is_priced_waits_for_it(
            self, waiting_reads):
        # Pricing a read polls the fault injector, and a grown-bad-block
        # fault it activates enqueues relocation work onto the same die.
        # That work must wait for the read being started, whether the die
        # has other reads waiting or none: every transaction completes, and
        # the die never runs two at once.
        relocation = 99

        def read_us(op_id):
            if op_id == 1:
                die.enqueue(operation(GC_READ, relocation))
            return READ_US

        die = Lifecycle(read_us=read_us)
        reads = [0, 1, *range(2, 2 + waiting_reads)]
        for op_id in reads:
            die.enqueue(operation(READ, op_id))
        die.run()
        assert sorted(die.order()) == sorted([*reads, relocation])
        spans = sorted((start, end) for _, start, end in die.completed)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end
        assert die.die.completed_transactions == len(reads) + 1
        assert idle(die.die)


class OracleTransaction:
    """The oracle's own record of one transaction."""

    __slots__ = ("kind", "transaction_id", "service_start_us",
                 "completion_us", "remaining_service_us")

    def __init__(self, kind, transaction_id):
        self.kind = kind
        self.transaction_id = transaction_id
        self.service_start_us = None
        self.completion_us = None
        self.remaining_service_us = None


class DieScheduler:
    """Oracle: the callback-driven scheduler of one die, kept from before
    the controller ran its dies itself.  It asks ``service_time_fn`` for
    every transaction's service time and reports each completion to
    ``on_complete``; every transaction passes through the queues before it
    starts, even on an idle die with both queues empty.  ``suspended``
    lists ``(transaction_id, remaining_service_us)`` per suspension."""

    def __init__(self, config, events, service_time_fn, on_complete):
        self.events = events
        self.service_time_fn = service_time_fn
        self.on_complete = on_complete
        self.timing = config.timing
        self.read_priority = config.read_priority
        self.suspension = config.suspension
        self.read_queue = deque()
        self.write_queue = deque()
        self.current = None
        self.current_start_us = 0.0
        self.current_service_us = 0.0
        self.current_sequence = None
        self.total_busy_us = 0.0
        self.completed_transactions = 0
        self.suspensions = 0
        self.suspended = []

    def enqueue(self, transaction):
        is_read = transaction.kind in READ_KINDS
        if is_read and self.read_priority:
            self.read_queue.append(transaction)
        else:
            self.write_queue.append(transaction)
        if self.current is None:
            self._start_next()
        elif is_read and self.current_sequence is not None:
            self._suspend_current()
            self._start_next()

    def _suspend_current(self):
        transaction = self.current
        self.events.cancel(self.current_sequence)
        elapsed = max(0.0, self.events.now_us - self.current_start_us)
        remaining = max(0.0, self.current_service_us - elapsed)
        if transaction.kind is ERASE:
            overhead = self.timing.erase_suspend_us
        else:
            overhead = self.timing.program_suspend_us
        transaction.remaining_service_us = remaining + overhead
        self.suspended.append((transaction.transaction_id,
                               transaction.remaining_service_us))
        self.total_busy_us += elapsed
        self.write_queue.appendleft(transaction)
        self.current = None
        self.suspensions += 1

    def _start_next(self):
        if self.current is not None:
            return
        if self.read_queue:
            self._start(self.read_queue.popleft())
        elif self.write_queue:
            self._start(self.write_queue.popleft())

    def _start(self, transaction):
        self.current = transaction
        self.current_sequence = None
        now = self.events.now_us
        remaining = transaction.remaining_service_us
        if remaining is not None:
            service = remaining
        else:
            service = self.service_time_fn(transaction)
        if transaction.service_start_us is None:
            transaction.service_start_us = now
        sequence = self.events.schedule_call(now + service, self._complete,
                                             transaction)
        if self.suspension and transaction.kind not in READ_KINDS:
            self.current_sequence = sequence
        self.current_start_us = now
        self.current_service_us = service

    def _complete(self, transaction):
        self.total_busy_us += self.current_service_us
        transaction.completion_us = self.events.now_us
        self.current = None
        self.completed_transactions += 1
        self.on_complete(transaction)
        self._start_next()


_KINDS = st.sampled_from(list(TransactionKind))
_SERVICE_US = st.sampled_from([50.0, 100.0, 700.0, 5000.0])


def _replay(config, arrivals, constants, oracle):
    """Run die 0 over drawn arrivals, through the controller or the
    oracle.  A host program's completion may enqueue drawn follow-ups onto
    the same die, as admitting waiting writes or collecting garbage does.

    Reads and GC reads cost their drawn service time; every other kind
    costs the controller's constant for it, as the controller prices it.
    Each side builds its own record of a ``(kind, id)`` arrival.
    """
    program_us, erase_us, trans_read_us = constants
    service_us = {}
    followups = {}
    # Follow-ups are numbered as they are created, so two runs that
    # schedule alike number them alike.
    followup_ids = itertools.count(len(arrivals))

    def enqueue_followups(op_id):
        for kind, service in followups.pop(op_id, ()):
            child = next(followup_ids)
            service_us[child] = service
            enqueue((kind, child))

    if oracle:
        events = EventQueue()
        finished = []

        def service_of(transaction):
            kind = transaction.kind
            if kind is READ or kind is GC_READ:
                return service_us[transaction.transaction_id]
            if kind is TRANS_READ:
                return trans_read_us
            return erase_us if kind is ERASE else program_us

        def on_complete(transaction):
            finished.append((transaction.transaction_id,
                             transaction.service_start_us,
                             transaction.completion_us))
            if transaction.kind is PROGRAM:
                enqueue_followups(transaction.transaction_id)

        die = DieScheduler(config, events, service_of, on_complete)

        def enqueue(arrival):
            die.enqueue(OracleTransaction(*arrival))
    else:
        lifecycle = Lifecycle(config, read_us=service_us.__getitem__,
                              on_program_complete=enqueue_followups,
                              program_us=program_us, erase_us=erase_us,
                              trans_read_us=trans_read_us)
        events = lifecycle.events
        finished = lifecycle.completed
        die = lifecycle.die

        def enqueue(arrival):
            lifecycle.enqueue(operation(*arrival))
    time_us = 0.0
    for index, (gap_us, kind, service, children) in enumerate(arrivals):
        time_us += gap_us
        service_us[index] = service
        followups[index] = children
        events.schedule_call(time_us, enqueue, (kind, index))
    events.run()
    if oracle:
        suspended = die.suspended
    else:
        suspended = [(op_id, remaining_us)
                     for _, op_id, _, remaining_us in lifecycle.suspended]
    return (finished, suspended, die.total_busy_us, die.suspensions,
            die.completed_transactions)


class TestLifecycleMatchesTheOracle:
    # Zero gaps, drawn twice as often, make simultaneous arrivals common.
    @given(st.booleans(), st.booleans(),
           st.tuples(_SERVICE_US, _SERVICE_US, _SERVICE_US),
           st.lists(
               st.tuples(st.sampled_from([0.0, 0.0, 25.0, 100.0, 650.0]),
                         _KINDS, _SERVICE_US,
                         st.lists(st.tuples(_KINDS, _SERVICE_US),
                                  max_size=2)),
               min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_same_schedule_as_the_oracle(self, read_priority, suspension,
                                         constants, arrivals):
        config = SsdConfig.tiny(read_priority=read_priority,
                                suspension=suspension)
        lifecycle = _replay(config, arrivals, constants, oracle=False)
        assert lifecycle == _replay(config, arrivals, constants, oracle=True)
        # Every arrival completes, and so does every follow-up of a host
        # program, the one kind whose completion enqueues them.
        assert lifecycle[4] == len(arrivals) + sum(
            len(children) for _, kind, _, children in arrivals
            if kind is PROGRAM)
