"""Tests for the per-die transaction lifecycle: read priority and
program/erase suspension.

The controller runs every die itself (``SsdSimulator._enqueue``,
``_start``, ``_suspend`` and ``_complete`` over
:class:`repro.ssd.scheduler.DieState` records).  These tests drive that
lifecycle on die 0 of a simulator whose read pricing is stubbed, and keep
:class:`DieScheduler`, the callback-driven scheduler the lifecycle
replaced, as the reference oracle of the hypothesis property at the end.
"""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.engine import EventQueue
from repro.ssd.request import FlashTransaction, TransactionKind

READ = TransactionKind.READ
GC_READ = TransactionKind.GC_READ
PROGRAM = TransactionKind.PROGRAM
GC_PROGRAM = TransactionKind.GC_PROGRAM
ERASE = TransactionKind.ERASE

READ_US = 100.0
PROGRAM_US = 700.0
ERASE_US = 5000.0


def idle(die):
    return die.running is None and not die.read_queue and not die.write_queue


def make_transaction(kind, issue_us=0.0, transaction_id=None):
    return FlashTransaction(kind=kind, lpn=0, packed=0, die=0,
                            issue_us=issue_us, transaction_id=transaction_id)


class Lifecycle:
    """Die 0 of a simulator, its read pricing stubbed out.

    Reads and GC reads cost ``read_us(transaction)``; programs, erases and
    translation reads cost the controller's constants, set here.
    ``completed`` lists transactions as they complete, and
    ``on_program_complete(transaction)`` runs where a host program's
    completion releases its write-buffer slot, the one completion that
    enqueues flash work directly (waiting writes and garbage collection).
    """

    def __init__(self, config=None, read_us=None, on_program_complete=None,
                 program_us=PROGRAM_US, erase_us=ERASE_US,
                 trans_read_us=READ_US):
        simulator = SsdSimulator(config or SsdConfig.tiny())
        simulator._program_us = program_us
        simulator._erase_us = erase_us
        simulator._trans_read_us = (trans_read_us,) * 3
        simulator._read_service_time = read_us or (lambda transaction: READ_US)
        self.completed = []
        complete = simulator._complete

        def record(transaction):
            self.completed.append(transaction)
            complete(transaction)

        def release():
            if on_program_complete is not None:
                on_program_complete(self.completed[-1])

        simulator._complete = record
        simulator._release_host_program = release
        self.simulator = simulator
        self.events = simulator.events
        self.die = simulator._dies[0]

    def enqueue(self, transaction):
        self.simulator._enqueue(transaction)

    def enqueue_at(self, time_us, transaction):
        self.events.schedule_call(time_us, self.simulator._enqueue, transaction)

    def run(self):
        self.events.run()


class TestBasicScheduling:
    def test_single_transaction_completes(self):
        die = Lifecycle()
        read = make_transaction(READ)
        die.enqueue(read)
        die.run()
        assert die.completed == [read]
        assert read.service_start_us == 0.0
        assert read.completion_us == pytest.approx(READ_US)
        assert idle(die.die)

    def test_reads_overtake_queued_programs(self):
        # Out-of-order I/O scheduling: a read enqueued behind programs is
        # served as soon as the die becomes free, before the programs.
        die = Lifecycle(SsdConfig.tiny(suspension=False))
        first_program = make_transaction(PROGRAM)
        second_program = make_transaction(PROGRAM)
        read = make_transaction(READ)
        die.enqueue(first_program)
        die.enqueue(second_program)
        die.enqueue_at(10.0, read)
        die.run()
        assert die.completed == [first_program, read, second_program]

    def test_fifo_without_read_priority(self):
        die = Lifecycle(SsdConfig.tiny(read_priority=False, suspension=False))
        first_program = make_transaction(PROGRAM)
        second_program = make_transaction(PROGRAM)
        read = make_transaction(READ)
        die.enqueue(first_program)
        die.enqueue(second_program)
        die.enqueue_at(10.0, read)
        die.run()
        assert die.completed == [first_program, second_program, read]

    def test_busy_time_accounting(self):
        die = Lifecycle()
        die.enqueue(make_transaction(READ))
        die.enqueue(make_transaction(READ))
        die.enqueue(make_transaction(TransactionKind.TRANS_READ))
        die.run()
        assert die.die.total_busy_us == pytest.approx(3 * READ_US)
        assert die.die.completed_transactions == 3
        assert die.simulator.schedulers[(0, 0)] is die.die


class TestSuspension:
    @pytest.mark.parametrize("kind", [PROGRAM, GC_PROGRAM])
    def test_read_suspends_inflight_program(self, kind):
        die = Lifecycle()
        program = make_transaction(kind)
        read = make_transaction(READ)
        die.enqueue(program)
        die.enqueue_at(200.0, read)
        die.run()
        # The read finishes long before the program would have (at 700 us),
        # and the program's first completion never runs.
        assert die.completed == [read, program]
        assert read.completion_us == pytest.approx(300.0)
        # The program pays the remaining time plus the suspension overhead.
        overhead = SsdConfig.tiny().timing.program_suspend_us
        assert program.completion_us == pytest.approx(
            300.0 + (PROGRAM_US - 200.0) + overhead)
        assert program.was_suspended
        assert die.die.suspensions == 1
        assert die.die.total_busy_us == pytest.approx(
            PROGRAM_US + READ_US + overhead)
        assert not die.events.heap and not die.events.cancelled

    def test_erase_suspension_uses_erase_overhead(self):
        die = Lifecycle()
        erase = make_transaction(ERASE)
        read = make_transaction(READ)
        die.enqueue(erase)
        die.enqueue_at(1000.0, read)
        die.run()
        expected = (1000.0 + READ_US + (ERASE_US - 1000.0)
                    + SsdConfig.tiny().timing.erase_suspend_us)
        assert erase.completion_us == pytest.approx(expected)
        assert die.completed == [read, erase]

    def test_program_suspended_only_once(self):
        die = Lifecycle()
        program = make_transaction(PROGRAM)
        die.enqueue(program)
        die.enqueue_at(100.0, make_transaction(READ))
        die.enqueue_at(150.0, make_transaction(READ))
        die.run()
        assert die.die.suspensions == 1
        assert len(die.completed) == 3
        assert die.completed[-1] is program

    def test_no_suspension_when_disabled(self):
        die = Lifecycle(SsdConfig.tiny(suspension=False))
        program = make_transaction(PROGRAM)
        read = make_transaction(READ)
        die.enqueue(program)
        die.enqueue_at(100.0, read)
        die.run()
        # The read waits for the full program.
        assert read.service_start_us == pytest.approx(PROGRAM_US)
        assert die.die.suspensions == 0

    def test_read_does_not_suspend_read(self):
        die = Lifecycle()
        first = make_transaction(READ)
        second = make_transaction(READ)
        die.enqueue(first)
        die.enqueue_at(10.0, second)
        die.run()
        assert second.service_start_us == pytest.approx(READ_US)
        assert die.die.suspensions == 0


class TestDirectStart:
    def test_idle_die_starts_a_newcomer_without_queueing_it(self):
        die = Lifecycle()
        program = make_transaction(PROGRAM)
        die.enqueue(program)
        assert die.die.running is program
        assert not die.die.read_queue and not die.die.write_queue
        assert program.service_start_us == 0.0

    def test_completion_enqueue_waits_behind_queued_work(self):
        # A host program's completion enqueues onto its own die while
        # another transaction waits there: the die is idle but not empty,
        # and the waiting transaction must start first.
        first = make_transaction(PROGRAM)
        waiting, late = make_transaction(READ), make_transaction(READ)
        started = []

        def read_us(transaction):
            started.append(transaction)
            return READ_US

        def on_program_complete(transaction):
            if transaction is first:
                die.enqueue(late)

        die = Lifecycle(SsdConfig.tiny(suspension=False), read_us=read_us,
                        on_program_complete=on_program_complete)
        die.enqueue(first)
        die.enqueue(waiting)
        die.run()
        assert started == [waiting, late]
        assert waiting.service_start_us == PROGRAM_US
        assert late.service_start_us == PROGRAM_US + READ_US


class TestReentrantStart:
    @pytest.mark.parametrize("waiting_reads", [0, 2])
    def test_work_enqueued_while_a_read_is_priced_waits_for_it(
            self, waiting_reads):
        # Pricing a read polls the fault injector, and a grown-bad-block
        # fault it activates enqueues relocation work onto the same die.
        # That work must wait for the read being started, whether the die
        # has other reads waiting or none: every transaction completes, and
        # the die never runs two at once.
        opener, first = make_transaction(READ), make_transaction(READ)
        waiting = [make_transaction(READ) for _ in range(waiting_reads)]
        relocation = make_transaction(GC_READ)

        def read_us(transaction):
            if transaction is first:
                die.enqueue(relocation)
            return READ_US

        die = Lifecycle(read_us=read_us)
        for transaction in [opener, first, *waiting]:
            die.enqueue(transaction)
        die.run()
        everything = [opener, first, *waiting, relocation]
        assert sorted(map(id, die.completed)) == sorted(map(id, everything))
        spans = sorted((transaction.service_start_us,
                        transaction.completion_us)
                       for transaction in die.completed)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end
        assert die.die.completed_transactions == len(everything)
        assert idle(die.die)


class DieScheduler:
    """Oracle: the callback-driven scheduler of one die, kept from before
    the controller ran its dies itself.  It asks ``service_time_fn`` for
    every transaction's service time and reports each completion to
    ``on_complete``; every transaction passes through the queues before it
    starts, even on an idle die with both queues empty."""

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

    def enqueue(self, transaction):
        is_read = transaction.kind.is_read
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
        transaction.was_suspended = True
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
        if self.suspension and not transaction.kind.is_read:
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
    """
    program_us, erase_us, trans_read_us = constants
    service_us = {}
    followups = {}
    finished = []
    # Follow-ups are numbered as they are created, so two runs that
    # schedule alike number them alike.
    followup_ids = itertools.count(len(arrivals))

    def service_of(transaction):
        kind = transaction.kind
        if kind is READ or kind is GC_READ:
            return service_us[transaction]
        if kind is TransactionKind.TRANS_READ:
            return trans_read_us
        return erase_us if kind is ERASE else program_us

    def enqueue_followups(transaction):
        for kind, service in followups.pop(transaction, ()):
            child = make_transaction(kind, events.now_us, next(followup_ids))
            service_us[child] = service
            enqueue(child)

    if oracle:
        events = EventQueue()

        def on_complete(transaction):
            finished.append(transaction)
            if transaction.kind is PROGRAM:
                enqueue_followups(transaction)

        die = DieScheduler(config, events, service_of, on_complete)
        enqueue = die.enqueue
    else:
        lifecycle = Lifecycle(config, read_us=service_of,
                              on_program_complete=enqueue_followups,
                              program_us=program_us, erase_us=erase_us,
                              trans_read_us=trans_read_us)
        events = lifecycle.events
        finished = lifecycle.completed
        enqueue = lifecycle.enqueue
        die = lifecycle.die
    time_us = 0.0
    for index, (gap_us, kind, service, children) in enumerate(arrivals):
        time_us += gap_us
        transaction = make_transaction(kind, time_us, index)
        service_us[transaction] = service
        followups[transaction] = children
        events.schedule_call(time_us, enqueue, transaction)
    events.run()
    return ([(transaction.transaction_id, transaction.service_start_us,
              transaction.completion_us) for transaction in finished],
            die.total_busy_us, die.suspensions, die.completed_transactions)


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
        assert lifecycle[3] == len(arrivals) + sum(
            len(children) for _, kind, _, children in arrivals
            if kind is PROGRAM)
