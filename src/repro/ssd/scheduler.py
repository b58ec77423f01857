"""Per-die transaction scheduling.

The baseline SSD of Section 7.1 is a high-end device that already employs
two latency-hiding techniques orthogonal to read-retry:

* *out-of-order I/O scheduling* — reads overtake queued programs/erases at
  the same die, because read latency is what applications wait on;
* *program/erase suspension* — an in-flight program or erase is suspended
  when a read arrives, the read executes, and the suspended operation
  resumes afterwards.

Each die has one :class:`DieScheduler` holding a read queue and a
write/erase queue.  Service times are provided by the controller (they
depend on the read-retry policy); completion notifications flow back to the
controller, which updates request state, the write buffer and GC.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.ssd.config import SsdConfig
from repro.ssd.engine import EventHandle, EventQueue
from repro.ssd.request import FlashTransaction, TransactionKind

# The read-class kinds, tested by identity: an enum in a set pays a
# Python-level ``__hash__`` per transaction.  Every other kind (program,
# erase) is one a read may suspend, and only those need a cancellable
# completion event; read completions take the engine's handle-free path.
_READ = TransactionKind.READ
_GC_READ = TransactionKind.GC_READ
_TRANS_READ = TransactionKind.TRANS_READ


class DieScheduler:
    """Schedules the transactions of one die."""

    def __init__(self, die_key: tuple, config: SsdConfig, events: EventQueue,
                 service_time_fn: Callable[[FlashTransaction], float],
                 on_complete: Callable[[FlashTransaction], None]):
        self.die_key = die_key
        self.config = config
        self.events = events
        self.service_time_fn = service_time_fn
        self.on_complete = on_complete
        # Hot-path copies of the config flags (attribute-chain hoisting).
        self._read_priority = config.read_priority
        self._suspension = config.suspension
        self.read_queue: Deque[FlashTransaction] = deque()
        self.write_queue: Deque[FlashTransaction] = deque()
        #: The transaction the die is executing, or ``None`` when it is idle.
        #: The three slots below describe it and are meaningful only while
        #: it is set: when it started, how long it occupies the die, and
        #: the handle that cancels its completion (``None`` for the reads,
        #: which nothing suspends).
        self.current: Optional[FlashTransaction] = None
        self._current_start_us = 0.0
        self._current_service_us = 0.0
        self._current_handle: Optional[EventHandle] = None
        self.total_busy_us = 0.0
        self.completed_transactions = 0
        self.suspensions = 0

    # -- queueing -----------------------------------------------------------------
    def enqueue(self, transaction: FlashTransaction) -> None:
        """Add a transaction; may trigger immediate service or a suspension."""
        if (self.current is None and not self.read_queue
                and not self.write_queue):
            # An idle die with nothing queued serves the newcomer at once.
            # Queued work on an idle die (a completion callback enqueueing
            # before the die restarts) must go first, so it takes the
            # queue path below.
            self._start(transaction)
            return
        kind = transaction.kind
        is_read = kind is _READ or kind is _GC_READ or kind is _TRANS_READ
        if is_read and self._read_priority:
            self.read_queue.append(transaction)
        else:
            self.write_queue.append(transaction)

        if self.current is None:
            self._start_next()
        elif (is_read and self._suspension
              and self._current_handle is not None):
            # ``_start`` gives exactly the suspendable operations a handle.
            self._suspend_current()
            self._start_next()

    @property
    def queue_depth(self) -> int:
        return len(self.read_queue) + len(self.write_queue)

    @property
    def is_idle(self) -> bool:
        return self.current is None and self.queue_depth == 0

    # -- suspension ---------------------------------------------------------------
    def _suspend_current(self) -> None:
        """Suspend the in-flight program/erase so a read can run first."""
        transaction = self.current
        self._current_handle.cancel()
        now = self.events.now_us
        elapsed = max(0.0, now - self._current_start_us)
        remaining = max(0.0, self._current_service_us - elapsed)
        if transaction.kind is TransactionKind.ERASE:
            overhead = self.config.timing.erase_suspend_us
        else:
            overhead = self.config.timing.program_suspend_us
        transaction.remaining_service_us = remaining + overhead
        transaction.was_suspended = True
        self.total_busy_us += elapsed
        self.write_queue.appendleft(transaction)
        self.current = None
        self.suspensions += 1

    # -- dispatch ------------------------------------------------------------------
    def _start_next(self) -> None:
        if self.current is not None:
            return
        if self.read_queue:
            self._start(self.read_queue.popleft())
        elif self.write_queue:
            self._start(self.write_queue.popleft())

    def _start(self, transaction: FlashTransaction) -> None:
        # The die is busy before the transaction is priced.  Pricing a read
        # polls the fault injector, and a fault it activates may retire a
        # block and enqueue the relocation onto this die: that work must
        # queue behind this transaction, not start and be displaced.  With
        # no handle yet, such a read does not try to suspend it either.
        self.current = transaction
        self._current_handle = None
        events = self.events
        now = events.now_us
        remaining = transaction.remaining_service_us
        if remaining is not None:
            service = remaining
        else:
            service = self.service_time_fn(transaction)
        if transaction.service_start_us is None:
            transaction.service_start_us = now
        kind = transaction.kind
        if self._suspension and not (kind is _READ or kind is _GC_READ or kind is _TRANS_READ):
            # Only an operation a read may suspend needs a cancellable event.
            self._current_handle = events.schedule_call_after(
                service, self._complete, transaction)
        else:
            events.schedule_call(now + service, self._complete, transaction)
        self._current_start_us = now
        self._current_service_us = service

    def _complete(self, transaction: FlashTransaction) -> None:
        if self.current is not transaction:
            # A stale completion (the operation was suspended); ignore it.
            return
        self.total_busy_us += self._current_service_us
        transaction.completion_us = self.events.now_us
        self.current = None
        self.completed_transactions += 1
        self.on_complete(transaction)
        self._start_next()
