"""Discrete-event simulation core.

A deliberately small event engine: a heap of plain ``(time_us, sequence,
callback, argument)`` tuples, compared in C and never through a Python
``__lt__``.  Running an event pops its tuple and calls
``callback(argument)``; nothing else is allocated per event.  The sequence
is drawn from one counter (:attr:`EventQueue.sequence`) by every site that
pushes, :meth:`EventQueue.schedule_batch` included, so equal timestamps run
in scheduling order and the comparison never reaches the callback.

The controller pushes its flash-transaction completions straight onto
:attr:`EventQueue.heap`, drawing their sequence from the same counter.  A
program or erase that a read suspends is cancelled by its sequence number
through :meth:`EventQueue.cancel`: the number goes into
:attr:`EventQueue.cancelled`, and :meth:`run` skips and forgets the entry
when it pops it.  Only a pending event is ever
cancelled, so ``len(events)`` is exactly ``len(heap) - len(cancelled)``.

:meth:`EventQueue.schedule` keeps the no-argument form ``callback()`` for
tests and benchmarks: it pushes the :func:`_call` trampoline as the
callback and the no-argument callable as the argument, so only those
events pay for the extra frame.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, List, Set, Tuple

#: Batch size beyond which a bulk push re-heapifies instead of sifting each
#: entry individually.  ``heapify`` is O(heap), a push is O(log heap); with
#: the admission pump's 64-request windows the crossover sits well below a
#: full-window refill and well above the steady-state single admission.
_HEAPIFY_THRESHOLD = 16


def _call(callback: Callable[[], None]) -> None:
    """Run a no-argument event (``operator.call`` needs Python 3.11)."""
    callback()


class EventQueue:
    """A time-ordered queue of callbacks."""

    def __init__(self):
        #: Heap of ``(time_us, sequence, callback, argument)`` tuples.
        self.heap: List[Tuple[float, int, Callable, object]] = []
        #: The one sequence counter every push draws from: ``next(sequence)``.
        self.sequence = itertools.count()
        #: Sequences of pending events that must not run.
        self.cancelled: Set[int] = set()
        #: Current simulation time in microseconds, advanced by :meth:`run`.
        self.now_us = 0.0

    def __len__(self) -> int:
        return len(self.heap) - len(self.cancelled)

    # -- scheduling -----------------------------------------------------------
    def schedule(self, time_us: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback()`` at ``time_us``; returns the event's sequence."""
        return self.schedule_call(time_us, _call, callback)

    def schedule_call(self, time_us: float, callback: Callable, argument) -> int:
        """Schedule ``callback(argument)`` at ``time_us``; returns the event's sequence."""
        if time_us < self.now_us - 1e-9:
            raise ValueError(f"cannot schedule event at {time_us} before now ({self.now_us})")
        sequence = next(self.sequence)
        heapq.heappush(self.heap, (time_us, sequence, callback, argument))
        return sequence

    def schedule_batch(self, callback: Callable, timed_arguments: Iterable) -> None:
        """Bulk-push ``callback(argument)`` events from ``(time_us, argument)`` pairs.

        Arguments are assigned their sequence numbers in iteration order, so
        ties between batch entries (and against previously scheduled events)
        break exactly as if each pair had been pushed individually.  Large
        batches restore the heap invariant with one ``heapify`` pass instead
        of per-entry sift-ups; both strategies yield the same pop order
        because the heap entries are totally ordered tuples.
        """
        heap = self.heap
        sequence = self.sequence
        floor_us = self.now_us - 1e-9
        entries = []
        for time_us, argument in timed_arguments:
            if time_us < floor_us:
                raise ValueError(f"cannot schedule event at {time_us} before now ({self.now_us})")
            entries.append((time_us, next(sequence), callback, argument))
        if len(entries) > _HEAPIFY_THRESHOLD:
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)

    def cancel(self, sequence: int) -> None:
        """Stop the pending event ``sequence`` from running.

        The event must still be pending: a cancelled sequence stays in
        :attr:`cancelled` until :meth:`run` pops its entry, and ``len``
        counts it out of the heap.
        """
        self.cancelled.add(sequence)

    # -- execution ------------------------------------------------------------
    def run(self) -> int:
        """Run events until none is left; returns how many ran."""
        heap = self.heap
        cancelled = self.cancelled
        heappop = heapq.heappop
        executed = 0
        while heap:
            time_us, sequence, callback, argument = heappop(heap)
            if sequence in cancelled:
                cancelled.discard(sequence)
                continue
            self.now_us = time_us
            callback(argument)
            executed += 1
        return executed
