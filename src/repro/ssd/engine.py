"""Discrete-event simulation core.

A deliberately small event engine: a priority queue of timestamped events,
each carrying a callback.  Events can be cancelled (lazily) which is how the
die scheduler implements program/erase suspension — the original completion
event of a suspended operation is invalidated and a new one is scheduled for
the extended completion time.

The queue is *array-backed*: the heap holds plain ``(time_us, sequence,
slot)`` tuples (compared in C, never through a Python ``__lt__``) and the
callback payloads live in parallel slot lists recycled through a free list,
so a steady-state run allocates O(live events), not O(trace) heap objects.
Cancellation is a generation check — a slot whose stored sequence no longer
matches the popped entry is stale and is skipped — which keeps
:class:`EventHandle` allocation off the hot path entirely: only callers that
may cancel (the die scheduler's suspendable operations) ask for a handle.
Tie-breaking is unchanged from the object-heap implementation: equal
timestamps run in scheduling order, because the monotonically increasing
sequence is the second tuple element.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Sentinel argument for events scheduled through the no-argument
#: :meth:`EventQueue.schedule` compatibility surface.
_NO_ARG = object()

#: Slot-generation value marking a free (or cancelled) slot.
_FREE = -1

#: Batch size beyond which a bulk push re-heapifies instead of sifting each
#: entry individually.  ``heapify`` is O(heap), a push is O(log heap); with
#: the admission pump's 64-request windows the crossover sits well below a
#: full-window refill and well above the steady-state single admission.
_HEAPIFY_THRESHOLD = 16


class EventHandle:
    """Handle returned by the scheduling methods, used to cancel events."""

    __slots__ = ("_queue", "_slot", "_sequence", "_time_us", "_cancelled")

    def __init__(self, queue: "EventQueue", slot: int, sequence: int, time_us: float):
        self._queue = queue
        self._slot = slot
        self._sequence = sequence
        self._time_us = time_us
        self._cancelled = False

    def cancel(self) -> None:
        # Cancelling an event that already ran (or was cancelled before)
        # must stay a no-op, and must not touch the live-event counter.  An
        # executed or recycled slot no longer carries this handle's
        # sequence, so the generation check covers both cases.
        queue = self._queue
        if queue._slot_sequence[self._slot] == self._sequence:
            queue._slot_sequence[self._slot] = _FREE
            queue._slot_callback[self._slot] = None
            queue._slot_argument[self._slot] = None
            queue._live -= 1
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time_us(self) -> float:
        return self._time_us


class EventQueue:
    """A time-ordered queue of callbacks."""

    def __init__(self):
        #: Heap of ``(time_us, sequence, slot)`` tuples.
        self._heap: List[Tuple[float, int, int]] = []
        self._next_sequence = 0
        #: Current simulation time in microseconds.  A plain attribute, not
        #: a property: the read path reads it several times per transaction,
        #: and only :meth:`run` and :meth:`step` advance it.
        self.now_us = 0.0
        # Live (non-cancelled, not-yet-run) event count, maintained on
        # schedule/cancel/pop so __len__ is O(1) instead of a heap scan.
        self._live = 0
        # Slot pool (structure-of-arrays): the sequence currently occupying
        # each slot (_FREE when vacant), its callback and its argument.
        self._slot_sequence: List[int] = []
        self._slot_callback: List[Optional[Callable]] = []
        self._slot_argument: List[object] = []
        self._free_slots: List[int] = []

    def __len__(self) -> int:
        return self._live

    # -- slot pool ------------------------------------------------------------
    def _acquire_slot(self, callback: Callable, argument) -> Tuple[int, int]:
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        free_slots = self._free_slots
        if free_slots:
            slot = free_slots.pop()
            self._slot_sequence[slot] = sequence
            self._slot_callback[slot] = callback
            self._slot_argument[slot] = argument
        else:
            slot = len(self._slot_sequence)
            self._slot_sequence.append(sequence)
            self._slot_callback.append(callback)
            self._slot_argument.append(argument)
        return slot, sequence

    # -- scheduling -----------------------------------------------------------
    def schedule(self, time_us: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run at ``time_us`` (must not be in the past)."""
        if time_us < self.now_us - 1e-9:
            raise ValueError(f"cannot schedule event at {time_us} before now ({self.now_us})")
        slot, sequence = self._acquire_slot(callback, _NO_ARG)
        heapq.heappush(self._heap, (time_us, sequence, slot))
        self._live += 1
        return EventHandle(self, slot, sequence, time_us)

    def schedule_after(self, delay_us: float, callback: Callable[[], None]) -> EventHandle:
        if delay_us < 0:
            raise ValueError("delay_us must be non-negative")
        return self.schedule(self.now_us + delay_us, callback)

    def schedule_call(self, time_us: float, callback: Callable, argument) -> None:
        """Hot-path scheduling of ``callback(argument)``: no handle, no closure.

        The single pre-bound argument replaces the per-event lambda the
        dispatch paths used to allocate; callers that may need to cancel
        must use :meth:`schedule` / :meth:`schedule_call_after` instead.
        """
        if time_us < self.now_us - 1e-9:
            raise ValueError(f"cannot schedule event at {time_us} before now ({self.now_us})")
        slot, sequence = self._acquire_slot(callback, argument)
        heapq.heappush(self._heap, (time_us, sequence, slot))
        self._live += 1

    def schedule_call_after(self, delay_us: float, callback: Callable, argument) -> EventHandle:
        """Cancellable counterpart of :meth:`schedule_call` (relative time)."""
        if delay_us < 0:
            raise ValueError("delay_us must be non-negative")
        time_us = self.now_us + delay_us
        slot, sequence = self._acquire_slot(callback, argument)
        heapq.heappush(self._heap, (time_us, sequence, slot))
        self._live += 1
        return EventHandle(self, slot, sequence, time_us)

    def schedule_batch(self, callback: Callable, timed_arguments) -> None:
        """Bulk-push ``callback(argument)`` events from ``(time_us, argument)`` pairs.

        Arguments are assigned their sequence numbers in iteration order, so
        ties between batch entries (and against previously scheduled events)
        break exactly as if each pair had been pushed individually.  Large
        batches restore the heap invariant with one ``heapify`` pass instead
        of per-entry sift-ups; both strategies yield the same pop order
        because the heap entries are totally ordered tuples.
        """
        heap = self._heap
        floor_us = self.now_us - 1e-9
        entries = []
        for time_us, argument in timed_arguments:
            if time_us < floor_us:
                raise ValueError(f"cannot schedule event at {time_us} before now ({self.now_us})")
            slot, sequence = self._acquire_slot(callback, argument)
            entries.append((time_us, sequence, slot))
        if not entries:
            return
        if len(entries) > _HEAPIFY_THRESHOLD:
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        self._live += len(entries)

    # -- execution ------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event; returns False when the queue is empty."""
        heap = self._heap
        slot_sequence = self._slot_sequence
        while heap:
            time_us, sequence, slot = heapq.heappop(heap)
            if slot_sequence[slot] != sequence:
                # Stale entry: the event was cancelled.  Its slot was freed
                # at cancellation time; recycle it now that the heap no
                # longer references it.
                self._free_slots.append(slot)
                continue
            callback = self._slot_callback[slot]
            argument = self._slot_argument[slot]
            slot_sequence[slot] = _FREE
            self._slot_callback[slot] = None
            self._slot_argument[slot] = None
            self._free_slots.append(slot)
            self._live -= 1
            self.now_us = time_us
            if argument is _NO_ARG:
                callback()
            else:
                callback(argument)
            return True
        return False

    def run(self, until_us: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until exhaustion, a time limit, or an event budget.

        :return: the number of events executed.
        """
        heap = self._heap
        slot_sequence = self._slot_sequence
        slot_callback = self._slot_callback
        slot_argument = self._slot_argument
        free_slots = self._free_slots
        heappop = heapq.heappop
        executed = 0
        while heap:
            time_us, sequence, slot = heap[0]
            if slot_sequence[slot] != sequence:
                heappop(heap)
                free_slots.append(slot)
                continue
            if max_events is not None and executed >= max_events:
                break
            if until_us is not None and time_us > until_us:
                break
            heappop(heap)
            callback = slot_callback[slot]
            argument = slot_argument[slot]
            slot_sequence[slot] = _FREE
            slot_callback[slot] = None
            slot_argument[slot] = None
            free_slots.append(slot)
            self._live -= 1
            self.now_us = time_us
            if argument is _NO_ARG:
                callback()
            else:
                callback(argument)
            executed += 1
        return executed
