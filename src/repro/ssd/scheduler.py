"""Per-die transaction state: read priority and program/erase suspension.

The baseline SSD of Section 7.1 is a high-end device that already employs
two latency-hiding techniques orthogonal to read-retry:

* *out-of-order I/O scheduling* — reads overtake queued programs/erases at
  the same die, because read latency is what applications wait on;
* *program/erase suspension* — an in-flight program or erase is suspended
  when a read arrives, the read executes, and the suspended operation
  resumes afterwards with its remaining time plus the suspend overhead.

Each die has one :class:`DieState`: the transaction it runs, a read queue
and a write/erase queue, and its busy-time counters.  The record holds no
callback and no reference to the simulator.  The controller
(:class:`repro.ssd.controller.SsdSimulator`) runs the policy over these
records itself, one frame per step: ``_enqueue`` adds a transaction and may
start it or suspend the running program or erase, ``_start`` prices it and
pushes its completion onto the event heap, and ``_complete`` does the
transaction's bookkeeping and starts the die's next one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.ssd.request import FlashTransaction


class DieState:
    """What one die runs and what waits for it."""

    __slots__ = (
        "running",
        "start_us",
        "service_us",
        "completion",
        "read_queue",
        "write_queue",
        "total_busy_us",
        "completed_transactions",
        "suspensions",
    )

    def __init__(self) -> None:
        #: The transaction the die is executing, or ``None`` when it is idle.
        #: The three slots below describe it and are meaningful only while
        #: it is set: when it started, how long it occupies the die, and the
        #: sequence of its completion event, which a read cancels to suspend
        #: it (``None`` for what nothing suspends: reads, and everything
        #: when suspension is off).
        self.running: Optional[FlashTransaction] = None
        self.start_us = 0.0
        self.service_us = 0.0
        self.completion: Optional[int] = None
        #: Reads wait here under read priority; everything else (and every
        #: read without it) waits in ``write_queue``.
        self.read_queue: Deque[FlashTransaction] = deque()
        self.write_queue: Deque[FlashTransaction] = deque()
        self.total_busy_us = 0.0
        self.completed_transactions = 0
        self.suspensions = 0
