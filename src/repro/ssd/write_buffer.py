"""Controller write buffer.

Host writes are acknowledged as soon as their data lands in the controller's
DRAM write buffer; the buffered pages are then flushed to flash in the
background.  When the buffer is full, incoming writes must wait for flush
completions — which is how flash program latency (and GC pressure) shows up
in the response time of write-heavy workloads such as ``stg_0``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional


class WriteBuffer:
    """Fixed-capacity FIFO write buffer."""

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.capacity_pages = capacity_pages
        self._in_flight: int = 0
        self._admitted: int = 0
        self._waiting: Deque[object] = deque()

    # -- occupancy -----------------------------------------------------------------
    @property
    def used_pages(self) -> int:
        return self._in_flight

    @property
    def total_admitted(self) -> int:
        return self._admitted

    # -- admission -----------------------------------------------------------------
    def try_admit(self, pages: int = 1) -> bool:
        """Admit ``pages`` page writes if space allows."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        if self._in_flight + pages > self.capacity_pages:
            return False
        self._in_flight += pages
        self._admitted += pages
        return True

    def release(self, pages: int = 1) -> None:
        """Release buffer slots once their flash programs complete."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        if pages > self._in_flight:
            raise ValueError("releasing more pages than are buffered")
        self._in_flight -= pages

    # -- back-pressure queue ----------------------------------------------------------
    def enqueue_waiter(self, waiter) -> None:
        """Remember a request waiting for buffer space (FIFO order)."""
        self._waiting.append(waiter)

    def admit_waiter(self) -> Optional[object]:
        """Admit the head waiter's ``page_count`` pages and return it, or
        return ``None`` when no write waits or the head does not fit; a
        head that does not fit keeps its place and blocks those behind it."""
        waiting = self._waiting
        if waiting and self.try_admit(waiting[0].page_count):
            return waiting.popleft()
        return None

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)
