"""Host requests and flash transactions.

A *host request* is what arrives over the (multi-queue) host interface: a
read or write of one or more consecutive logical pages, stamped with an
arrival time.  The controller splits it into per-page *flash transactions*
that are scheduled independently on the dies; the request completes when its
last transaction completes (reads) or when its data is accepted by the write
buffer (writes).

Host requests are treated as *immutable inputs* by the simulator: a read's
completion state is a record of the simulator's own, carried by the read's
page transactions, so the same request objects can be replayed against
several policies (or shared by a sweep's stream cache) without defensive
copies, and two requests may share a ``request_id``.  The ``completion_us`` /
``pending_pages`` fields remain for callers that track completion
themselves, but the simulator no longer writes to them.

Both classes are hand-written ``__slots__`` structures rather than
dataclasses: they are the highest-volume allocations of a streaming run
(one request per trace entry, one transaction per page operation), and slot
storage keeps their creation and field access off the dictionary path the
event loop would otherwise pay per page.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional


class RequestKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    #: Control events carried in-stream so the scheduler and FTL see them
    #: in arrival order: TRIM/UNMAP of a logical range, a full-drain
    #: barrier, and a zero-cost timestamp marker.  They move no data and
    #: are never recorded into the latency histograms.
    DISCARD = "discard"
    BARRIER = "barrier"
    MARK = "mark"

    @property
    def is_control(self) -> bool:
        return self in (RequestKind.DISCARD, RequestKind.BARRIER, RequestKind.MARK)


class TransactionKind(enum.Enum):
    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"
    GC_READ = "gc_read"
    GC_PROGRAM = "gc_program"
    #: DFTL translation-page traffic (``mapping="page"``): mapping lookups
    #: that miss the cached mapping table read a translation page, dirty
    #: evictions and GC batch updates re-program one.  Both compete with
    #: host I/O for die time like any other transaction.
    TRANS_READ = "trans_read"
    TRANS_PROGRAM = "trans_program"

    @property
    def is_read(self) -> bool:
        return self in (TransactionKind.READ, TransactionKind.GC_READ, TransactionKind.TRANS_READ)

    @property
    def is_background(self) -> bool:
        return self in (
            TransactionKind.GC_READ,
            TransactionKind.GC_PROGRAM,
            TransactionKind.ERASE,
            TransactionKind.TRANS_READ,
            TransactionKind.TRANS_PROGRAM,
        )


_request_ids = itertools.count()


class HostRequest:
    """One host-issued I/O request."""

    __slots__ = (
        "arrival_us",
        "kind",
        "start_lpn",
        "page_count",
        "queue_id",
        "request_id",
        "completion_us",
        "pending_pages",
    )

    def __init__(
        self,
        arrival_us: float,
        kind: RequestKind,
        start_lpn: int,
        page_count: int = 1,
        queue_id: int = 0,
        request_id: Optional[int] = None,
        completion_us: Optional[float] = None,
    ):
        if arrival_us < 0:
            raise ValueError("arrival_us must be non-negative")
        if page_count <= 0:
            raise ValueError("page_count must be positive")
        if start_lpn < 0:
            raise ValueError("start_lpn must be non-negative")
        self.arrival_us = arrival_us
        self.kind = kind
        self.start_lpn = start_lpn
        self.page_count = page_count
        self.queue_id = queue_id
        self.request_id = next(_request_ids) if request_id is None else request_id
        # Caller-owned completion tracking; the simulator keeps its own
        # per-run bookkeeping and never writes to these.
        self.completion_us = completion_us
        self.pending_pages = page_count

    @property
    def is_read(self) -> bool:
        return self.kind is RequestKind.READ

    @property
    def is_control(self) -> bool:
        return self.kind.is_control

    @property
    def lpns(self) -> List[int]:
        return list(range(self.start_lpn, self.start_lpn + self.page_count))

    @property
    def response_time_us(self) -> Optional[float]:
        if self.completion_us is None:
            return None
        return self.completion_us - self.arrival_us

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HostRequest(arrival_us={self.arrival_us!r}, kind={self.kind!r}, "
            f"start_lpn={self.start_lpn!r}, page_count={self.page_count!r}, "
            f"queue_id={self.queue_id!r}, request_id={self.request_id!r})"
        )


class FlashTransaction:
    """One page-granularity operation dispatched to a die.

    The page is addressed by its packed index ``packed``
    (:class:`~repro.ssd.ftl.PageAddressing`), from which the controller
    derives the block's condition, retry-grid corner and page type, and
    ``die`` is the die number ``channel * dies_per_channel + die`` that
    indexes the controller's die schedulers.

    Each page of a host read carries ``progress``, the controller's
    completion record of that read (it holds the :class:`HostRequest`); it
    is ``None`` on every other transaction.  ``transaction_id`` is whatever
    the caller passes: the simulator passes none, and tests that compare
    two schedules number their transactions themselves.

    ``remaining_service_us`` / ``was_suspended`` are written by the die
    scheduler when a program or erase is suspended; ``retry_steps`` and
    ``response_us`` are written by the controller's read path when the die
    starts the read, which is when its retry behaviour is looked up.
    """

    __slots__ = (
        "kind",
        "lpn",
        "packed",
        "die",
        "issue_us",
        "progress",
        "transaction_id",
        "service_start_us",
        "completion_us",
        "retry_steps",
        "response_us",
        "remaining_service_us",
        "was_suspended",
    )

    def __init__(
        self,
        kind: TransactionKind,
        lpn: Optional[int],
        packed: int,
        die: int,
        issue_us: float,
        progress: object = None,
        transaction_id: Optional[int] = None,
    ):
        self.kind = kind
        self.lpn = lpn
        self.packed = packed
        self.die = die
        self.issue_us = issue_us
        self.progress = progress
        self.transaction_id = transaction_id
        # Filled in when the transaction is serviced.
        self.service_start_us: Optional[float] = None
        self.completion_us: Optional[float] = None
        self.retry_steps = 0
        self.response_us: Optional[float] = None
        self.remaining_service_us: Optional[float] = None
        self.was_suspended = False

    @property
    def is_read(self) -> bool:
        return self.kind.is_read

    @property
    def waiting_time_us(self) -> Optional[float]:
        if self.service_start_us is None:
            return None
        return self.service_start_us - self.issue_us

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlashTransaction(kind={self.kind!r}, lpn={self.lpn!r}, "
            f"packed={self.packed!r}, die={self.die!r}, issue_us={self.issue_us!r}, "
            f"transaction_id={self.transaction_id!r})"
        )
