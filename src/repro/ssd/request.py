"""Host requests and the kinds of flash transaction.

A *host request* is what arrives over the (multi-queue) host interface: a
read or write of one or more consecutive logical pages, stamped with an
arrival time.  The controller splits it into per-page *flash transactions*
that are scheduled independently on the dies; the request completes when its
last transaction completes (reads) or when its data is accepted by the write
buffer (writes).  A transaction is a plain tuple whose layout only the
controller knows (:mod:`repro.ssd.controller`); this module names its kinds.

Host requests are treated as *immutable inputs* by the simulator: a read's
completion state is a record of the simulator's own, carried by the read's
page transactions, so the same request objects can be replayed against
several policies (or shared by a sweep's stream cache) without defensive
copies, and two requests may share a ``request_id``.

:class:`HostRequest` is a hand-written ``__slots__`` structure rather than a
dataclass: it is the highest-volume allocation of a streaming run (one
request per trace entry), and slot storage keeps its creation and field
access off the dictionary path.
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
    )

    def __init__(
        self,
        arrival_us: float,
        kind: RequestKind,
        start_lpn: int,
        page_count: int = 1,
        queue_id: int = 0,
        request_id: Optional[int] = None,
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

    @property
    def is_read(self) -> bool:
        return self.kind is RequestKind.READ

    @property
    def is_control(self) -> bool:
        return self.kind.is_control

    @property
    def lpns(self) -> List[int]:
        return list(range(self.start_lpn, self.start_lpn + self.page_count))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HostRequest(arrival_us={self.arrival_us!r}, kind={self.kind!r}, "
            f"start_lpn={self.start_lpn!r}, page_count={self.page_count!r}, "
            f"queue_id={self.queue_id!r}, request_id={self.request_id!r})"
        )
