"""Block I/O trace records and the MSRC CSV format.

The MSRC enterprise traces [76] are CSV files with one request per line::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

where ``Timestamp`` counts 100-nanosecond Windows filetime ticks, ``Type``
is ``Read`` or ``Write``, ``Offset`` and ``Size`` are in bytes.  This module
reads and writes that layout and converts records into the simulator's
page-granularity :class:`repro.ssd.request.HostRequest` objects.
"""

from __future__ import annotations

import csv
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, List, Optional, TextIO, Union

from repro.ssd.request import HostRequest, RequestKind

#: One MSRC timestamp tick is 100 ns = 0.1 us.
TICKS_PER_MICROSECOND = 10.0


@dataclass(frozen=True)
class TraceRecord:
    """One block-level I/O request."""

    timestamp_us: float
    is_read: bool
    offset_bytes: int
    size_bytes: int
    hostname: str = "synthetic"
    disk_number: int = 0

    def __post_init__(self) -> None:
        if self.timestamp_us < 0:
            raise ValueError("timestamp_us must be non-negative")
        if self.offset_bytes < 0:
            raise ValueError("offset_bytes must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")

    @property
    def kind(self) -> RequestKind:
        return RequestKind.READ if self.is_read else RequestKind.WRITE


def iter_msrc_csv(source: Union[str, TextIO],
                  max_records: Optional[int] = None) -> Iterator[TraceRecord]:
    """Stream an MSRC-format CSV trace as :class:`TraceRecord` objects.

    Holds one record in memory at a time, so arbitrarily long traces can be
    piped straight into :func:`iter_records_to_requests` and the streaming
    simulator.  When ``source`` is a path the file is opened lazily on
    first iteration and closed when the generator is exhausted (or closed).

    Timestamps are rebased to the first row; rows ticked *before* it (head
    of a multi-disk capture merged slightly out of order) clamp to 0 us
    rather than producing negative arrivals no simulator accepts.

    A row that cannot be a request raises ``ValueError`` naming its CSV
    line: fewer than six fields, a non-integer timestamp, disk, offset or
    size, a ``Type`` other than ``Read``/``Write`` (any case), or values
    :class:`TraceRecord` refuses.
    """
    if isinstance(source, str):
        context = open(source, "r", newline="")
    else:
        context = nullcontext(source)
    with context as handle:
        reader = csv.reader(handle)
        base_ticks: Optional[int] = None
        yielded = 0
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            line = reader.line_num
            if len(row) < 6:
                raise ValueError(f"malformed MSRC row on line {line}: {row!r}")
            request_type = row[3].strip().lower()
            if request_type not in ("read", "write"):
                raise ValueError(
                    f"MSRC row on line {line} has type {row[3]!r}; "
                    "expected Read or Write")
            try:
                ticks = int(row[0])
                disk_number = int(row[2])
                offset_bytes = int(row[4])
                size_bytes = int(row[5])
            except ValueError as error:
                raise ValueError(
                    f"malformed MSRC row on line {line}: {error}") from None
            if base_ticks is None:
                base_ticks = ticks
            timestamp_us = max(0.0,
                               (ticks - base_ticks) / TICKS_PER_MICROSECOND)
            try:
                record = TraceRecord(
                    timestamp_us=timestamp_us,
                    hostname=row[1],
                    disk_number=disk_number,
                    is_read=request_type == "read",
                    offset_bytes=offset_bytes,
                    size_bytes=size_bytes,
                )
            except ValueError as error:
                raise ValueError(
                    f"invalid MSRC row on line {line}: {error}") from None
            yield record
            yielded += 1
            if max_records is not None and yielded >= max_records:
                return


def read_msrc_csv(source: Union[str, TextIO],
                  max_records: Optional[int] = None) -> List[TraceRecord]:
    """Parse an MSRC-format CSV trace into a list of :class:`TraceRecord`.

    Materializing convenience wrapper around :func:`iter_msrc_csv`.
    """
    return list(iter_msrc_csv(source, max_records=max_records))


def write_msrc_csv(records: Iterable[TraceRecord],
                   destination: Union[str, TextIO]) -> int:
    """Write records in the MSRC CSV layout; returns the number written."""
    close = False
    if isinstance(destination, str):
        handle = open(destination, "w", newline="")
        close = True
    else:
        handle = destination
    try:
        writer = csv.writer(handle)
        count = 0
        for record in records:
            writer.writerow([
                int(round(record.timestamp_us * TICKS_PER_MICROSECOND)),
                record.hostname,
                record.disk_number,
                "Read" if record.is_read else "Write",
                record.offset_bytes,
                record.size_bytes,
            ])
            count += 1
        return count
    finally:
        if close:
            handle.close()


def iter_records_to_requests(records: Iterable[TraceRecord],
                             page_size_bytes: int = 16 * 1024,
                             logical_pages: Optional[int] = None
                             ) -> Iterator[HostRequest]:
    """Lazily convert trace records into page-granularity host requests.

    Offsets and sizes are rounded to whole pages (a partial page still costs
    a full page read/program); when ``logical_pages`` is given, addresses are
    wrapped into the simulated device's logical space.  Composes with
    :func:`iter_msrc_csv` so a trace replay never materializes the trace.
    """
    if page_size_bytes <= 0:
        raise ValueError("page_size_bytes must be positive")
    for record in records:
        start_lpn = record.offset_bytes // page_size_bytes
        end_lpn = (record.offset_bytes + record.size_bytes - 1) // page_size_bytes
        page_count = max(1, end_lpn - start_lpn + 1)
        if logical_pages is not None:
            start_lpn %= logical_pages
            page_count = min(page_count, logical_pages)
        yield HostRequest(
            arrival_us=record.timestamp_us,
            kind=record.kind,
            start_lpn=start_lpn,
            page_count=page_count,
        )


def records_to_requests(records: Iterable[TraceRecord],
                        page_size_bytes: int = 16 * 1024,
                        logical_pages: Optional[int] = None) -> List[HostRequest]:
    """Materializing wrapper around :func:`iter_records_to_requests`."""
    return list(iter_records_to_requests(records,
                                         page_size_bytes=page_size_bytes,
                                         logical_pages=logical_pages))


@dataclass(frozen=True)
class TraceReplay:
    """An on-disk MSRC-format trace as a ``WorkloadSource``.

    Wraps :func:`iter_msrc_csv` + :func:`iter_records_to_requests` behind
    the unified workload-source protocol, so a trace file composes with
    sessions, fleets, scenario modulators and manifests exactly like a
    synthetic workload.  Iteration is fully streaming — the trace is never
    materialized.
    """

    path: str
    max_records: Optional[int] = None
    page_size_bytes: int = 16 * 1024

    source_kind: ClassVar[str] = "trace_replay"

    def __post_init__(self) -> None:
        if self.page_size_bytes <= 0:
            raise ValueError("page_size_bytes must be positive")
        if self.max_records is not None and self.max_records < 1:
            raise ValueError("max_records must be positive when given")

    def iter_requests(self, config, footprint_pages: Optional[int] = None
                      ) -> Iterator[HostRequest]:
        pages = (footprint_pages if footprint_pages is not None
                 else config.logical_pages)
        return iter_records_to_requests(
            iter_msrc_csv(self.path, max_records=self.max_records),
            page_size_bytes=self.page_size_bytes,
            logical_pages=pages)

    def to_dict(self) -> dict:
        payload = {"path": self.path}
        if self.max_records is not None:
            payload["max_records"] = self.max_records
        if self.page_size_bytes != 16 * 1024:
            payload["page_size_bytes"] = self.page_size_bytes
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceReplay":
        return cls(**payload)

    @property
    def label(self) -> str:
        stem = os.path.splitext(os.path.basename(self.path))[0]
        return f"trace:{stem}"
