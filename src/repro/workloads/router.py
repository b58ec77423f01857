"""Striping/replication request router for multi-device arrays.

The fleet layer simulates an array of N SSDs behind a RAID-0/10-style
front-end: the array's logical page space is divided into *stripe units* of
``stripe_unit_pages`` consecutive pages, and unit ``s`` lives primarily on
device ``s % devices``.  With ``replication > 1`` every unit is additionally
mirrored onto the next ``replication - 1`` devices (chained declustering):
writes fan out to every replica, reads pick one deterministically — rotating
through the replica set by stripe group, so mirrored read load spreads
across devices instead of hammering primaries.

Device-local placement gives every (stripe group, copy) pair its own slot —
copy ``c`` of stripe group ``g`` sits at local unit ``g * replication + c``
— so replicas never collide with a device's primary data; an array of N
devices with replication R therefore exposes ``N / R`` devices' worth of
logical capacity, exactly like a real mirrored array.

The router is a pure function of ``(devices, stripe_unit_pages,
replication)`` and the request stream.  :meth:`StripeRouter.route` splits an
array-level stream of :class:`~repro.ssd.request.HostRequest` objects in one
pass into one :class:`RequestSpool` per device: a fleet run generates its
array stream once per run, however many shards and policies it simulates,
and hands every device worker only its own spool.  A spool holds its
sub-requests as typed columns (about 35 B a row against 130-190 B for a
``HostRequest`` held in a list), so a fleet that keeps every device's
spool across its shards and policies holds the run's sub-requests in
compact form.  :meth:`StripeRouter.split` and ``route`` share one
run-coalescing walk; :meth:`StripeRouter.shard` is the lazy single-device
filter of the same split, and tests hold ``route`` to it as the reference.
``route`` places a request that fits in one stripe unit of an unmirrored
array directly, since it is one run on one device; most requests of a
small-request workload take that path.

Sub-requests preserve the parent's arrival time and ``queue_id`` (the
tenant tag), so per-device arrival order — and therefore the simulator's
bounded-lookahead pump contract — is preserved by construction.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.ssd.request import HostRequest, RequestKind

#: Request kinds by their spool code, and the codes by kind.
_KINDS = tuple(RequestKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}


class RequestSpool:
    """One device's routed sub-requests, stored as typed columns.

    Each row is an arrival time (float64), a :class:`RequestKind` code, a
    start LPN, a page count and a ``queue_id``.  Iterating yields a fresh
    :class:`HostRequest` per row, in the order the rows were appended.  A
    spool pickles as its column arrays.  A spool with no rows holds empty
    tuples instead of arrays, because most devices of a large fleet fed a
    short stream get no rows at all.
    """

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        self._columns: tuple = ((), (), (), (), ())

    def append(
        self,
        arrival_us: float,
        kind: RequestKind,
        start_lpn: int,
        page_count: int,
        queue_id: int,
    ) -> None:
        columns = self._columns
        if not columns[0]:
            columns = self._columns = (array("d"), array("B"), array("q"), array("q"), array("q"))
        arrivals, kind_codes, start_lpns, page_counts, queue_ids = columns
        arrivals.append(arrival_us)
        kind_codes.append(_KIND_CODES[kind])
        start_lpns.append(start_lpn)
        page_counts.append(page_count)
        queue_ids.append(queue_id)

    def extents(self) -> Iterator[Tuple[int, int]]:
        """The ``(start_lpn, page_count)`` of every row, in order."""
        return zip(self._columns[2], self._columns[3])

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[HostRequest]:
        kinds = _KINDS
        for arrival_us, code, start_lpn, page_count, queue_id in zip(*self._columns):
            yield HostRequest(arrival_us, kinds[code], start_lpn, page_count, queue_id)


@dataclass(frozen=True)
class StripeRouter:
    """Maps array-level logical pages onto (device, device-local page)."""

    devices: int
    stripe_unit_pages: int = 8
    replication: int = 1

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("devices must be at least 1")
        if self.stripe_unit_pages < 1:
            raise ValueError("stripe_unit_pages must be at least 1")
        if not 1 <= self.replication <= self.devices:
            raise ValueError("replication must be in [1, devices]")

    # -- placement -------------------------------------------------------------
    def _locate(self, lpn: int, copy: int) -> Tuple[int, int]:
        """The (device, device-local lpn) of one copy of an array page."""
        stripe, offset = divmod(lpn, self.stripe_unit_pages)
        group, primary = divmod(stripe, self.devices)
        device = (primary + copy) % self.devices
        local = (group * self.replication + copy) * self.stripe_unit_pages
        return device, local + offset

    def array_lpn(self, device: int, local: int) -> int:
        """The array-level page whose copy sits at ``local`` on ``device``.

        The inverse of placement: it names the array page behind any
        device-local address, replica slots included.
        """
        unit, offset = divmod(local, self.stripe_unit_pages)
        group, copy = divmod(unit, self.replication)
        primary = (device - copy) % self.devices
        return (group * self.devices + primary) * self.stripe_unit_pages + offset

    def placement(self, lpn: int) -> Tuple[int, int]:
        """The (primary device, device-local lpn) of an array-level page."""
        return self._locate(lpn, 0)

    def replicas(self, lpn: int) -> Tuple[Tuple[int, int], ...]:
        """Every (device, local lpn) holding a copy (primary first)."""
        return tuple(
            self._locate(lpn, copy) for copy in range(self.replication)
        )

    def read_placement(self, lpn: int) -> Tuple[int, int]:
        """The (device, local lpn) a read of ``lpn`` is routed to.

        Rotates through the replica set by stripe *group* so that mirrored
        read load spreads across the devices deterministically; with
        ``replication == 1`` this is simply the primary.
        """
        group = lpn // self.stripe_unit_pages // self.devices
        return self._locate(lpn, group % self.replication)

    # -- request splitting -----------------------------------------------------
    def _runs(self, request: HostRequest) -> List[List[int]]:
        """The coalesced ``[device, local_start, page_count]`` runs of a request.

        Reads go to one replica per page; writes and control requests to
        every replica.  Pages landing on the same device at consecutive
        device-local addresses coalesce into one run, and runs come out in
        the order their first page was placed.  The request is placed one
        stripe-unit segment at a time, since a segment's pages sit at
        consecutive addresses of each device it reaches.  Open runs are
        indexed by (device, next local page), so a segment can only extend
        a run on its own device; placement never maps two pages of a
        request to one address, so at most one run qualifies, the same run
        a page-by-page scan of every run would find.
        """
        unit = self.stripe_unit_pages
        read = request.kind is RequestKind.READ
        runs: List[List[int]] = []
        open_runs: Dict[Tuple[int, int], List[int]] = {}
        lpn = int(request.start_lpn)
        end = lpn + request.page_count
        while lpn < end:
            pages = min(unit - lpn % unit, end - lpn)
            for device, local in (self.read_placement(lpn),) if read else self.replicas(lpn):
                run = open_runs.pop((device, local), None)
                if run is None:
                    run = [device, local, pages]
                    runs.append(run)
                else:
                    run[2] += pages
                open_runs[device, local + pages] = run
            lpn += pages
        return runs

    def split(self, request: HostRequest) -> List[Tuple[int, HostRequest]]:
        """Split one array-level request into per-device sub-requests.

        Reads go to one replica per page; writes fan out to every replica.
        Pages landing on the same device at consecutive device-local
        addresses coalesce into a single sub-request, so a sequential
        array-level request of a full stripe group becomes one contiguous
        sub-request per device rather than one per page.
        """
        return [
            (
                device,
                HostRequest(
                    arrival_us=request.arrival_us,
                    kind=request.kind,
                    start_lpn=local_start,
                    page_count=page_count,
                    queue_id=request.queue_id,
                ),
            )
            for device, local_start, page_count in self._runs(request)
        ]

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.devices:
            raise ValueError(f"device must be in [0, {self.devices})")

    def route(
        self, stream: Iterable[HostRequest], devices: Iterable[int]
    ) -> Dict[int, RequestSpool]:
        """Split an array-level stream, in one pass, into per-device spools.

        Returns ``{device: spool}`` for every device in ``devices``, each
        spool in stream order; runs for other devices are dropped.  Each
        coalesced run is written straight into its device's spool, with no
        sub-request object built.  Iterating ``route(stream, devices)[d]``
        yields the requests of ``shard(stream, d)``, but the stream is read
        once for all of ``devices`` instead of once per device.

        A request of an unmirrored array that fits in one stripe unit is
        one run whatever its kind: it goes straight to the unit's device,
        at the unit's local slot plus its offset, without the coalescing
        walk of :meth:`_runs`.
        """
        spools: Dict[int, RequestSpool] = {}
        for device in devices:
            self._check_device(device)
            spools[device] = RequestSpool()
        unit = self.stripe_unit_pages
        fleet = self.devices
        unmirrored = self.replication == 1
        for request in stream:
            lpn = int(request.start_lpn)
            offset = lpn % unit
            if unmirrored and offset + request.page_count <= unit:
                group, device = divmod(lpn // unit, fleet)
                spool = spools.get(device)
                if spool is not None:
                    spool.append(
                        request.arrival_us,
                        request.kind,
                        group * unit + offset,
                        request.page_count,
                        request.queue_id,
                    )
                continue
            for device, local_start, page_count in self._runs(request):
                spool = spools.get(device)
                if spool is not None:
                    spool.append(
                        request.arrival_us,
                        request.kind,
                        local_start,
                        page_count,
                        request.queue_id,
                    )
        return spools

    def shard(
        self, stream: Iterable[HostRequest], device: int
    ) -> Iterator[HostRequest]:
        """Lazily filter an array-level stream down to one device's shard."""
        self._check_device(device)
        for request in stream:
            for target, sub_request in self.split(request):
                if target == device:
                    yield sub_request
