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
pass into the sub-request lists of a set of devices: a fleet run generates
its array stream once per shard of devices and hands every device worker
only its own list.  :meth:`StripeRouter.shard` is the lazy single-device
filter of the same split; tests hold ``route`` to it as the reference.

Sub-requests preserve the parent's arrival time and ``queue_id`` (the
tenant tag), so per-device arrival order — and therefore the simulator's
bounded-lookahead pump contract — is preserved by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.ssd.request import HostRequest, RequestKind


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
    def split(self, request: HostRequest) -> List[Tuple[int, HostRequest]]:
        """Split one array-level request into per-device sub-requests.

        Reads go to one replica per page; writes fan out to every replica.
        Pages landing on the same device at consecutive device-local
        addresses coalesce into a single sub-request, so a sequential
        array-level request of a full stripe group becomes one contiguous
        sub-request per device rather than one per page.
        """
        runs: List[List[int]] = []  # [device, local_start, page_count]
        for lpn in range(request.start_lpn, request.start_lpn + request.page_count):
            if request.kind is RequestKind.READ:
                targets = (self.read_placement(lpn),)
            else:
                targets = self.replicas(lpn)
            for device, local in targets:
                for run in runs:
                    if run[0] == device and local == run[1] + run[2]:
                        run[2] += 1
                        break
                else:
                    runs.append([device, local, 1])
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
            for device, local_start, page_count in runs
        ]

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.devices:
            raise ValueError(f"device must be in [0, {self.devices})")

    def route(
        self, stream: Iterable[HostRequest], devices: Iterable[int]
    ) -> Dict[int, List[HostRequest]]:
        """Split an array-level stream, in one pass, into per-device lists.

        Returns ``{device: sub-requests}`` for every device in ``devices``,
        each list in stream order; sub-requests for other devices are
        dropped.  ``route(stream, devices)[d]`` equals
        ``list(shard(stream, d))``, but the stream is read once for all of
        ``devices`` instead of once per device.
        """
        routed: Dict[int, List[HostRequest]] = {}
        for device in devices:
            self._check_device(device)
            routed[device] = []
        for request in stream:
            for target, sub_request in self.split(request):
                sub_requests = routed.get(target)
                if sub_requests is not None:
                    sub_requests.append(sub_request)
        return routed

    def shard(
        self, stream: Iterable[HostRequest], device: int
    ) -> Iterator[HostRequest]:
        """Lazily filter an array-level stream down to one device's shard."""
        self._check_device(device)
        for request in stream:
            for target, sub_request in self.split(request):
                if target == device:
                    yield sub_request
