"""Parametric synthetic workload generator.

The read-retry evaluation is sensitive to two workload characteristics
(Table 2 of the paper):

* the *read ratio* — what fraction of requests are reads, and
* the *cold ratio* — what fraction of read requests target pages that are
  never updated during the workload.  Cold pages keep the long retention age
  installed by preconditioning and therefore suffer many retry steps, while
  frequently rewritten (hot) pages are effectively fresh.

The generator divides the logical address space into a *cold region* (read
only) and a *hot region* (reads and all writes).  Reads pick the cold region
with probability equal to the desired cold ratio; writes always target the
hot region, so cold pages are never updated by construction.  Within each
region, addresses follow either a uniform or a Zipfian popularity law, and a
configurable fraction of requests is sequential (enterprise traces contain
long sequential runs; key-value workloads are dominated by small random
accesses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.ssd.request import HostRequest, RequestKind


@dataclass(frozen=True)
class WorkloadShape:
    """Knobs describing a synthetic workload."""

    read_ratio: float = 0.9
    cold_ratio: float = 0.7
    #: Mean inter-arrival time between requests (exponentially distributed).
    mean_interarrival_us: float = 250.0
    #: Mean request size in pages (geometric distribution, minimum 1 page).
    mean_request_pages: float = 2.0
    #: Fraction of requests that continue sequentially from the previous one.
    sequential_fraction: float = 0.2
    #: Zipf exponent of the address popularity inside each region
    #: (0 = uniform; around 0.99 for YCSB-like skew).
    zipf_theta: float = 0.0
    #: Fraction of the footprint dedicated to the cold (never-written) region.
    cold_region_fraction: float = 0.6

    def __post_init__(self) -> None:
        for name in ("read_ratio", "cold_ratio", "sequential_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.cold_region_fraction < 1.0:
            raise ValueError("cold_region_fraction must be in (0, 1)")
        if self.mean_interarrival_us <= 0:
            raise ValueError("mean_interarrival_us must be positive")
        if self.mean_request_pages < 1.0:
            raise ValueError("mean_request_pages must be at least 1")
        if self.zipf_theta < 0:
            raise ValueError("zipf_theta must be non-negative")


class SyntheticWorkload:
    """Generates :class:`HostRequest` streams with a prescribed shape.

    Implements the unified ``WorkloadSource`` protocol
    (:mod:`repro.workloads.source`): construct with ``num_requests`` and
    call ``iter_requests(config)`` like any other source, or keep using
    the historical ``iter_requests(num_requests)`` form — the first
    argument's type selects the path.
    """

    #: Source-registry tag for manifest round-trips.
    source_kind = "synthetic"

    def __init__(self, shape: WorkloadShape, footprint_pages: int,
                 seed: int = 0, num_requests: Optional[int] = None):
        if footprint_pages < 16:
            raise ValueError("footprint_pages must be at least 16")
        if num_requests is not None and num_requests <= 0:
            raise ValueError("num_requests must be positive when given")
        self.shape = shape
        self.footprint_pages = footprint_pages
        self.seed = seed
        self.num_requests = num_requests
        self._cold_pages = int(footprint_pages * shape.cold_region_fraction)
        self._hot_pages = footprint_pages - self._cold_pages
        if self._cold_pages < 4 or self._hot_pages < 4:
            raise ValueError("footprint too small for the requested split")

    # -- public API --------------------------------------------------------------------
    def generate(self, num_requests: int,
                 start_time_us: float = 0.0) -> List[HostRequest]:
        """Generate a request stream (deterministic in the seed)."""
        return list(self.iter_requests(num_requests,
                                       start_time_us=start_time_us))

    def iter_requests(self, num_requests=None, start_time_us: float = 0.0,
                      footprint_pages: Optional[int] = None
                      ) -> Iterator[HostRequest]:
        """Yield the stream lazily, one request at a time.

        Two calling conventions share this entry point:

        * historical: ``iter_requests(num_requests)`` with an integer
          request count;
        * ``WorkloadSource`` protocol: ``iter_requests(config,
          footprint_pages=None)`` — the request count comes from the
          constructor's ``num_requests`` and a ``footprint_pages``
          override re-scopes the address space (the fleet passes the
          array's logical size).

        Draws the identical request sequence as :meth:`generate` (which is
        just ``list(iter_requests(...))``) but holds O(1) state, so a
        million-request trace can be streamed straight into
        :meth:`repro.ssd.controller.SsdSimulator.run` without ever being
        materialized.  Arrival times are nondecreasing by construction,
        which is what the simulator's bounded-lookahead pump requires.
        """
        if num_requests is not None and not isinstance(num_requests, int):
            # Protocol form: the first positional is an SsdConfig-like
            # object (only its logical space matters, and only via the
            # explicit footprint override — the footprint was fixed at
            # construction).
            if self.num_requests is None:
                raise ValueError(
                    "construct SyntheticWorkload(..., num_requests=N) to "
                    "use it through the WorkloadSource protocol")
            if (footprint_pages is not None
                    and footprint_pages != self.footprint_pages):
                rescoped = SyntheticWorkload(
                    self.shape, footprint_pages, seed=self.seed,
                    num_requests=self.num_requests)
                return rescoped.iter_requests(self.num_requests)
            return self.iter_requests(self.num_requests)
        if num_requests is None:
            if self.num_requests is None:
                raise ValueError(
                    "pass num_requests (or construct the workload with one)")
            num_requests = self.num_requests
        # Validate eagerly (this is not the generator itself) so a bad
        # request count raises at the call site, not on first iteration
        # deep inside the admission pump.
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        # Non-cold reads must hit pages that the workload actually rewrites.
        # The "update set" is therefore sized to the volume of writes the
        # stream will contain, so that the measured cold ratio (reads whose
        # page is never updated) tracks the configured one even for
        # read-dominant workloads with very few writes.  Computed here and
        # threaded through as a local so interleaved iterators on the same
        # workload object cannot corrupt each other's address selection.
        shape = self.shape
        expected_write_pages = max(
            1.0, num_requests * (1.0 - shape.read_ratio)
            * shape.mean_request_pages)
        update_pages = int(min(self._hot_pages,
                               max(8.0, expected_write_pages * 0.4)))
        return self._iter_requests(num_requests, start_time_us, update_pages)

    def _iter_requests(self, num_requests: int, start_time_us: float,
                       update_pages: int) -> Iterator[HostRequest]:
        rng = np.random.default_rng(self.seed)
        shape = self.shape
        time_us = start_time_us
        previous_end_lpn: Optional[int] = None
        previous_was_read = True
        # Local bindings for the per-request loop.  This is pure attribute
        # hoisting: the RNG methods are bound, not wrapped, so the draw
        # sequence (order, count and distribution of every call) is
        # bit-identical to the unhoisted loop.
        rng_exponential = rng.exponential
        rng_random = rng.random
        rng_geometric = rng.geometric
        mean_interarrival_us = shape.mean_interarrival_us
        read_ratio = shape.read_ratio
        sequential_fraction = shape.sequential_fraction
        geometric_p = 1.0 / max(1.0, shape.mean_request_pages)
        cold_ratio = shape.cold_ratio
        kind_read = RequestKind.READ
        kind_write = RequestKind.WRITE
        zipf_index = self._zipf_index
        footprint_pages = self.footprint_pages
        cold_pages = self._cold_pages
        update_end = cold_pages + update_pages

        for _ in range(num_requests):
            time_us += float(rng_exponential(mean_interarrival_us))
            is_read = bool(rng_random() < read_ratio)
            page_count = 1 + int(rng_geometric(geometric_p) - 1)
            page_count = max(1, min(page_count, 64))

            sequential = (previous_end_lpn is not None
                          and previous_was_read == is_read
                          and rng_random() < sequential_fraction)
            if sequential:
                start_lpn = previous_end_lpn
            elif is_read and rng_random() < cold_ratio:
                # Cold region: pages written once (by preconditioning) and
                # never updated, so they carry the experiment's long
                # retention age.
                start_lpn = zipf_index(rng, cold_pages)
            else:
                # Hot reads and all writes target the update set, which is
                # sized so that its pages really are rewritten during the run.
                start_lpn = cold_pages + zipf_index(rng, update_pages)
            # Clamp into the footprint; writes stay inside the update set so
            # cold pages remain cold (never updated), which is what defines
            # the cold ratio.
            if is_read:
                limit = footprint_pages
                start_lpn = max(0, min(start_lpn, limit - 1))
            else:
                limit = update_end
                start_lpn = max(cold_pages, min(start_lpn, limit - 1))
            page_count = max(1, min(page_count, limit - start_lpn))

            yield HostRequest(
                arrival_us=time_us,
                kind=kind_read if is_read else kind_write,
                start_lpn=start_lpn,
                page_count=page_count,
            )
            previous_end_lpn = start_lpn + page_count
            previous_was_read = is_read

    # -- address selection -----------------------------------------------------------------
    def _zipf_index(self, rng: np.random.Generator, region_pages: int) -> int:
        """Inverse-CDF sample of a bounded Zipf(theta) popularity law.

        For ``P(k) ~ 1/k^theta`` over ranks ``1..N`` the continuous CDF is
        ``((k^(1-theta) - 1) / (N^(1-theta) - 1))`` (with the log limit at
        ``theta = 1``), which inverts in closed form.  ``theta = 0`` is the
        uniform distribution.
        """
        theta = self.shape.zipf_theta
        if theta <= 0.0:
            return int(rng.integers(0, region_pages))
        u = rng.random()
        n = float(region_pages)
        if abs(theta - 1.0) < 1e-9:
            rank = math.exp(u * math.log(n))
        else:
            exponent = 1.0 - theta
            rank = ((n ** exponent - 1.0) * u + 1.0) ** (1.0 / exponent)
        index = int(rank) - 1
        return max(0, min(region_pages - 1, index))

    # -- measured characteristics -------------------------------------------------------------
    def measured_ratios(self, requests: List[HostRequest]) -> dict:
        """Empirical read ratio and cold ratio of a generated stream.

        The cold ratio follows the paper's definition: the fraction of read
        requests whose target page is never updated during the entire run.
        """
        written_pages = set()
        for request in requests:
            if request.kind is RequestKind.WRITE:
                written_pages.update(request.lpns)
        reads = [request for request in requests
                 if request.kind is RequestKind.READ]
        if not requests:
            return {"read_ratio": 0.0, "cold_ratio": 0.0}
        cold_reads = sum(
            1 for request in reads
            if not any(lpn in written_pages for lpn in request.lpns))
        return {
            "read_ratio": len(reads) / len(requests),
            "cold_ratio": (cold_reads / len(reads)) if reads else 0.0,
        }

    # -- WorkloadSource protocol --------------------------------------------------------
    @property
    def label(self) -> str:
        return (f"synthetic(r{self.shape.read_ratio:g}"
                f"-c{self.shape.cold_ratio:g})")

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return {
            "shape": asdict(self.shape),
            "footprint_pages": self.footprint_pages,
            "seed": self.seed,
            "num_requests": self.num_requests,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SyntheticWorkload":
        return cls(shape=WorkloadShape(**payload["shape"]),
                   footprint_pages=payload["footprint_pages"],
                   seed=payload.get("seed", 0),
                   num_requests=payload.get("num_requests"))
