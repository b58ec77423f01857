"""The SSD simulator: host interface, controller and device model.

:class:`SsdSimulator` glues the pieces together the way MQSim does for the
paper's evaluation:

* host requests arrive at their trace timestamps, are split into page-sized
  flash transactions, and are scheduled per die with read priority and
  program/erase suspension.  The simulator runs each transaction's
  lifecycle itself, one frame per step, over the per-die records of
  :mod:`repro.ssd.scheduler`: ``_enqueue`` queues it and may start it or
  suspend the die's running program or erase, ``_start`` prices it and
  pushes ``(time, sequence, _complete, transaction)`` straight onto the
  event heap (:mod:`repro.ssd.engine`), and ``_complete`` does its
  bookkeeping and starts the die's next transaction.  A suspended program
  or erase is cancelled by its completion's sequence number;
* read transactions query the simulator's retry-step grid
  (:func:`~repro.ssd.retry_grid.shared_grid`) for how many retry
  steps they need (each simulated block behaves like a characterized
  block), counting grid hits and scalar fallbacks into the metrics, and
  the active read-retry *policy* (Baseline / PR2 / AR2 / PnAR2 / NoRR /
  PSO) translates that into latency and die-occupancy numbers.  The read
  path handles one address, the packed page index of
  :class:`~repro.ssd.ftl.PageAddressing`: each mapper resolves a read to it
  and reports its block's condition from it, and every transaction carries
  it with its die number, which indexes the list of per-die records.  The
  retry-grid corner and the page type are one division and one remainder
  of it away, and the fault injector keys its scopes by such divisions;
* writes are absorbed by the write buffer and flushed to flash through one
  :class:`~repro.ssd.ftl.Mapper`, picked once from ``config.mapping``: the
  flat-table FTL with greedy garbage collection (``"block"``), or the DFTL
  mapper (:mod:`repro.ssd.dftl`, ``"page"``), whose CMT misses and dirty
  evictions inject translation-page reads/programs on the same dies as
  host traffic and whose GC runs with trigger/stop watermarks and batched
  translation updates.  The controller schedules whatever flash work the
  mapper returns and never branches on which mapper it holds.  That work
  arrives as packed page indices too: ``program`` returns one, a
  translation op is a ``(TransactionKind, packed)`` pair and a
  :class:`~repro.ssd.gc.GcOperation` lists them, so every transaction is
  built straight from an int.  Program, erase and translation-read service
  times are fixed per device and computed once at construction;
* response times and utilization are collected in
  :class:`repro.ssd.metrics.SimulationMetrics`.

Nothing the simulator owns points back at it once a run has drained the
event heap: the per-die records hold no callbacks and the fault injector
takes the simulator as an argument, so a finished simulator is freed by
reference counting alone, never left to the cyclic collector.  A run
either completes every admitted request or raises: a write larger than the
write buffer is refused when it arrives, and a run whose event queue
drains with requests still outstanding raises ``RuntimeError``.

Request injection is *streaming*: :meth:`SsdSimulator.run` accepts any
iterable of :class:`~repro.ssd.request.HostRequest` objects — including
generators — and admits them through a bounded-lookahead pump that keeps
only a small window of future arrivals in the event queue.  Combined with
the fixed-memory metrics recorder, the simulator's peak memory is
independent of the trace length, so million-request traces stream straight
from a workload generator or a CSV reader without ever being materialized.

The simulator does not mutate caller-owned requests: read completion state
(pending page count, last-page-ready time) lives in simulator-local
bookkeeping, so the same request objects can be replayed against several
policies without a defensive copy.

A deliberate simplification relative to a cycle-accurate model: channel-bus
contention between dies of the same channel is not modelled as a separate
resource — per-step data transfer time is already part of each transaction's
die-occupancy where the paper's mechanisms place it on the critical path,
and with four dies per channel and ``tDMA`` = 16 us versus ``tR`` ~ 90 us
plus retries, the bus is never the bottleneck in these workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.policies import ReadRetryPolicy, get_policy
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.nand.geometry import PAGE_TYPE_ORDER
from repro.ssd.config import SsdConfig
from repro.ssd.dftl import DftlMapper, TranslationOp
from repro.ssd.engine import EventQueue
from repro.ssd.faults import FaultInjector, FaultPlan
from repro.ssd.ftl import FlashTranslationLayer, Mapper, PageAddressing
from repro.ssd.gc import GcOperation
from repro.ssd.metrics import SimulationMetrics
from repro.ssd.request import (
    FlashTransaction,
    HostRequest,
    RequestKind,
    TransactionKind,
)
from repro.ssd.retry_grid import shared_grid
from repro.ssd.scheduler import DieState
from repro.ssd.write_buffer import WriteBuffer

#: How many future arrivals the admission pump keeps scheduled ahead of the
#: simulation clock.  Large enough that the dies never starve waiting for
#: the pump, small enough that the event queue stays O(window), not O(trace).
DEFAULT_LOOKAHEAD_REQUESTS = 64

#: The mapper class behind each ``SsdConfig.mapping`` value.
MAPPERS = {"block": FlashTranslationLayer, "page": DftlMapper}

#: The read path inlines :class:`PageAddressing`'s derivations, one call
#: fewer each: the die ``packed // pages_per_die``, the grid corner
#: ``packed // pages_per_block`` and the page type ``packed %
#: pages_per_block % _PAGE_TYPES``.
_PAGE_TYPES = len(PAGE_TYPE_ORDER)
_READ = TransactionKind.READ
_GC_READ = TransactionKind.GC_READ
_TRANS_READ = TransactionKind.TRANS_READ
_PROGRAM = TransactionKind.PROGRAM
_GC_PROGRAM = TransactionKind.GC_PROGRAM
_ERASE = TransactionKind.ERASE


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    policy_name: str
    config: SsdConfig
    metrics: SimulationMetrics
    preconditioned_pe_cycles: int
    preconditioned_retention_months: float
    #: Which device of a fleet produced this result (0 for standalone runs).
    device_id: int = 0
    #: :attr:`SsdSimulator.distinct_read_conditions` when the run finished.
    distinct_read_conditions: int = 0

    @property
    def mean_response_time_us(self) -> float:
        return self.metrics.mean_response_time_us()

    @property
    def p99_response_time_us(self) -> float:
        return self.metrics.p99_response_time_us()

    @property
    def p999_response_time_us(self) -> float:
        return self.metrics.p999_response_time_us()

    def summary(self) -> Dict[str, float]:
        summary = {"policy": self.policy_name}
        summary.update(self.metrics.summary())
        return summary


class _ReadProgress:
    """Simulator-local completion state of one in-flight host read."""

    __slots__ = ("pending_pages", "last_page_ready_us")

    def __init__(self, pending_pages: int):
        self.pending_pages = pending_pages
        self.last_page_ready_us = 0.0


class SsdSimulator:
    """An event-driven SSD with a pluggable read-retry policy.

    Every host read takes one path: each of its pages becomes a
    :class:`~repro.ssd.request.FlashTransaction` on its die, and the
    simulator prices the page when the die starts it, from the block's
    condition at that moment and one retry-grid query
    (:meth:`_read_service_time`).
    """

    def __init__(self, config: SsdConfig = None,
                 policy: Union[str, ReadRetryPolicy] = "Baseline",
                 rpt: ReadTimingParameterTable = None,
                 device_id: int = 0,
                 track_tenants: bool = False):
        # At most 29 instance attributes (``tests/test_ssd_controller.py``):
        # CPython 3.11 keeps that many in the class's shared-key table, and
        # one more gives every simulator a plain ``__dict__``, which slows
        # each ``self.`` load on the per-page paths.
        self.config = config or SsdConfig.scaled()
        self.device_id = device_id
        #: When True, every completion is also recorded into a per-tenant
        #: histogram keyed by the request's ``queue_id``.  Off by default so
        #: plain runs pay nothing and keep ``metrics.tenant_latency`` empty;
        #: tenant-mix and closed-loop drivers switch it on.
        self.track_tenants = track_tenants
        if isinstance(policy, str):
            self.policy = get_policy(policy, timing=self.config.timing, rpt=rpt)
        else:
            self.policy = policy
        # Property-call hoisting for the per-page read path (the policy is
        # fixed for the simulator's lifetime).
        self._uses_reduced_timing = self.policy.uses_reduced_timing
        if rpt is None:
            rpt = (self.policy.rpt if self._uses_reduced_timing
                   else ReadTimingParameterTable.default())
        self.events = EventQueue()
        # mapping="block" keeps the original flat page table + greedy GC;
        # mapping="page" swaps in the DFTL mapper (CMT/GTD/watermark GC).
        self.mapper: Mapper = MAPPERS[self.config.mapping](self.config)
        self.write_buffer = WriteBuffer(self.config.write_buffer_pages)
        #: The retry-step grid every page read queries (one per
        #: configuration and RPT, shared process-wide).
        self.grid = shared_grid(self.config, rpt)
        self.metrics = SimulationMetrics()
        self._addressing = PageAddressing(self.config)
        # Non-read service times depend on the timing parameters alone.
        # Translation pages are hot, constantly rewritten metadata: they
        # read at default timing with no retry walk — one sensing pass for
        # the page type plus transfer and decode.
        timing = self.config.timing
        self._program_us = timing.t_dma_page_us + timing.t_prog_us
        self._erase_us = timing.t_bers_us
        self._trans_read_us = tuple(
            timing.read.sensing_latency_us(page_type) + timing.t_dma_page_us
            + timing.t_ecc_us
            for page_type in PAGE_TYPE_ORDER)
        #: Per-die state indexed by die number (``channel *
        #: dies_per_channel + die``, what ``FlashTransaction.die`` holds).
        #: The records hold no callback, so nothing the simulator owns
        #: points back at it once the event heap has drained.
        self._dies: List[DieState] = [
            DieState() for _ in range(self.config.channels
                                      * self.config.dies_per_channel)]
        #: The preconditioned ``(pe_cycles, retention_months)``.
        self._precondition = (0, 0.0)
        self._outstanding_requests = 0
        #: Installed by :meth:`install_faults`; ``None`` keeps the read path
        #: and the admission pump byte-for-byte on their fault-free code.
        self._fault_injector: Optional[FaultInjector] = None
        #: True while an in-stream BARRIER is draining the device: the
        #: admission pump stalls until every admitted request completes.
        self._barrier_active = False
        #: Arrival time of the earliest barrier seen this run.  Requests
        #: stamped after it may legitimately be admitted "late" (the drain
        #: stalled the pump past their arrival time); they are admitted at
        #: the current clock, so the barrier's cost lands in their latency.
        self._barrier_stall_begin_us = float("inf")
        # Streaming admission state (valid only during run()).
        self._source: Optional[Iterator[HostRequest]] = None
        self._source_exhausted = True
        self._scheduled_arrivals = 0
        self._lookahead = DEFAULT_LOOKAHEAD_REQUESTS
        # Completion bookkeeping for in-flight reads, keyed by request_id —
        # the simulator never writes to caller-owned HostRequest objects.
        # Finished trackers go back to a free list, so a streaming run
        # allocates O(max in-flight reads) trackers, not O(trace).
        self._read_progress: Dict[int, _ReadProgress] = {}
        self._progress_pool: list = []
        # Reads only ever see a handful of distinct (P/E, retention)
        # conditions; interning the OperatingCondition objects keeps the
        # per-read path free of dataclass construction and validation.
        self._condition_cache: Dict[tuple, OperatingCondition] = {}
        self._breakdown_cache: Dict[tuple, object] = {}
        #: Optional hook invoked as ``hook(request, now_us)`` whenever a host
        #: request completes (reads: last page ready; writes: buffer
        #: admission).  Closed-loop load generators use it to issue each
        #: client's next request the moment an outstanding one finishes.
        self.on_request_complete: Optional[
            Callable[[HostRequest, float], None]] = None

    @property
    def schedulers(self) -> Dict[tuple, DieState]:
        """The per-die records, keyed by ``(channel, die)``."""
        dies_per_channel = self.config.dies_per_channel
        return {divmod(index, dies_per_channel): die
                for index, die in enumerate(self._dies)}

    @property
    def distinct_read_conditions(self) -> int:
        """How many distinct (P/E, retention) conditions reads have seen.

        Under ``mapping="block"`` this is at most two (preconditioned cold
        data and fresh rewrites); live DFTL garbage collection erodes that
        uniformity, and this counter is how the wear_dynamics experiment
        shows the condition diversity GC creates.
        """
        return len(self._condition_cache)

    # -- preconditioning ------------------------------------------------------------
    def precondition(self, pe_cycles: int = 0, retention_months: float = 0.0,
                     fill_fraction: float = 0.85) -> None:
        """Install the experiment's operating condition (Section 7.1).

        Every block receives the requested P/E-cycle count and the logical
        space is pre-filled with data whose retention age is
        ``retention_months``.  Pages the workload overwrites during the run
        become fresh again, so cold pages (never updated) retain the long
        retention age — exactly the behaviour the paper's cold-ratio
        discussion relies on.
        """
        if not 0.0 < fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in (0, 1]")
        pages_to_fill = int(self.config.logical_pages * fill_fraction)
        self.mapper.precondition_fill(pages_to_fill,
                                      retention_months=retention_months,
                                      pe_cycles=pe_cycles)
        self._precondition = (pe_cycles, retention_months)
        # Most reads of the run see the cold preconditioned data; keep a
        # retry-grid slab for it up front so those reads count as grid hits
        # from the first.  Its rows are computed as reads first need them;
        # the fresh-write condition and GC-created P/E levels get their
        # slabs once their reads actually appear.
        self.grid.prefill([self._precondition])

    # -- fault injection ------------------------------------------------------------
    def install_faults(self, plan) -> None:
        """Arm a :class:`~repro.ssd.faults.FaultPlan` for the next run.

        An empty plan installs nothing, keeping the simulator on the exact
        fault-free code path.  Call after :meth:`precondition` and before
        :meth:`run`.
        """
        plan = FaultPlan.coerce(plan)
        if not plan:
            return
        # The one place the mapping matters outside construction: only the
        # DFTL can retire a block (DftlMapper.retire_block).
        if self.config.mapping != "page" and any(
                spec.kind == "grown_bad_blocks" for spec in plan.faults):
            raise ValueError(
                "grown_bad_blocks faults require the page-mapped FTL "
                '(SsdConfig(mapping="page"))')
        self._fault_injector = FaultInjector(plan, self.config)

    def retire_bad_block(self, plane_index: int, block_id: int) -> None:
        """Retire one grown-bad block, scheduling its remap flash traffic."""
        operation = self.mapper.retire_block(plane_index, block_id,
                                            self.events.now_us)
        self._enqueue_block_work(operation)
        self.metrics.fault_remapped_pages += operation.relocated_pages
        self.metrics.grown_bad_blocks += 1

    # -- running ----------------------------------------------------------------------
    def run(self, requests: Iterable[HostRequest],
            lookahead: int = DEFAULT_LOOKAHEAD_REQUESTS) -> SimulationResult:
        """Simulate a stream of host requests and return the result.

        ``requests`` may be any iterable, including a generator: arrivals
        are injected through a bounded-lookahead admission pump that keeps
        at most ``lookahead`` future arrivals scheduled, so the event
        queue's size — and therefore the run's memory — is independent of
        the stream length.  Streams must be ordered by arrival time up to
        the lookahead window (workload generators and trace readers emit
        monotone arrivals); pre-materialized sequences are sorted up front,
        preserving the historical contract for explicit request lists.
        """
        if lookahead < 1:
            raise ValueError("lookahead must be at least 1")
        if isinstance(requests, Sequence):
            source: Iterator[HostRequest] = iter(
                sorted(requests, key=lambda request: request.arrival_us))
        else:
            source = iter(requests)
        self._source = source
        self._source_exhausted = False
        self._scheduled_arrivals = 0
        self._lookahead = lookahead
        try:
            self._pump()
            self.events.run()
            self._check_drained()
        finally:
            # Release generator-backed sources deterministically even when
            # the run aborts mid-stream (e.g. an out-of-order trace): a
            # suspended `iter_msrc_csv` generator holds an open file handle
            # until close() runs its with-block exit.
            closer = getattr(self._source, "close", None)
            self._source = None
            self._source_exhausted = True
            if closer is not None:
                closer()
        return self._finalize_run()

    def run_closed_loop(self, source) -> SimulationResult:
        """Simulate a closed-loop load generator instead of an open stream.

        ``source`` is a :class:`~repro.workloads.closed_loop.ClosedLoopSource`
        (or anything with its ``start()``/``on_complete()`` protocol): every
        client keeps a fixed number of requests outstanding, and each
        completion triggers the owning client's next request after its think
        time.  Arrival times therefore *react to device latency* — the
        classical closed-loop model — rather than following a fixed trace.
        """
        initial = source.start()
        if self.on_request_complete is not None:
            raise RuntimeError(
                "on_request_complete is already in use; run_closed_loop "
                "installs its own completion hook")
        # Requests carry their client index in queue_id; per-client latency
        # attribution is part of the closed-loop model.
        self.track_tenants = True
        self.on_request_complete = (
            lambda request, now: self._inject_followups(source, request, now))
        try:
            for request in initial:
                self.inject(request)
            self.events.run()
            self._check_drained()
        finally:
            self.on_request_complete = None
        return self._finalize_run()

    def _check_drained(self) -> None:
        """Raise unless every admitted request completed.

        Nothing is left to run once the event queue drains, so a request
        still outstanding then would never complete: a read whose page was
        lost, or a write the buffer never admits.
        """
        if self._outstanding_requests:
            raise RuntimeError(
                "the event queue drained with "
                f"{self._outstanding_requests} admitted requests still "
                f"outstanding: {len(self._read_progress)} in-flight reads, "
                f"{self.write_buffer.waiting_count} waiting writes")

    def inject(self, request: HostRequest) -> None:
        """Schedule one host request's arrival directly (closed-loop path).

        Bypasses the streaming admission pump: closed-loop sources create
        arrivals in reaction to completions, so there is no ordered stream
        to pump from.  The arrival must not be in the simulated past.
        """
        if request.arrival_us < self.events.now_us:
            raise ValueError(
                f"request {request.request_id} arrives at "
                f"{request.arrival_us} us, before the current simulation "
                f"clock ({self.events.now_us} us)")
        self._outstanding_requests += 1
        self.events.schedule_call(request.arrival_us,
                                  self._on_request_arrival, request)

    def _inject_followups(self, source, request: HostRequest,
                          now_us: float) -> None:
        for followup in source.on_complete(request, now_us):
            self.inject(followup)

    def _finalize_run(self) -> SimulationResult:
        self.metrics.simulated_time_us = self.events.now_us
        # Each die's busy time is cumulative over every run of this
        # simulator, as the clock is: store it, do not add it again.
        for key, die in self.schedulers.items():
            self.metrics.die_busy_us[key] = die.total_busy_us
        # Translation reads/writes and grid hits are counted as they
        # happen; the mapper-internal cache and GC counters are
        # snapshotted here.
        self.metrics.mapping_cache_hits = self.mapper.cmt_hits
        self.metrics.mapping_cache_misses = self.mapper.cmt_misses
        self.metrics.gc_invocations = self.mapper.gc_invocations
        return SimulationResult(
            policy_name=self.policy.name,
            config=self.config,
            metrics=self.metrics,
            preconditioned_pe_cycles=self._precondition[0],
            preconditioned_retention_months=self._precondition[1],
            device_id=self.device_id,
            distinct_read_conditions=self.distinct_read_conditions)

    def _pump(self) -> None:
        """Admit arrivals from the source until the lookahead window is full.

        The window deficit is pulled and validated in stream order, then
        handed to the event core as one bulk push: arrivals get their
        sequence numbers in admission order (ties break exactly as with
        per-request pushes), and a full-window refill pays one heapify
        instead of 64 sift-ups.  Nothing executes between the pulls — the
        pump runs to completion before the event loop resumes — so deferring
        the heap insertion to the end of the pull loop is unobservable.
        """
        if self._barrier_active or self._source_exhausted:
            return
        deficit = self._lookahead - self._scheduled_arrivals
        if deficit <= 0:
            return
        now_us = self.events.now_us
        admitted = []
        try:
            while deficit > 0:
                try:
                    # Explicit StopIteration handling: a stray None element
                    # in a buggy stream must error out below, not end the
                    # run early.
                    request = next(self._source)
                except StopIteration:
                    self._source_exhausted = True
                    break
                arrival_us = request.arrival_us
                if arrival_us < now_us:
                    if arrival_us >= self._barrier_stall_begin_us:
                        # The request is late only because a barrier drained
                        # the device past its stamped arrival; admit it now —
                        # the stall becomes part of its measured response
                        # time.
                        arrival_us = now_us
                    else:
                        raise ValueError(
                            f"request {request.request_id} arrives at "
                            f"{request.arrival_us} us, before the admission "
                            f"pump's clock ({self.events.now_us} us); "
                            "streamed requests must be ordered by arrival "
                            "time up to the lookahead window (currently "
                            f"{self._lookahead} requests) — sort the stream "
                            "or raise run(..., lookahead=N)")
                self._outstanding_requests += 1
                self._scheduled_arrivals += 1
                admitted.append((arrival_us, request))
                deficit -= 1
        finally:
            # Flush even when a mid-window pull raises: every admission
            # counted above must own an event.
            if len(admitted) == 1:
                self.events.schedule_call(admitted[0][0],
                                          self._on_request_arrival,
                                          admitted[0][1])
            elif admitted:
                self.events.schedule_batch(self._on_request_arrival, admitted)

    # -- host-request handling ------------------------------------------------------------
    def _on_request_arrival(self, request: HostRequest) -> None:
        self._scheduled_arrivals -= 1
        self._pump()
        if self._fault_injector is not None:
            self._fault_injector.poll(self, self.events.now_us)
        if request.kind is RequestKind.READ:
            self._start_read_request(request)
        elif request.kind is RequestKind.WRITE:
            self._admit_or_defer_write(request)
        else:
            self._handle_control_request(request)

    def _handle_control_request(self, request: HostRequest) -> None:
        """Apply an in-stream control event (DISCARD / BARRIER / MARK).

        Control events move no data and are never recorded into the latency
        histograms; they complete instantly at arrival (a barrier's cost
        shows up as the admission stall it causes, not as its own latency).
        """
        now = self.events.now_us
        if request.kind is RequestKind.DISCARD:
            self.metrics.control_discards += 1
            for lpn in request.lpns:
                lpn %= self.config.logical_pages
                if self.mapper.is_mapped(lpn):
                    self.metrics.trimmed_pages += 1
                self._issue_translation_ops(self.mapper.trim(lpn, now))
            self._run_gc_if_needed()
        elif request.kind is RequestKind.BARRIER:
            self.metrics.control_barriers += 1
            self._barrier_active = True
            self._barrier_stall_begin_us = min(self._barrier_stall_begin_us,
                                               now)
        else:
            self.metrics.control_marks += 1
        self._outstanding_requests -= 1
        if self.on_request_complete is not None:
            self.on_request_complete(request, now)
        self._maybe_resume_after_barrier()

    def _maybe_resume_after_barrier(self) -> None:
        if self._barrier_active and self._outstanding_requests == 0:
            self._barrier_active = False
            self._pump()

    def _start_read_request(self, request: HostRequest) -> None:
        if self._progress_pool:
            progress = self._progress_pool.pop()
            progress.pending_pages = request.page_count
            progress.last_page_ready_us = 0.0
        else:
            progress = _ReadProgress(request.page_count)
        self._read_progress[request.request_id] = progress
        now_us = self.events.now_us
        enqueue = self._enqueue
        read_target = self.mapper.read_target_packed
        logical_pages = self.config.logical_pages
        pages_per_die = self._addressing.pages_per_die
        for lpn in range(request.start_lpn,
                         request.start_lpn + request.page_count):
            packed, ops = read_target(lpn % logical_pages, now_us)
            if ops:
                self._issue_translation_ops(ops)
            enqueue(FlashTransaction(_READ, lpn, packed,
                                     packed // pages_per_die, now_us,
                                     request))

    def _admit_or_defer_write(self, request: HostRequest) -> None:
        if self.write_buffer.try_admit(request.page_count):
            self._complete_write_admission(request)
        elif request.page_count > self.write_buffer.capacity_pages:
            # It could wait only forever, and every write behind it too.
            raise ValueError(
                f"write request {request.request_id} of "
                f"{request.page_count} pages can never fit the "
                f"{self.write_buffer.capacity_pages}-page write buffer")
        else:
            self.write_buffer.enqueue_waiter(request)

    def _complete_write_admission(self, request: HostRequest) -> None:
        now = self.events.now_us
        self.metrics.record_write(
            now - request.arrival_us,
            tenant=request.queue_id if self.track_tenants else None)
        self._outstanding_requests -= 1
        logical_pages = self.config.logical_pages
        for lpn in range(request.start_lpn,
                         request.start_lpn + request.page_count):
            self._issue_program(lpn % logical_pages, request)
        self._run_gc_if_needed()
        if self.on_request_complete is not None:
            self.on_request_complete(request, now)
        self._maybe_resume_after_barrier()

    def _issue_program(self, lpn: int, request: Optional[HostRequest]) -> None:
        now_us = self.events.now_us
        packed, ops = self.mapper.program(lpn, now_us)
        if ops:
            self._issue_translation_ops(ops)
        self.metrics.host_programs += 1
        self._enqueue(FlashTransaction(
            _PROGRAM, lpn, packed, packed // self._addressing.pages_per_die,
            now_us, request))

    def _issue_translation_ops(self, ops: Sequence[TranslationOp]) -> None:
        """Schedule DFTL translation-page traffic as real flash transactions."""
        now_us = self.events.now_us
        enqueue = self._enqueue
        pages_per_die = self._addressing.pages_per_die
        metrics = self.metrics
        for kind, packed in ops:
            if kind is _TRANS_READ:
                metrics.translation_reads += 1
            else:
                metrics.translation_writes += 1
            enqueue(FlashTransaction(kind, None, packed,
                                     packed // pages_per_die, now_us, None))

    # -- the flash-transaction lifecycle ----------------------------------------------------
    def _enqueue(self, transaction: FlashTransaction) -> None:
        """Queue ``transaction`` on its die; it may start at once or
        suspend the die's running program or erase."""
        die = self._dies[transaction.die]
        if (die.running is None and not die.read_queue
                and not die.write_queue):
            # An idle die with nothing queued serves the newcomer at once.
            # Queued work on an idle die (a completion enqueueing before
            # the die restarts) must go first, so it takes the queue path.
            self._start(die, transaction)
            return
        kind = transaction.kind
        is_read = kind is _READ or kind is _GC_READ or kind is _TRANS_READ
        if is_read and self.config.read_priority:
            die.read_queue.append(transaction)
        else:
            die.write_queue.append(transaction)
        if die.running is not None:
            if not is_read or die.completion is None:
                return
            # Only a suspendable program or erase has a completion sequence.
            self._suspend(die)
        self._start(die, (die.read_queue or die.write_queue).popleft())

    def _suspend(self, die: DieState) -> None:
        """Suspend the die's running program or erase so a read runs first."""
        transaction = die.running
        events = self.events
        events.cancel(die.completion)
        elapsed = max(0.0, events.now_us - die.start_us)
        remaining = max(0.0, die.service_us - elapsed)
        timing = self.config.timing
        if transaction.kind is _ERASE:
            overhead = timing.erase_suspend_us
        else:
            overhead = timing.program_suspend_us
        transaction.remaining_service_us = remaining + overhead
        transaction.was_suspended = True
        die.total_busy_us += elapsed
        die.write_queue.appendleft(transaction)
        die.running = None
        die.suspensions += 1

    def _start(self, die: DieState, transaction: FlashTransaction) -> None:
        """Price ``transaction`` and push its completion onto the heap."""
        # The die is busy before the transaction is priced.  Pricing a read
        # polls the fault injector, and a fault it activates may retire a
        # block and enqueue the relocation onto this die: that work must
        # queue behind this transaction, not start and be displaced.  With
        # no completion sequence yet, such a read does not try to suspend
        # it either.
        die.running = transaction
        die.completion = None
        events = self.events
        now = events.now_us
        kind = transaction.kind
        # A suspended program or erase resumes with what it has left.
        service = transaction.remaining_service_us
        if service is None:
            # Host and GC reads dominate every workload; what is left after
            # translation reads and erases is a host, GC or translation
            # program.
            if kind is _READ or kind is _GC_READ:
                service = self._read_service_time(transaction)
            elif kind is _TRANS_READ:
                service = self._trans_read_us[
                    transaction.packed % self._addressing.pages_per_block
                    % _PAGE_TYPES]
            elif kind is _ERASE:
                service = self._erase_us
            else:
                service = self._program_us
        if transaction.service_start_us is None:
            transaction.service_start_us = now
        # The sequence is drawn after pricing, which may schedule events.
        sequence = next(events.sequence)
        if (kind is not _READ and kind is not _GC_READ
                and kind is not _TRANS_READ and self.config.suspension):
            # Only an operation a read may suspend needs to be cancellable.
            die.completion = sequence
        heappush(events.heap, (now + service, sequence, self._complete,
                               transaction))
        die.start_us = now
        die.service_us = service

    def _complete(self, transaction: FlashTransaction) -> None:
        """Finish ``transaction`` and start its die's next one."""
        die = self._dies[transaction.die]
        die.total_busy_us += die.service_us
        transaction.completion_us = self.events.now_us
        die.running = None
        die.completed_transactions += 1
        kind = transaction.kind
        if kind is _READ:
            steps = transaction.retry_steps
            metrics = self.metrics
            counts = metrics.retry_step_counts
            counts[steps] = counts.get(steps, 0) + 1
            metrics.pages_read += 1
            request = transaction.request
            if request is not None:
                progress = self._read_progress[request.request_id]
                page_ready_us = (transaction.service_start_us
                                 + transaction.response_us)
                if page_ready_us > progress.last_page_ready_us:
                    progress.last_page_ready_us = page_ready_us
                progress.pending_pages -= 1
                if progress.pending_pages == 0:
                    self._finish_read(request, progress)
        elif kind is _PROGRAM:
            self._release_host_program()
        # GC reads/programs, erases and translation traffic need no
        # bookkeeping beyond the die's own.  The bookkeeping above may
        # have started new work on this die already.
        if die.running is None:
            queue = die.read_queue or die.write_queue
            if queue:
                self._start(die, queue.popleft())

    # -- flash service times -----------------------------------------------------------------
    def _read_service_time(self, transaction: FlashTransaction) -> float:
        """Price one host or GC page read: set its retry steps and
        response time, and return how long it occupies the die."""
        packed = transaction.packed
        now_us = self.events.now_us
        pe_cycles, retention = self.mapper.read_condition_packed(packed,
                                                                 now_us)
        pages_per_block = self._addressing.pages_per_block
        page_type = packed % pages_per_block % _PAGE_TYPES
        behaviour, from_grid = self.grid.behaviour_at(
            page_type, pe_cycles, retention, packed // pages_per_block)
        if from_grid:
            self.metrics.grid_hits += 1
        else:
            self.metrics.scalar_fallbacks += 1
        fault_extra = 0
        fault_factor = 1.0
        if self._fault_injector is not None:
            self._fault_injector.record_read(packed)
            self._fault_injector.poll(self, now_us)
            fault_extra, fault_factor = self._fault_injector.read_penalty(
                packed, now_us)
            if fault_extra:
                behaviour = behaviour.degraded(fault_extra)
        if self._uses_reduced_timing:
            steps = behaviour.retry_steps_reduced
        else:
            steps = behaviour.retry_steps
        # The per-read fast path: a breakdown is a pure function of the
        # policy, the temperature (both fixed per simulator), the steps, the
        # page type and the condition.  A miss asks the policy's
        # process-wide price memo, which other simulators of the same
        # pricing identity may already have filled.  A first read under any
        # new (P/E, retention) always misses here, so the condition-diversity
        # counter (``len(self._condition_cache)``) still sees every distinct
        # condition.
        breakdown_key = (steps, page_type, pe_cycles, retention)
        breakdown = self._breakdown_cache.get(breakdown_key)
        if breakdown is None:
            condition_key = (pe_cycles, retention)
            condition = self._condition_cache.get(condition_key)
            if condition is None:
                condition = OperatingCondition(
                    pe_cycles=pe_cycles, retention_months=retention,
                    temperature_c=self.config.temperature_c)
                self._condition_cache[condition_key] = condition
            breakdown = self.policy.shared_breakdown(
                steps, PAGE_TYPE_ORDER[page_type], condition)
            self._breakdown_cache[breakdown_key] = breakdown
        response_us = breakdown.response_us
        die_busy_us = breakdown.die_busy_us

        if behaviour.reduced_timing_fallback and self._uses_reduced_timing:
            # The reduced-timing retry operation exhausted the table; AR2
            # falls back to a full default-timing read-retry operation
            # (Section 6.2).  Charge the failed attempt plus the fallback.
            fallback = self.policy.latency_model.baseline(
                behaviour.retry_steps, PAGE_TYPE_ORDER[page_type])
            response_us += fallback.response_us
            die_busy_us += fallback.die_busy_us
            self.metrics.reduced_timing_fallbacks += 1

        if fault_extra or fault_factor != 1.0:
            # A degraded die/plane stretches the whole operation — sensing,
            # transfer and decode alike — so the factor applies on top of
            # whatever extra retry steps the fault already added.
            response_us *= fault_factor
            die_busy_us *= fault_factor
            self.metrics.faulted_reads += 1

        transaction.retry_steps = breakdown.retry_steps
        transaction.response_us = response_us
        return die_busy_us

    # -- completions ----------------------------------------------------------------------------
    def _finish_read(self, request: HostRequest,
                     progress: _ReadProgress) -> None:
        """Complete a host read whose last page is ready."""
        del self._read_progress[request.request_id]
        self._progress_pool.append(progress)
        self.metrics.record_read(
            progress.last_page_ready_us - request.arrival_us,
            tenant=request.queue_id if self.track_tenants else None)
        self._outstanding_requests -= 1
        if self.on_request_complete is not None:
            self.on_request_complete(request, self.events.now_us)
        self._maybe_resume_after_barrier()

    def _release_host_program(self) -> None:
        """A host page is on flash: free its buffer slot for waiting writes."""
        self.write_buffer.release(1)
        self._admit_waiting_writes()
        self._run_gc_if_needed()

    def _admit_waiting_writes(self) -> None:
        while True:
            waiter = self.write_buffer.pop_waiter()
            if waiter is None:
                return
            if self.write_buffer.try_admit(waiter.page_count):
                self._complete_write_admission(waiter)
            else:
                self.write_buffer.requeue_waiter_front(waiter)
                return

    # -- garbage collection ------------------------------------------------------------------------
    def _run_gc_if_needed(self) -> None:
        for operation in self.mapper.collect_if_needed(self.events.now_us):
            self._enqueue_block_work(operation)
            self.metrics.gc_programs += operation.relocated_pages
            self.metrics.gc_erases += 1

    def _enqueue_block_work(self, operation: GcOperation) -> None:
        """Schedule a collected or retired block's flash work, in order:
        each relocation's read and program, the batched translation
        updates, then the victim's erase."""
        now_us = self.events.now_us
        enqueue = self._enqueue
        pages_per_die = self._addressing.pages_per_die
        for source, destination in zip(operation.relocations,
                                       operation.destinations):
            enqueue(FlashTransaction(_GC_READ, None, source,
                                     source // pages_per_die, now_us, None))
            enqueue(FlashTransaction(_GC_PROGRAM, None, destination,
                                     destination // pages_per_die, now_us,
                                     None))
        self._issue_translation_ops(operation.translation_ops)
        erase_target = operation.erase_target
        enqueue(FlashTransaction(_ERASE, None, erase_target,
                                 erase_target // pages_per_die, now_us, None))
