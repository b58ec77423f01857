"""Simulation statistics with fixed-memory latency recording.

The paper's primary metric is the average SSD response time (Figures 14 and
15), normalized to the Baseline configuration, but the real-world value of
the read-retry policies is in the latency *tail*.  This module records
per-request response times in a :class:`LatencyHistogram` — a log-bucketed
histogram plus exact counters whose memory footprint is independent of the
trace length — so a million-request streaming run costs the same few
kilobytes of metric state as a hundred-request smoke run.

Exactness guarantees:

* ``count``, ``min``, ``max`` and the retry-step distribution are exact;
* the mean is computed from a Neumaier-compensated running sum (accurate to
  the last few ulps of the list-based mean it replaces — identical after
  the 2-decimal rounding every reporting surface applies);
* ``percentile(p)`` (and the ``p99``/``p999`` conveniences) is a histogram
  estimate whose relative error is bounded by the bucket width — with
  :data:`SUBBUCKETS_PER_OCTAVE` = 64 sub-buckets per power of two, at most
  about 1.6%.

No per-request sample is kept, so nothing can depend on unbounded memory.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

#: Sub-buckets per power of two.  The relative width of one bucket is
#: ``1/SUBBUCKETS_PER_OCTAVE`` of its octave, bounding the percentile
#: estimate's relative error at roughly 1.6%.
SUBBUCKETS_PER_OCTAVE = 64
_SUB_PER_OCTAVE_X2 = 2 * SUBBUCKETS_PER_OCTAVE

#: Latencies below the floor (sub-nanosecond; e.g. the exact 0.0 us of a
#: buffered write hit) share bucket 0; latencies above the cap (~13 days)
#: clamp into the last bucket.  51 octaves x 64 sub-buckets + the floor
#: bucket = 3265 possible buckets, stored sparsely.
MIN_TRACKED_US = 2.0 ** -10
MAX_TRACKED_US = 2.0 ** 40
_EXP_MIN = math.frexp(MIN_TRACKED_US)[1]  # -9
_EXP_MAX = math.frexp(MAX_TRACKED_US)[1]  # 41
_LAST_BUCKET = (_EXP_MAX - _EXP_MIN + 1) * SUBBUCKETS_PER_OCTAVE


def _bucket_bounds(index: int) -> tuple:
    """The ``[lower, upper)`` value range of a bucket."""
    if index <= 0:
        return (0.0, MIN_TRACKED_US)
    octave, sub = divmod(index - 1, SUBBUCKETS_PER_OCTAVE)
    scale = 2.0 ** (_EXP_MIN + octave - 1)
    lower = scale * (1.0 + sub / SUBBUCKETS_PER_OCTAVE)
    upper = scale * (1.0 + (sub + 1) / SUBBUCKETS_PER_OCTAVE)
    return (lower, upper)


def _bucket_midpoint(index: int) -> float:
    lower, upper = _bucket_bounds(index)
    return (lower + upper) / 2.0 if index > 0 else 0.0


class LatencyHistogram:
    """Fixed-memory latency recorder: log-bucketed counts + exact moments.

    The histogram's memory is bounded by the number of *distinct buckets*
    touched (at most a few thousand, typically a few dozen), never by the
    number of recorded samples.  ``merge()`` combines two histograms — the
    primitive sweep aggregation and per-policy tail reports build on.
    """

    __slots__ = ("_counts", "count", "_sum", "_compensation", "min_us",
                 "max_us")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.count = 0
        self._sum = 0.0
        self._compensation = 0.0
        self.min_us = math.inf
        self.max_us = -math.inf

    # -- recording ------------------------------------------------------------
    def record(self, value: float) -> None:
        # Validate before any mutation: a NaN/inf must not poison the
        # running sum or the min/max trackers on its way to the error.
        if not (value >= 0.0) or value == math.inf:
            raise ValueError("latency must be a non-negative finite number")
        # _add_to_sum, inlined: record() is the per-request hot call.
        previous = self._sum
        total = previous + value
        if abs(previous) >= abs(value):
            self._compensation += (previous - total) + value
        else:
            self._compensation += (value - total) + previous
        self._sum = total
        self.count += 1
        if value < self.min_us:
            self.min_us = value
        if value > self.max_us:
            self.max_us = value
        # The value's bucket, mapped inline for the same reason.  frexp
        # gives value = mantissa * 2**exponent, mantissa in [0.5, 1).
        if value < MIN_TRACKED_US:
            index = 0
        elif value >= MAX_TRACKED_US:
            index = _LAST_BUCKET
        else:
            mantissa, exponent = math.frexp(value)
            index = (
                1
                + (exponent - _EXP_MIN) * SUBBUCKETS_PER_OCTAVE
                + int((mantissa - 0.5) * _SUB_PER_OCTAVE_X2)
            )
        self._counts[index] = self._counts.get(index, 0) + 1

    def _add_to_sum(self, value: float) -> None:
        # Neumaier-compensated accumulation: the mean of a million-sample
        # stream matches the exact list-based mean to the last few ulps.
        total = self._sum + value
        if abs(self._sum) >= abs(value):
            self._compensation += (self._sum - total) + value
        else:
            self._compensation += (value - total) + self._sum
        self._sum = total

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram in place (and return self)."""
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self.count += other.count
        self._add_to_sum(other.total_us)
        self.min_us = min(self.min_us, other.min_us)
        self.max_us = max(self.max_us, other.max_us)
        return self

    # -- aggregate views ------------------------------------------------------
    @property
    def total_us(self) -> float:
        return self._sum + self._compensation

    def mean(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """Histogram estimate of ``numpy.percentile(samples, percentile)``.

        Mirrors numpy's linear interpolation between order statistics at
        bucket resolution; the estimate's relative error is bounded by the
        bucket width (~1.6% with 64 sub-buckets per octave).
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = (self.count - 1) * (percentile / 100.0)
        lower_rank = math.floor(rank)
        lower = self._value_at_rank(lower_rank)
        if rank == lower_rank:
            return lower
        upper = self._value_at_rank(lower_rank + 1)
        return lower + (upper - lower) * (rank - lower_rank)

    def _value_at_rank(self, rank: int) -> float:
        """The bucket-midpoint estimate of the rank-th order statistic."""
        seen = 0
        last_index = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            last_index = index
            if rank < seen:
                break
        if last_index >= _LAST_BUCKET:
            # The overflow bucket has no meaningful midpoint; the exactly
            # tracked maximum is the best available representative.
            return self.max_us
        # Clamp the estimate into the exactly-tracked range so single-bucket
        # distributions report their true min/max rather than bucket edges.
        midpoint = _bucket_midpoint(last_index)
        return max(self.min_us, min(self.max_us, midpoint))

    def p99(self) -> float:
        return self.percentile(99.0)

    def p999(self) -> float:
        return self.percentile(99.9)

    # -- introspection --------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        """Number of distinct buckets touched (the memory footprint)."""
        return len(self._counts)

    def copy(self) -> "LatencyHistogram":
        duplicate = LatencyHistogram()
        duplicate._counts = dict(self._counts)
        duplicate.count = self.count
        duplicate._sum = self._sum
        duplicate._compensation = self._compensation
        duplicate.min_us = self.min_us
        duplicate.max_us = self.max_us
        return duplicate

    def to_dict(self) -> dict:
        """JSON-able snapshot (bucket counts keyed by index)."""
        return {
            "counts": {str(index): count
                       for index, count in sorted(self._counts.items())},
            "count": self.count,
            "sum_us": self.total_us,
            "min_us": self.min_us if self.count else None,
            "max_us": self.max_us if self.count else None,
        }

    # -- exact checkpoint round-trip ------------------------------------------
    def to_state(self) -> dict:
        """Bitwise-exact, JSON-able state (the checkpoint serialization).

        Unlike :meth:`to_dict` (a sorted reporting snapshot), the state
        preserves the *insertion order* of the bucket counts and the exact
        compensated-sum pair, so ``from_state(to_state(h))`` merges bitwise
        identically to ``h`` itself — float summation is not associative,
        and :meth:`merge` folds ``_counts`` in insertion order.
        """
        return {
            "counts": [[index, count] for index, count in self._counts.items()],
            "count": self.count,
            "sum": self._sum,
            "compensation": self._compensation,
            "min_us": self.min_us if self.count else None,
            "max_us": self.max_us if self.count else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LatencyHistogram":
        """Rebuild a histogram bitwise-identical to ``to_state``'s source."""
        histogram = cls()
        histogram._counts = {int(index): int(count)
                             for index, count in state["counts"]}
        histogram.count = int(state["count"])
        histogram._sum = float(state["sum"])
        histogram._compensation = float(state["compensation"])
        if histogram.count:
            histogram.min_us = float(state["min_us"])
            histogram.max_us = float(state["max_us"])
        return histogram

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (self._counts == other._counts and self.count == other.count
                and self.total_us == other.total_us
                and (self.count == 0
                     or (self.min_us == other.min_us
                         and self.max_us == other.max_us)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LatencyHistogram(count={self.count}, "
                f"mean={self.mean():.2f}us, buckets={self.bucket_count})")

    # -- pickling (slots) -----------------------------------------------------
    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)


class SimulationMetrics:
    """Mutable collector of simulation statistics.

    Response times are held in two :class:`LatencyHistogram` instances
    (reads and writes) and retry steps in an exact per-step counter, so the
    collector's memory does not grow with the trace.
    """

    #: Every scalar counter :meth:`merge` folds by summation — fleet and
    #: sweep aggregation iterate this tuple, so a counter added to
    #: ``__init__`` but not listed here would silently stay zero on merged
    #: results.  ``tests/test_ssd_metrics.py`` cross-checks the tuple
    #: against the collector's actual integer attributes.
    COUNTER_FIELDS = (
        "pages_read",
        "host_reads",
        "host_writes",
        "host_programs",
        "gc_programs",
        "gc_erases",
        "gc_invocations",
        "translation_reads",
        "translation_writes",
        "mapping_cache_hits",
        "mapping_cache_misses",
        "reduced_timing_fallbacks",
        "grid_hits",
        "scalar_fallbacks",
        "control_barriers",
        "control_marks",
        "control_discards",
        "trimmed_pages",
        "fault_injections",
        "faulted_reads",
        "grown_bad_blocks",
        "fault_remapped_pages",
    )

    def __init__(self):
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        #: Per-tenant response-time histograms, keyed by the requests'
        #: ``queue_id`` (the tenant tag a :class:`TenantMix` stamps).  A
        #: single-tenant run keeps everything under key 0; memory is one
        #: fixed-size histogram per distinct tenant, never per request.
        self.tenant_latency: Dict[int, LatencyHistogram] = {}
        #: Exact distribution of retry steps over completed page reads.
        self.retry_step_counts: Dict[int, int] = {}
        self.pages_read = 0
        self.die_busy_us: Dict[tuple, float] = {}
        self.host_reads = 0
        self.host_writes = 0
        self.host_programs = 0
        self.gc_programs = 0
        self.gc_erases = 0
        #: DFTL (``mapping="page"``) wear-dynamics counters; they stay zero
        #: under the default block mapping.
        self.gc_invocations = 0
        self.translation_reads = 0
        self.translation_writes = 0
        self.mapping_cache_hits = 0
        self.mapping_cache_misses = 0
        self.reduced_timing_fallbacks = 0
        self.simulated_time_us = 0.0
        #: Reads whose retry behaviour came from a precomputed grid slab.
        self.grid_hits = 0
        #: Reads that needed an exact scalar walk (cold condition).
        self.scalar_fallbacks = 0
        #: In-stream control events (``RequestKind.BARRIER``/``MARK``/
        #: ``DISCARD``) seen by the controller, and logical pages actually
        #: unmapped by discards; all stay zero on control-free streams.
        self.control_barriers = 0
        self.control_marks = 0
        self.control_discards = 0
        self.trimmed_pages = 0
        #: Fault-injection accounting (``repro.ssd.faults``): activated
        #: fault specs, reads penalized by an active fault, blocks retired
        #: as grown-bad, and valid pages relocated by those retirements.
        self.fault_injections = 0
        self.faulted_reads = 0
        self.grown_bad_blocks = 0
        self.fault_remapped_pages = 0

    # -- recording ------------------------------------------------------------
    def record_read(self, response_us: float,
                    retry_steps: Optional[int] = None,
                    tenant: Optional[int] = None) -> None:
        """Record one completed host read request.

        ``retry_steps`` additionally records one page-read retry count —
        convenient for synthetic metrics in tests; the simulator records its
        per-page retry steps separately via :meth:`record_retry_steps`.
        ``tenant`` attributes the sample to a per-tenant histogram as well.
        """
        if response_us < 0:
            raise ValueError("response_us must be non-negative")
        self.read_latency.record(response_us)
        self.host_reads += 1
        if tenant is not None:
            self._tenant_histogram(tenant).record(response_us)
        if retry_steps is not None:
            self.record_retry_steps(retry_steps)

    def record_retry_steps(self, steps: int) -> None:
        """Record the retry-step count of one completed page read."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self.retry_step_counts[steps] = self.retry_step_counts.get(steps, 0) + 1
        self.pages_read += 1

    def record_write(self, response_us: float,
                     tenant: Optional[int] = None) -> None:
        if response_us < 0:
            raise ValueError("response_us must be non-negative")
        self.write_latency.record(response_us)
        self.host_writes += 1
        if tenant is not None:
            self._tenant_histogram(tenant).record(response_us)

    def _tenant_histogram(self, tenant: int) -> LatencyHistogram:
        histogram = self.tenant_latency.get(tenant)
        if histogram is None:
            histogram = self.tenant_latency[tenant] = LatencyHistogram()
        return histogram

    def record_die_busy(self, die_key: tuple, busy_us: float) -> None:
        self.die_busy_us[die_key] = self.die_busy_us.get(die_key, 0.0) + busy_us

    def merge(self, other: "SimulationMetrics") -> "SimulationMetrics":
        """Fold another collector into this one (for sweep aggregation)."""
        self.read_latency.merge(other.read_latency)
        self.write_latency.merge(other.write_latency)
        for tenant, histogram in other.tenant_latency.items():
            self._tenant_histogram(tenant).merge(histogram)
        for steps, count in other.retry_step_counts.items():
            self.retry_step_counts[steps] = (
                self.retry_step_counts.get(steps, 0) + count)
        for die_key, busy in other.die_busy_us.items():
            self.record_die_busy(die_key, busy)
        for counter in self.COUNTER_FIELDS:
            setattr(self, counter,
                    getattr(self, counter) + getattr(other, counter))
        # Summed, matching the summed die_busy_us, so die_utilization() of a
        # merged collector is the time-weighted average across the runs.
        self.simulated_time_us += other.simulated_time_us
        return self

    # -- exact checkpoint round-trip ------------------------------------------
    def to_state(self) -> dict:
        """Bitwise-exact, JSON-able state (the fleet checkpoint payload).

        Every dict is serialized in *insertion order* (``die_utilization``
        sums ``die_busy_us`` values and :meth:`merge` folds dicts in
        iteration order, so restoring them sorted would change float
        summation order).
        """
        return {
            "read_latency": self.read_latency.to_state(),
            "write_latency": self.write_latency.to_state(),
            "tenant_latency": [[tenant, histogram.to_state()]
                               for tenant, histogram
                               in self.tenant_latency.items()],
            "retry_step_counts": [[steps, count] for steps, count
                                  in self.retry_step_counts.items()],
            "die_busy_us": [[list(die_key), busy] for die_key, busy
                            in self.die_busy_us.items()],
            "counters": {name: getattr(self, name)
                         for name in self.COUNTER_FIELDS},
            "simulated_time_us": self.simulated_time_us,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SimulationMetrics":
        """Rebuild a collector bitwise-identical to ``to_state``'s source."""
        metrics = cls()
        metrics.read_latency = LatencyHistogram.from_state(
            state["read_latency"])
        metrics.write_latency = LatencyHistogram.from_state(
            state["write_latency"])
        metrics.tenant_latency = {
            int(tenant): LatencyHistogram.from_state(histogram)
            for tenant, histogram in state["tenant_latency"]}
        metrics.retry_step_counts = {int(steps): int(count)
                                     for steps, count
                                     in state["retry_step_counts"]}
        metrics.die_busy_us = {tuple(die_key): float(busy)
                               for die_key, busy in state["die_busy_us"]}
        for name in cls.COUNTER_FIELDS:
            setattr(metrics, name, int(state["counters"][name]))
        metrics.simulated_time_us = float(state["simulated_time_us"])
        return metrics

    # -- aggregate views ------------------------------------------------------
    def latency(self, kind: str = "all") -> LatencyHistogram:
        """The latency histogram for ``kind`` (``read``/``write``/``all``).

        ``all`` builds a fresh merged histogram; callers taking several
        percentiles should fetch it once and query that.
        """
        kind = kind.lower()
        if kind == "read":
            return self.read_latency
        if kind == "write":
            return self.write_latency
        if kind == "all":
            return self.read_latency.copy().merge(self.write_latency)
        raise ValueError("kind must be 'read', 'write' or 'all'")

    def mean_response_time_us(self, kind: str = "all") -> float:
        if kind.lower() == "all":
            # Combine the exact sums directly instead of merging histograms.
            count = self.read_latency.count + self.write_latency.count
            if not count:
                return 0.0
            return (self.read_latency.total_us
                    + self.write_latency.total_us) / count
        return self.latency(kind).mean()

    def percentile_response_time_us(self, percentile: float,
                                    kind: str = "all") -> float:
        return self.latency(kind).percentile(percentile)

    def p99_response_time_us(self, kind: str = "all") -> float:
        return self.percentile_response_time_us(99.0, kind)

    def p999_response_time_us(self, kind: str = "all") -> float:
        return self.percentile_response_time_us(99.9, kind)

    def max_response_time_us(self, kind: str = "all") -> float:
        histogram = self.latency(kind)
        return histogram.max_us if histogram.count else 0.0

    def mean_retry_steps(self) -> float:
        if not self.pages_read:
            return 0.0
        total = sum(steps * count
                    for steps, count in self.retry_step_counts.items())
        return total / self.pages_read

    def die_utilization(self) -> float:
        """Average fraction of simulated time the dies were busy."""
        if not self.die_busy_us or self.simulated_time_us <= 0:
            return 0.0
        busy = sum(self.die_busy_us.values()) / len(self.die_busy_us)
        return min(1.0, busy / self.simulated_time_us)

    def write_amplification(self) -> float:
        """All flash programs (host + GC + translation) per host program.

        1.0 when nothing was written — an idle device amplifies nothing.
        """
        if self.host_programs <= 0:
            return 1.0
        internal = self.gc_programs + self.translation_writes
        return (self.host_programs + internal) / self.host_programs

    def mapping_cache_hit_rate(self) -> float:
        """CMT hit fraction of the DFTL mapper's demand lookups.

        1.0 when no demand lookups happened: the block mapping's flat
        in-DRAM table serves every translation without a miss.
        """
        lookups = self.mapping_cache_hits + self.mapping_cache_misses
        if lookups == 0:
            return 1.0
        return self.mapping_cache_hits / lookups

    # -- reporting ------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        # Build the merged read+write histogram once for both tail columns.
        combined = self.latency("all")
        return {
            "mean_response_us": round(self.mean_response_time_us(), 2),
            "mean_read_response_us": round(self.mean_response_time_us("read"), 2),
            "mean_write_response_us": round(self.mean_response_time_us("write"), 2),
            "p99_response_us": round(combined.percentile(99.0), 2),
            "p999_response_us": round(combined.percentile(99.9), 2),
            "p99_read_response_us": round(self.read_latency.percentile(99.0), 2),
            "p999_read_response_us": round(self.read_latency.percentile(99.9), 2),
            "mean_retry_steps": round(self.mean_retry_steps(), 2),
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "gc_programs": self.gc_programs,
            "gc_erases": self.gc_erases,
            "gc_invocations": self.gc_invocations,
            "write_amplification": round(self.write_amplification(), 4),
            "mapping_cache_hit_rate": round(self.mapping_cache_hit_rate(), 4),
            "translation_reads": self.translation_reads,
            "translation_writes": self.translation_writes,
            "die_utilization": round(self.die_utilization(), 3),
            "reduced_timing_fallbacks": self.reduced_timing_fallbacks,
            "grid_hits": self.grid_hits,
            "scalar_fallbacks": self.scalar_fallbacks,
            # Retired, held at 0 so perfbench digests and goldens stay valid.
            "batched_completions": 0,
            "batch_dispatch_calls": 0,
            "control_barriers": self.control_barriers,
            "control_marks": self.control_marks,
            "control_discards": self.control_discards,
            "trimmed_pages": self.trimmed_pages,
            "fault_injections": self.fault_injections,
            "faulted_reads": self.faulted_reads,
            "grown_bad_blocks": self.grown_bad_blocks,
            "fault_remapped_pages": self.fault_remapped_pages,
        }


def normalized_response_times(results: Dict[str, "SimulationMetrics"],
                              baseline: str = "Baseline",
                              kind: str = "all") -> Dict[str, float]:
    """Normalize mean response times to a baseline configuration.

    This is the y-axis of Figures 14 and 15 (lower is better, Baseline = 1).
    """
    if baseline not in results:
        raise KeyError(f"baseline {baseline!r} missing from results")
    reference = results[baseline].mean_response_time_us(kind)
    if reference <= 0:
        raise ValueError("baseline mean response time is zero")
    return {name: metrics.mean_response_time_us(kind) / reference
            for name, metrics in results.items()}


def improvement_over(results: Dict[str, "SimulationMetrics"], target: str,
                     reference: str, kind: str = "all") -> float:
    """Fractional response-time reduction of ``target`` relative to ``reference``."""
    ref = results[reference].mean_response_time_us(kind)
    tgt = results[target].mean_response_time_us(kind)
    if ref <= 0:
        raise ValueError("reference mean response time is zero")
    return 1.0 - tgt / ref
