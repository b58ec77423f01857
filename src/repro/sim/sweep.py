"""Parallel (workload x condition x policy) sweep execution.

The Figure 14/15 grids are embarrassingly parallel: every (workload,
condition) cell is an independent simulation.  :class:`SweepRunner` fans the
cells out over a ``multiprocessing`` pool — the first time this codebase can
use more than one core — while guaranteeing that ``processes=N`` produces
*bitwise-identical* rows to a serial run:

* every cell is executed by the same pure worker function, seeded only by
  its own (workload, condition) payload;
* configs and workload specs travel to the workers as plain dicts (the same
  JSON round-trip a run manifest uses); a custom RPT, being immutable
  tabular data, is pickled as-is;
* results come back in deterministic (workload, condition) submission order.

The pool uses the ``fork`` start method where available so that policies
registered at runtime (via :func:`repro.sim.register_policy`) remain
resolvable inside workers; on spawn-only platforms, third-party policies
must be registered at import time of a module the workers import.

Request streams depend only on (workload spec, seed, footprint), not on the
operating condition, so each process keeps a small per-stream cache instead
of regenerating the stream for every condition cell the way the seed's
``run_workload_grid`` did.  Since the simulator stopped mutating host
requests, the cache holds the :class:`HostRequest` objects themselves and
every (condition, policy) cell replays them directly.

Every cell builds one device per policy with
:func:`repro.sim.spec.preconditioned_simulator`, the builder every runner
shares, and runs it to completion before the next device is built.  Its
reads take their retry steps from the process-shared
:func:`repro.ssd.retry_grid.shared_grid`, which computes each (condition,
page type, block) row the first time a read needs it.  The parent keeps
each condition's slabs, empty, with
:func:`repro.ssd.slab_transport.prefill_device_slabs` before the pool
forks, so workers inherit them; each cell calls it again first thing,
which keeps them only in a worker that started without them (spawn) or
after the grid's LRU bound evicted them.  Either way a worker computes the
rows its own reads need.
"""

from __future__ import annotations

import gc
import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.rpt import ReadTimingParameterTable
from repro.sim.registry import default_registry
from repro.sim.spec import Condition, WorkloadSpec, preconditioned_simulator
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SimulationResult
from repro.ssd.metrics import normalized_response_times
from repro.ssd.request import HostRequest
from repro.ssd.slab_transport import prefill_device_slabs
from repro.workloads.catalog import WORKLOAD_CATALOG

#: Default mean inter-arrival time of generated streams; matches the seed's
#: system-level experiments (keeps the Baseline SSD below saturation at the
#: worst condition, so the results measure mechanisms, not queueing collapse).
DEFAULT_MEAN_INTERARRIVAL_US = 700.0

# -- per-process state ---------------------------------------------------------
#: Generated HostRequest lists per stream key.  Streams are
#: condition-independent and the simulator no longer mutates host requests,
#: so one generation serves every (condition, policy) cell a process
#: executes — the requests themselves are shared, not copied.
_STREAM_CACHE: Dict[tuple, List[HostRequest]] = {}
_STREAM_CACHE_STATS = {"hits": 0, "misses": 0}


class WorkerPool:
    """A reusable process pool that maps payloads in order.

    The fan-out primitive of the sweep, fleet and suite runners, with one
    dispatch path: :meth:`submit` queues payloads and returns their results
    in payload order without waiting for them, and :meth:`map` is
    :meth:`submit` consumed to the end.  Because a call does not block,
    a caller can keep the next batch in flight while it consumes the
    current one, as the fleet does with its shards.  One pool stays alive
    across calls, created lazily on the first call that can use it, so a
    fleet streams all of its shards through the same workers.  It prefers
    the ``fork`` start method so objects registered at runtime (policies,
    experiments) remain resolvable inside workers, and forks between
    :func:`gc.freeze` and :func:`gc.unfreeze`: the workers' cyclic garbage
    collectors then never walk, and so never copy, the heap they inherit.
    On spawn-only platforms workers re-import the registering modules, so
    only import-time registrations resolve.  A call runs serially, as a
    lazy generator, when a pool would not help (one payload) or is
    impossible (already inside a daemonic pool worker, which may not spawn
    children).  Use as a context manager; on a clean exit the pool is
    closed and joined, on an exception it is terminated.
    """

    def __init__(self, processes: int):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.processes = processes
        self._pool = None

    def submit(self, func, payloads: Sequence, chunksize: int = 1) -> Iterator:
        """Start ``func`` on every payload; iterate the results in payload order.

        On a pool the call returns at once: every payload is already queued
        to the workers, ``chunksize`` consecutive payloads to a message, and
        payloads of a later call queue behind this one's.  Serially the
        result is a lazy generator, so a payload runs only when its result
        is asked for.  Either way a failing payload's exception is raised in
        payload order; on a pool it takes the results of its whole message
        with it.
        """
        if min(self.processes, len(payloads)) <= 1 or multiprocessing.current_process().daemon:
            return (func(payload) for payload in payloads)
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
            gc.freeze()
            try:
                self._pool = context.Pool(self.processes)  # repro-lint: disable=one-pool-primitive
            finally:
                gc.unfreeze()
        return self._pool.imap(func, payloads, chunksize)

    def map(self, func, payloads: Sequence, on_result=None) -> List:
        """``[func(p) for p in payloads]``, over the pool where it helps.

        One payload to a message, since sweep cells and suite experiments
        vary in cost.

        :param on_result: optional callback invoked in the parent, in payload
            order, as each result arrives.  Results completed before a later
            payload fails have already been delivered, which is what lets the
            suite runner persist partial progress.
        """
        collected = []
        for result in self.submit(func, payloads):
            if on_result is not None:
                on_result(result)
            collected.append(result)
        return collected

    def close(self, terminate: bool = False) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(terminate=exc_type is not None)


def pool_map(func, payloads: Sequence, processes: int, on_result=None) -> List:
    """One :meth:`WorkerPool.map` over a pool of ``processes`` workers at most."""
    with WorkerPool(max(1, min(processes, len(payloads)))) as pool:
        return pool.map(func, payloads, on_result)


def reject_repeats(kind: str, values: Sequence) -> None:
    """Raise ``ValueError`` for the first value ``values`` repeats."""
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ValueError(f"{kind} {value!r} is given more than once")


def _cached_stream(spec: WorkloadSpec, config: SsdConfig) -> List[HostRequest]:
    key = spec.stream_key(config)
    requests = _STREAM_CACHE.get(key)
    if requests is None:
        _STREAM_CACHE_STATS["misses"] += 1
        requests = spec.build_requests(config)
        _STREAM_CACHE[key] = requests
    else:
        _STREAM_CACHE_STATS["hits"] += 1
    return requests


def _run_cell(payload: dict) -> Tuple[str, Tuple[int, float], Dict[str, SimulationResult]]:
    """Execute one (workload, condition) cell against every policy.

    Pure function of its payload — the serial and parallel paths both call
    it, which is what makes ``processes=N`` bitwise-identical to serial.
    """
    config = SsdConfig.from_dict(payload["config"])
    spec = WorkloadSpec.from_dict(payload["workload"])
    condition = Condition.from_dict(payload["condition"])
    rpt = payload["rpt"] or ReadTimingParameterTable.default()
    prefill_device_slabs(config, rpt, condition.pe_cycles, condition.retention_months)
    stream = _cached_stream(spec, config)
    results: Dict[str, SimulationResult] = {}
    for name in payload["policies"]:
        # Built and run in one expression, so no local keeps a finished
        # simulator (and its device state) alive while the next is built.
        result = preconditioned_simulator(config, name, condition, rpt=rpt).run(stream)
        results[result.policy_name] = result
    return spec.label, condition.as_tuple(), results


def _workload_class(spec: WorkloadSpec) -> str:
    if spec.name is not None:
        read_dominant = WORKLOAD_CATALOG[spec.name].read_dominant
    else:
        read_dominant = spec.shape.read_ratio >= 0.75
    return "read-dominant" if read_dominant else "write-dominant"


def rows_from_cells(
    workloads: Sequence[WorkloadSpec],
    conditions: Sequence[Condition],
    cells: Dict[tuple, Dict[str, SimulationResult]],
    baseline: str = "Baseline",
) -> List[dict]:
    """Tidy normalized-response-time rows (the Figure 14/15 long format)."""
    rows = []
    for spec in workloads:
        for condition in conditions:
            cell = cells[(spec.label,) + condition.as_tuple()]
            normalized = normalized_response_times(
                {name: result.metrics for name, result in cell.items()}, baseline=baseline
            )
            for policy, value in normalized.items():
                metrics = cell[policy].metrics
                combined = metrics.latency("all")
                rows.append(
                    {
                        "workload": spec.label,
                        "class": _workload_class(spec),
                        "pe_cycles": condition.pe_cycles,
                        "retention_months": condition.retention_months,
                        "policy": policy,
                        "normalized_response_time": round(value, 4),
                        "mean_response_us": round(metrics.mean_response_time_us(), 2),
                        "p99_response_us": round(combined.p99(), 2),
                        "p999_response_us": round(combined.p999(), 2),
                        "write_amplification": round(metrics.write_amplification(), 4),
                        "mapping_cache_hit_rate": round(metrics.mapping_cache_hit_rate(), 4),
                        "gc_invocations": metrics.gc_invocations,
                        "translation_reads": metrics.translation_reads,
                        "translation_writes": metrics.translation_writes,
                    }
                )
    return rows


@dataclass
class SweepResult:
    """Tidy result of one sweep: long-format rows plus the raw cells."""

    workloads: List[WorkloadSpec]
    conditions: List[Condition]
    policies: List[str]
    baseline: str
    cells: Dict[tuple, Dict[str, SimulationResult]]
    rows: List[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.rows:
            self.rows = rows_from_cells(
                self.workloads, self.conditions, self.cells, baseline=self.baseline
            )

    # -- access ---------------------------------------------------------------
    def cell(self, workload: str, pe_cycles: int, retention_months: float):
        return self.cells[(workload, pe_cycles, float(retention_months))]

    def filter_rows(self, **criteria) -> List[dict]:
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def to_grid(self) -> dict:
        """Legacy nested layout: ``grid[workload][(pec, months)][policy]``."""
        grid: dict = {}
        for (workload, pec, months), cell in self.cells.items():
            grid.setdefault(workload, {})[(pec, months)] = cell
        return grid

    # -- rendering ------------------------------------------------------------
    def table(self, max_rows: Optional[int] = None) -> str:
        """Fixed-width text table of the rows."""
        if not self.rows:
            return "(empty sweep)"
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        columns = list(rows[0].keys())
        widths = {
            column: max(len(str(column)), *(len(str(row[column])) for row in rows))
            for column in columns
        }
        lines = ["  ".join(str(column).ljust(widths[column]) for column in columns)]
        lines.append("-" * len(lines[0]))
        for row in rows:
            lines.append("  ".join(str(row[column]).ljust(widths[column]) for column in columns))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.table(max_rows=30)


class SweepRunner:
    """Executes a (workload x condition x policy) grid, optionally in parallel.

    :param processes: worker-process count; 1 (default) runs in-process.
    """

    def __init__(
        self,
        config: Optional[SsdConfig] = None,
        processes: int = 1,
        rpt: Optional[ReadTimingParameterTable] = None,
        mean_interarrival_us: float = DEFAULT_MEAN_INTERARRIVAL_US,
        footprint_fraction: float = 0.8,
    ):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.config = config or SsdConfig.scaled()
        self.processes = processes
        self.rpt = rpt
        self.mean_interarrival_us = mean_interarrival_us
        self.footprint_fraction = footprint_fraction
        self._registry = default_registry()

    # -- grid construction ----------------------------------------------------
    def _coerce_workloads(self, workloads, num_requests, seed):
        specs = []
        for workload in workloads:
            if isinstance(workload, WorkloadSpec):
                # An explicit spec keeps its own arrival rate and footprint;
                # only the run() arguments the caller actually passed win.
                specs.append(WorkloadSpec.coerce(workload, num_requests=num_requests, seed=seed))
            else:
                specs.append(
                    WorkloadSpec.coerce(
                        workload,
                        num_requests=num_requests,
                        seed=seed,
                        mean_interarrival_us=self.mean_interarrival_us,
                        footprint_fraction=self.footprint_fraction,
                    )
                )
        return specs

    def _payloads(self, specs, conditions, policies):
        config_dict = self.config.to_dict()
        return [
            {
                "config": config_dict,
                "workload": spec.to_dict(),
                "condition": condition.to_dict(),
                "policies": tuple(policies),
                "rpt": self.rpt,
            }
            for spec in specs
            for condition in conditions
        ]

    # -- execution ------------------------------------------------------------
    def run(
        self,
        policies: Optional[Iterable[str]] = None,
        workloads: Iterable[Union[str, WorkloadSpec]] = (),
        conditions: Iterable[Union[Condition, tuple]] = ((0, 0.0),),
        num_requests: Optional[int] = None,
        seed: Optional[int] = None,
        baseline: str = "Baseline",
    ) -> SweepResult:
        """Run the grid and return a :class:`SweepResult`.

        :param policies: registry names (defaults to every registered policy).
        :param workloads: Table 2 names or :class:`WorkloadSpec` objects.
        :param conditions: ``(pe_cycles, retention_months)`` pairs or
            :class:`Condition` objects.
        """
        policy_names = tuple(
            self._registry.canonical_name(name)
            for name in (policies if policies is not None else self._registry.names())
        )
        if not policy_names:
            raise ValueError("no policies given")
        reject_repeats("policy", policy_names)
        specs = self._coerce_workloads(workloads, num_requests, seed)
        if not specs:
            raise ValueError("no workloads given")
        labels = [spec.label for spec in specs]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"workload labels collide: {labels}; cells are keyed by "
                "label, so each workload needs a distinct one"
            )
        condition_objs = [Condition.coerce(condition) for condition in conditions]
        if not condition_objs:
            raise ValueError("no conditions given")
        reject_repeats("condition", [condition.as_tuple() for condition in condition_objs])
        if baseline not in policy_names:
            # Normalizing needs a reference that actually ran; fall back to
            # the first policy (its rows then read exactly 1.0).
            baseline = policy_names[0]
        payloads = self._payloads(specs, condition_objs, policy_names)
        # Before the pool forks, so workers inherit the slabs.
        rpt = self.rpt or ReadTimingParameterTable.default()
        for condition in condition_objs:
            prefill_device_slabs(self.config, rpt, condition.pe_cycles, condition.retention_months)
        outcomes = pool_map(_run_cell, payloads, self.processes)
        cells = {(label, pec, months): results for label, (pec, months), results in outcomes}
        return SweepResult(
            workloads=specs,
            conditions=condition_objs,
            policies=list(policy_names),
            baseline=baseline,
            cells=cells,
        )
