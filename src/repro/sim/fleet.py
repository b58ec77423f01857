"""Fleet-scale simulation: arrays of SSDs behind a striping front-end.

The paper evaluates read-retry policies one device at a time; a production
deployment serves millions of users from *arrays* of devices behind a
striping/replication front-end, and the operative question changes from
"what is the mean response time of this trace?" to "what arrival rate can
the array sustain under a p99 SLO?".  This module answers both:

* :class:`FleetSpec` — the array: device count, stripe unit, replication
  factor, the per-device :class:`~repro.ssd.config.SsdConfig` and operating
  :class:`~repro.sim.spec.Condition` (optionally per device, for
  heterogeneously aged fleets);
* :class:`FleetRunner` — shards any array-level workload across per-device
  simulators, each built by :func:`~repro.sim.spec.preconditioned_simulator`,
  via the striping router.  The workload is anything
  :func:`~repro.workloads.source.as_workload_source` resolves (a catalog
  name, a :class:`~repro.sim.spec.WorkloadSpec`, a multi-tenant
  :class:`~repro.workloads.tenants.TenantMix`, any registered source or its
  ``kind``-tagged dict), or an explicit request list; the run takes its
  label, tenant tracking and array stream from that one source object.
  The parent generates the array stream once per run and routes it in one
  pass into a compact per-device
  :class:`~repro.workloads.router.RequestSpool`; each device worker
  simulates only its own spool, so a run costs one stream's generation
  however many devices, shards and policies it holds, and ``processes=N``
  is bitwise-identical to serial;
* :class:`FleetResult` — array-level metrics from
  :meth:`~repro.ssd.metrics.LatencyHistogram.merge`: overall and per-tenant
  p50/p99/p999, per-device utilization skew;
* :class:`SloCapacitySearch` — bisects the arrival rate (geometrically,
  with automatic bracketing) to find the maximum load whose array p99 stays
  within a target, the fleet-sizing primitive behind
  ``Simulation.fleet(n).slo(p99_us=...)`` and the ``fleet_capacity``
  experiment.

Rack-scale mechanics (the two levers that keep 10k-device fleets
tractable):

* **Sharded streaming execution** — devices are dispatched in bounded
  shards (``shard_devices``, default :data:`DEFAULT_SHARD_DEVICES`) and each
  device's metrics are folded into the running :class:`FleetResult` in
  device order as they land.  The runner keeps exactly one shard ahead of
  the fold: before it folds and checkpoints shard k, it loads shard k+1's
  checkpoint and, on a miss, submits k+1's devices through
  :meth:`~repro.sim.sweep.WorkerPool.submit`, so the workers simulate k+1
  while the parent absorbs and saves k.  A shard reaches the pool as one
  message per worker, a contiguous run of ⌈shard/processes⌉ devices.  No
  more than two shards' payloads, results or restored checkpoints are held
  at once, so the per-device simulation state in flight follows the shard
  size, not the fleet size.  The array stream is generated and routed once
  per run, at the first shard not served from checkpoint, and every later
  shard and policy reuses that routing: the parent's peak memory follows
  the run's sub-request count in compact form — typed spool columns of
  about 35 B a row, so about 35 MB at 1M sub-requests — never the trace as
  request objects, and each spool is dropped once the last policy has
  dispatched its device.  Next to that one routing, the parent keeps each
  distinct device condition's retry-grid slabs
  (:func:`~repro.ssd.slab_transport.prefill_device_slabs`), empty, so the
  forked workers inherit them; each worker computes the rows its own reads
  need, as a serial run does.  Each device worker calls
  ``prefill_device_slabs`` first thing, which keeps the slabs only where
  the worker started without them.
  Per-shard wall-clock timings are recorded for later multi-host placement.
* **Checkpoint/resume** — with a ``checkpoint`` store attached, every
  completed shard's per-device metric states (and every capacity-search
  probe) are persisted to the
  :class:`~repro.experiments.store.CheckpointStore`, keyed by (schema
  version, fleet spec, source in its
  :func:`~repro.workloads.source.source_to_dict` form, policy, shard
  index, and a given RPT's
  :meth:`~repro.core.rpt.ReadTimingParameterTable.identity`: its bin
  edges, per-bin reductions and default timing, everything a read's price
  takes from it).  A killed run resumes mid-fleet — checkpointed shards are
  folded back in the original device order, which makes the resumed
  result *bitwise-identical* to an
  uninterrupted run (the fold is Neumaier-compensated and therefore not
  associative, so shards are never pre-merged).
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.rpt import ReadTimingParameterTable
from repro.experiments.store import CheckpointStore
from repro.sim.registry import default_registry
from repro.sim.spec import Condition, WorkloadSpec, preconditioned_simulator
from repro.sim.sweep import DEFAULT_MEAN_INTERARRIVAL_US, WorkerPool, reject_repeats
from repro.ssd.config import SsdConfig
from repro.ssd.controller import DEFAULT_LOOKAHEAD_REQUESTS, SimulationResult
from repro.ssd.faults import FaultPlan
from repro.ssd.metrics import SimulationMetrics
from repro.ssd.request import HostRequest
from repro.ssd.slab_transport import prefill_device_slabs
from repro.workloads.router import RequestSpool, StripeRouter
from repro.workloads.source import as_workload_source, source_to_dict
from repro.workloads.tenants import TenantMix

logger = logging.getLogger("repro.sim.fleet")

#: Any array-level request source the fleet can shard.
FleetSource = Union[str, WorkloadSpec, TenantMix, Sequence[HostRequest], dict]

#: Devices dispatched (and checkpointed) per shard unless overridden.
DEFAULT_SHARD_DEVICES = 64

#: Version of the checkpoint payload layout; part of every checkpoint key,
#: so changing the serialized form orphans old entries instead of
#: misreading them.
FLEET_CHECKPOINT_SCHEMA = 1

#: Checkpoint namespaces (directories under ``<cache root>/checkpoints/``).
FLEET_SHARD_KIND = "fleet_shard"
PROBE_TRAIL_KIND = "slo_probes"


@dataclass(frozen=True)
class FleetSpec:
    """An array of identical SSDs behind a striping/replication front-end."""

    devices: int = 4
    stripe_unit_pages: int = 8
    replication: int = 1
    #: Per-device configuration (all devices share one geometry).
    config: SsdConfig = field(default_factory=SsdConfig.scaled)
    #: Operating condition shared by every device ...
    condition: Condition = field(default_factory=Condition)
    #: ... unless a per-device tuple is given (heterogeneously aged fleet).
    device_conditions: Optional[Tuple[Condition, ...]] = None

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("devices must be at least 1")
        if not 1 <= self.replication <= self.devices:
            raise ValueError("replication must be in [1, devices]")
        object.__setattr__(self, "condition", Condition.coerce(self.condition))
        if self.device_conditions is not None:
            coerced = tuple(Condition.coerce(condition) for condition in self.device_conditions)
            if len(coerced) != self.devices:
                raise ValueError(f"{len(coerced)} device_conditions for {self.devices} devices")
            object.__setattr__(self, "device_conditions", coerced)

    def router(self) -> StripeRouter:
        return StripeRouter(
            devices=self.devices,
            stripe_unit_pages=self.stripe_unit_pages,
            replication=self.replication,
        )

    @property
    def array_logical_pages(self) -> int:
        """Host-visible pages of the whole array (mirrors cost capacity)."""
        return self.devices * self.config.logical_pages // self.replication

    def device_condition(self, device: int) -> Condition:
        if self.device_conditions is not None:
            return self.device_conditions[device]
        return self.condition

    # -- manifest round-trip ---------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "devices": self.devices,
            "stripe_unit_pages": self.stripe_unit_pages,
            "replication": self.replication,
            "config": self.config.to_dict(),
            "condition": self.condition.to_dict(),
        }
        if self.device_conditions is not None:
            payload["device_conditions"] = [
                condition.to_dict() for condition in self.device_conditions
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetSpec":
        payload = dict(payload)
        payload["config"] = SsdConfig.from_dict(payload["config"])
        payload["condition"] = Condition.from_dict(payload["condition"])
        if payload.get("device_conditions") is not None:
            payload["device_conditions"] = tuple(
                Condition.from_dict(condition) for condition in payload["device_conditions"]
            )
        return cls(**payload)


def _resolve_source(source: FleetSource, num_requests: Optional[int], seed: Optional[int]):
    """The run's workload source, or an explicit request list sorted by arrival."""
    if isinstance(source, Sequence) and not isinstance(source, str):
        # The single-device contract: pre-materialized sequences are sorted
        # by arrival up front.
        return sorted(source, key=lambda request: request.arrival_us)
    return as_workload_source(source, num_requests=num_requests, seed=seed)


def _route(spec: FleetSpec, stream: Iterable[HostRequest]) -> List[Optional[RequestSpool]]:
    """Split the array stream, in one pass, into every device's spool.

    Returns the spools indexed by device.

    Raises ``ValueError`` for a sub-request that reaches past the device's
    logical pages, which the controller would otherwise fold silently onto
    another page, before any device is simulated.  It happens when the array
    footprint is not a whole number of stripe groups: ``array_logical_pages``
    counts whole device capacities, so the last stripe group can overhang a
    device's end.
    """
    router = spec.router()
    routed = router.route(stream, range(spec.devices))
    local_pages = spec.config.logical_pages
    for device, spool in routed.items():
        for start_lpn, page_count in spool.extents():
            if start_lpn + page_count > local_pages:
                local = max(start_lpn, local_pages)
                raise ValueError(
                    f"array LPN {router.array_lpn(device, local)} routes to device "
                    f"{device} at local LPN {local}, outside its local range "
                    f"[0, {local_pages}); geometry: {spec.devices} devices x "
                    f"{local_pages} pages, stripe unit {spec.stripe_unit_pages} "
                    f"pages, replication {spec.replication}, "
                    f"{spec.array_logical_pages} array pages"
                )
    return list(routed.values())


def _requests_digest(requests: Sequence[HostRequest]) -> str:
    """Stable digest of an explicit request list (checkpoint identity).

    Hashes the requests' logical identity, not their ``repr`` — request ids
    come from a process-local counter and would defeat resume.
    """
    digest = hashlib.sha256()
    for request in requests:
        digest.update(
            f"{request.arrival_us}:{request.kind.name}:{request.start_lpn}:"
            f"{request.page_count}:{request.queue_id}\n".encode("utf-8")
        )
    return digest.hexdigest()


def _run_fleet_device(payload: dict) -> Tuple[str, int, SimulationResult]:
    """Simulate one device's request spool — pure function of its payload.

    The serial and parallel paths both execute exactly this function, which
    is what makes ``processes=N`` bitwise-identical to a serial run.
    """
    spec = FleetSpec.from_dict(payload["fleet"])
    device = payload["device"]
    policy = payload["policy"]
    rpt = payload["rpt"] or ReadTimingParameterTable.default()
    condition = spec.device_condition(device)
    prefill_device_slabs(spec.config, rpt, condition.pe_cycles, condition.retention_months)
    simulator = preconditioned_simulator(
        spec.config,
        policy,
        condition,
        rpt=rpt,
        faults=payload["faults"],
        track_tenants=payload["track_tenants"],
        device_id=device,
    )
    # An iterator, not a sequence: run() sorts a sequence silently, while the
    # admission pump rejects an out-of-order stream.
    result = simulator.run(
        iter(payload["device_requests"]),
        lookahead=payload["lookahead"] or DEFAULT_LOOKAHEAD_REQUESTS,
    )
    return policy, device, result


@dataclass
class _Shard:
    """One shard between its dispatch and its fold."""

    policy: str
    index: int
    devices: range
    #: Its checkpoint parameters, when the run has a store.
    params: Optional[dict] = None
    #: The stored payload on a checkpoint hit ...
    restored: Optional[dict] = None
    #: ... or the pool's results for its devices, in device order.
    results: Optional[Iterator[Tuple[str, int, SimulationResult]]] = None
    #: The parent's wall time on it so far (its dispatch, then its fold).
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class FleetShardTiming:
    """Wall-clock accounting of one dispatched shard.

    Recorded for later multi-host placement planning; deliberately kept out
    of checkpoints and result comparisons (timings are the one
    non-deterministic output of a run).  ``elapsed_s`` is the parent's
    wall time on the shard, its checkpoint load aside: its dispatch
    (building and submitting its device payloads) plus its fold (waiting
    for its results, absorbing them and saving its checkpoint).  Serially
    the fold runs the shard's whole simulation.  On a pool the workers
    run a shard while the parent still folds the one before it, and that
    stretch counts to the earlier shard, so the shards' times never add
    up to more than the run's wall time.  The first shard not served from
    checkpoint also carries the run's stream generation and routing.
    """

    index: int
    policy: str
    devices: int
    elapsed_s: float
    from_checkpoint: bool

    def to_dict(self) -> dict:
        return {
            "shard": self.index,
            "policy": self.policy,
            "devices": self.devices,
            "elapsed_s": round(self.elapsed_s, 6),
            "from_checkpoint": self.from_checkpoint,
        }


class FleetResult:
    """Array-level outcome of one policy's fleet run.

    A *streaming* collector: the runner folds each device's finished
    metrics in as it lands (:meth:`absorb_device`), so the result holds one
    merged :class:`~repro.ssd.metrics.SimulationMetrics` plus a tidy report
    row per device — never the per-device result objects — and a 10k-device
    run costs shard-sized, not fleet-sized, memory.
    """

    def __init__(
        self,
        spec: FleetSpec,
        policy: str,
        workload_label: str = "",
        tenant_names: Optional[Tuple[str, ...]] = None,
    ):
        self.spec = spec
        self.policy = policy
        self.workload_label = workload_label
        self.tenant_names = tenant_names
        #: Every absorbed device's metrics folded into one collector.
        self.merged = SimulationMetrics()
        #: Per-shard wall-clock timings, appended by the runner.
        self.shard_timings: List[FleetShardTiming] = []
        self.device_count = 0
        self._rows: List[dict] = []
        self._utilizations: List[float] = []

    # -- streaming aggregation -------------------------------------------------
    def absorb_device(self, device: int, metrics: SimulationMetrics) -> None:
        """Fold one device's finished metrics into the running aggregate.

        Devices must be absorbed in a deterministic order (the runner uses
        ascending device id per policy): the latency fold is
        Neumaier-compensated and therefore order-sensitive at the last bit.
        """
        combined = metrics.latency("all")
        utilization = metrics.die_utilization()
        self._rows.append(
            {
                "policy": self.policy,
                "device": device,
                "host_reads": metrics.host_reads,
                "host_writes": metrics.host_writes,
                "mean_response_us": round(metrics.mean_response_time_us(), 2),
                "p99_response_us": round(combined.p99(), 2),
                "p999_response_us": round(combined.p999(), 2),
                "die_utilization": round(utilization, 3),
            }
        )
        self._utilizations.append(utilization)
        self.merged.merge(metrics)
        self.device_count += 1

    def percentile(self, percentile: float, kind: str = "all") -> float:
        return self.merged.percentile_response_time_us(percentile, kind)

    def p99(self, kind: str = "all") -> float:
        return self.percentile(99.0, kind)

    def p999(self, kind: str = "all") -> float:
        return self.percentile(99.9, kind)

    def mean_response_us(self, kind: str = "all") -> float:
        return self.merged.mean_response_time_us(kind)

    # -- tenants ---------------------------------------------------------------
    def tenant_tails(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant p50/p99/p999 merged across every device."""
        tails = {}
        for tenant, histogram in sorted(self.merged.tenant_latency.items()):
            name = (
                self.tenant_names[tenant]
                if self.tenant_names and tenant < len(self.tenant_names)
                else str(tenant)
            )
            tails[name] = {
                "count": histogram.count,
                "p50_us": round(histogram.percentile(50.0), 2),
                "p99_us": round(histogram.p99(), 2),
                "p999_us": round(histogram.p999(), 2),
            }
        return tails

    # -- device balance --------------------------------------------------------
    def device_utilizations(self) -> List[float]:
        return list(self._utilizations)

    def utilization_skew(self) -> float:
        """max/mean device utilization — 1.0 is a perfectly balanced array."""
        utilizations = self._utilizations
        if not utilizations:
            return 1.0
        mean = sum(utilizations) / len(utilizations)
        if mean <= 0:
            return 1.0
        return max(utilizations) / mean

    # -- reporting -------------------------------------------------------------
    def device_rows(self) -> List[dict]:
        """One tidy row per device (the fleet report's long format)."""
        return [dict(row) for row in self._rows]

    def shard_rows(self) -> List[dict]:
        """Per-shard wall-clock rows (placement planning; not reproducible)."""
        return [timing.to_dict() for timing in self.shard_timings]

    def summary(self) -> dict:
        combined = self.merged.latency("all")
        summary = {
            "policy": self.policy,
            "devices": self.spec.devices,
            "replication": self.spec.replication,
            "workload": self.workload_label,
            "requests": self.merged.host_reads + self.merged.host_writes,
            "mean_response_us": round(self.mean_response_us(), 2),
            "p50_response_us": round(combined.percentile(50.0), 2),
            "p99_response_us": round(combined.p99(), 2),
            "p999_response_us": round(combined.p999(), 2),
            "utilization_skew": round(self.utilization_skew(), 3),
        }
        tails = self.tenant_tails()
        if len(tails) > 1:
            summary["tenants"] = tails
        return summary


@dataclass
class FleetRunResult:
    """Per-policy :class:`FleetResult` objects of one fleet run."""

    spec: FleetSpec
    results: Dict[str, FleetResult]
    manifest: dict = field(default_factory=dict)

    @property
    def policies(self) -> List[str]:
        return list(self.results)

    def __getitem__(self, policy: str) -> FleetResult:
        return self.results[policy]

    def __iter__(self):
        return iter(self.results.items())

    @property
    def result(self) -> FleetResult:
        if len(self.results) != 1:
            raise ValueError(f"run holds {len(self.results)} policies; index by name")
        return next(iter(self.results.values()))

    def rows(self) -> List[dict]:
        return [row for result in self.results.values() for row in result.device_rows()]

    def shard_rows(self) -> List[dict]:
        return [row for result in self.results.values() for row in result.shard_rows()]


class FleetRunner:
    """Executes an array-level workload across a fleet of simulated SSDs.

    :param processes: worker-process count; 1 (default) runs in-process.
    :param shard_devices: devices dispatched (and checkpointed) per shard;
        ``None`` means :data:`DEFAULT_SHARD_DEVICES`.
    :param checkpoint: a :class:`~repro.experiments.store.CheckpointStore`,
        a cache-root path for one, or ``None`` (no checkpointing).
    """

    def __init__(
        self,
        spec: Optional[FleetSpec] = None,
        processes: int = 1,
        rpt: Optional[ReadTimingParameterTable] = None,
        shard_devices: Optional[int] = None,
        checkpoint: Union[CheckpointStore, str, None] = None,
    ):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        if shard_devices is not None and shard_devices < 1:
            raise ValueError("shard_devices must be at least 1")
        self.spec = spec or FleetSpec()
        self.processes = processes
        self.rpt = rpt
        self.shard_devices = DEFAULT_SHARD_DEVICES if shard_devices is None else int(shard_devices)
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = CheckpointStore(checkpoint)
        self._registry = default_registry()

    # -- dispatch helpers ------------------------------------------------------
    def _shard_ranges(self) -> List[range]:
        return [
            range(start, min(start + self.shard_devices, self.spec.devices))
            for start in range(0, self.spec.devices, self.shard_devices)
        ]

    # -- execution -------------------------------------------------------------
    def run(
        self,
        source: FleetSource,
        policies: Union[str, Iterable[str]] = "Baseline",
        num_requests: Optional[int] = None,
        seed: Optional[int] = None,
        lookahead: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> FleetRunResult:
        """Shard ``source`` across the fleet for every policy.

        ``source`` is resolved once, through
        :func:`~repro.workloads.source.as_workload_source` (``num_requests``
        and ``seed`` override a spec's own), unless it is an explicit
        request list.  Devices go through the worker pool in bounded
        shards, one shard in flight ahead of the fold (see the module
        docstring).  At the first shard not served from checkpoint, the parent
        generates the array-level stream once (an explicit request list is
        sorted once, up front) and routes it in one pass into one compact
        :class:`~repro.workloads.router.RequestSpool` per device; every later
        shard and policy of the run reuses that routing.  A sub-request past
        a device's end fails the run right after routing, before any device
        is simulated.  Each device payload carries only its own spool, so
        worker results are pure functions of their payloads (serial ==
        parallel, bitwise).  With a checkpoint store attached, finished
        shards are persisted and later runs fold them back in without
        simulating them; a run whose shards are all checkpointed generates
        nothing.
        """
        if isinstance(policies, str):
            policies = (policies,)
        policy_names = tuple(self._registry.canonical_name(name) for name in policies)
        if not policy_names:
            raise ValueError("no policies given")
        reject_repeats("policy", policy_names)
        source = _resolve_source(source, num_requests, seed)
        explicit = isinstance(source, list)
        if explicit:
            label = f"explicit-{len(source)}"
            manifest_source = {"explicit_requests": len(source)}
        else:
            label = source.label
            manifest_source = source_to_dict(source)
        tenant_names = source.tenant_names() if isinstance(source, TenantMix) else None
        fault_plan = FaultPlan.coerce(faults) if faults is not None else None
        fleet_dict = self.spec.to_dict()
        results = {
            name: FleetResult(
                spec=self.spec, policy=name, workload_label=label, tenant_names=tenant_names
            )
            for name in policy_names
        }
        base_params = None
        if self.checkpoint is not None:
            base_params = {
                "schema": FLEET_CHECKPOINT_SCHEMA,
                "fleet": fleet_dict,
                "source": manifest_source,
                "lookahead": lookahead,
                "faults": fault_plan.to_dict() if fault_plan else None,
                "rpt": self.rpt.identity() if self.rpt is not None else None,
            }
            if explicit:
                base_params["requests_digest"] = _requests_digest(source)
        checkpoints = {"hits": 0, "stored": 0}
        device_payload = dict(
            fleet=fleet_dict,
            rpt=self.rpt,
            lookahead=lookahead,
            faults=fault_plan,
            track_tenants=bool(getattr(source, "tracks_tenants", False)),
        )
        routed: Optional[List[Optional[RequestSpool]]] = None

        def dispatch(
            pool: WorkerPool, policy: str, shard_index: int, device_range: range
        ) -> _Shard:
            """Load one shard's checkpoint or, on a miss, submit its devices."""
            nonlocal routed
            shard = _Shard(policy, shard_index, device_range)
            if base_params is not None:
                shard.params = dict(
                    base_params,
                    policy=policy,
                    shard=shard_index,
                    devices=[device_range.start, device_range.stop],
                )
                shard.restored = self.checkpoint.load(FLEET_SHARD_KIND, shard.params)
            if shard.restored is not None:
                return shard
            started = time.perf_counter()  # repro-lint: disable=no-wall-clock
            if routed is None:
                stream = source
                if not explicit:
                    stream = source.iter_requests(
                        self.spec.config, footprint_pages=self.spec.array_logical_pages
                    )
                routed = _route(self.spec, stream)
                # Before any device runs, so forked workers inherit the slabs.
                rpt = self.rpt or ReadTimingParameterTable.default()
                conditions = self.spec.device_conditions or (self.spec.condition,)
                for condition in dict.fromkeys(conditions):
                    prefill_device_slabs(
                        self.spec.config, rpt, condition.pe_cycles, condition.retention_months
                    )
            payloads = [
                dict(device_payload, device=device, policy=policy, device_requests=routed[device])
                for device in device_range
            ]
            if policy == policy_names[-1]:
                # The last policy's dispatch is a spool's last use; dropping
                # it keeps the routing from adding to the rows the result
                # accumulates.
                for device in device_range:
                    routed[device] = None
            # Devices cost about the same, so each worker gets one message
            # holding a contiguous run of them.
            chunk = -(-len(payloads) // pool.processes)
            shard.results = pool.submit(_run_fleet_device, payloads, chunksize=chunk)
            shard.elapsed_s = time.perf_counter() - started  # repro-lint: disable=no-wall-clock
            return shard

        def fold(shard: _Shard) -> None:
            """Absorb one shard in device order and checkpoint it."""
            started = time.perf_counter()  # repro-lint: disable=no-wall-clock
            collector = results[shard.policy]
            device_range = shard.devices
            if shard.restored is not None:
                for device, state in zip(shard.restored["devices"], shard.restored["metrics"]):
                    collector.absorb_device(int(device), SimulationMetrics.from_state(state))
                checkpoints["hits"] += 1
                logger.info(
                    "fleet shard %d (policy %s, devices %d..%d) served from checkpoint",
                    shard.index,
                    shard.policy,
                    device_range.start,
                    device_range.stop - 1,
                )
            else:
                devices: List[int] = []
                states: List[dict] = []
                for _, device, result in shard.results:
                    if shard.params is not None:
                        devices.append(device)
                        states.append(result.metrics.to_state())
                    collector.absorb_device(device, result.metrics)
                if shard.params is not None:
                    self.checkpoint.save(
                        FLEET_SHARD_KIND, shard.params, {"devices": devices, "metrics": states}
                    )
                    checkpoints["stored"] += 1
            shard.elapsed_s += time.perf_counter() - started  # repro-lint: disable=no-wall-clock
            collector.shard_timings.append(
                FleetShardTiming(
                    index=shard.index,
                    policy=shard.policy,
                    devices=len(device_range),
                    elapsed_s=shard.elapsed_s,
                    from_checkpoint=shard.restored is not None,
                )
            )

        shard_ranges = self._shard_ranges()
        with WorkerPool(self.processes) as pool:
            # One shard ahead of the fold: shard k+1 is loaded or submitted
            # before shard k is absorbed and saved, so the workers simulate
            # k+1 while the parent folds k.
            ahead = None
            for policy in policy_names:
                for shard_index, device_range in enumerate(shard_ranges):
                    shard = dispatch(pool, policy, shard_index, device_range)
                    if ahead is not None:
                        fold(ahead)
                    ahead = shard
            fold(ahead)
        manifest = {
            "fleet": fleet_dict,
            "source": manifest_source,
            "policies": list(policy_names),
            "shard_devices": self.shard_devices,
        }
        if fault_plan:
            manifest["faults"] = fault_plan.to_dict()
        if self.checkpoint is not None:
            manifest["checkpoints"] = checkpoints
        return FleetRunResult(spec=self.spec, results=results, manifest=manifest)


# -- SLO capacity search -------------------------------------------------------
def _current_rate_rps(source: Union[WorkloadSpec, TenantMix]) -> float:
    if isinstance(source, TenantMix):
        return source.total_arrival_rate_rps(DEFAULT_MEAN_INTERARRIVAL_US)
    interarrival = source.mean_interarrival_us or DEFAULT_MEAN_INTERARRIVAL_US
    return 1e6 / interarrival


def _with_rate(
    source: Union[WorkloadSpec, TenantMix], rate_rps: float
) -> Union[WorkloadSpec, TenantMix]:
    if isinstance(source, TenantMix):
        return source.with_arrival_rate(rate_rps, DEFAULT_MEAN_INTERARRIVAL_US)
    return WorkloadSpec.coerce(source, mean_interarrival_us=1e6 / rate_rps)


@dataclass
class CapacityProbe:
    """One measured point of the capacity search."""

    rate_rps: float
    mean_interarrival_us: float
    p99_us: float
    meets_slo: bool


@dataclass
class CapacityResult:
    """Outcome of one SLO capacity search."""

    policy: str
    target_p99_us: float
    tolerance: float
    converged: bool
    #: Highest measured rate meeting the SLO (None if even the lowest
    #: probed rate violated it).
    max_rate_rps: Optional[float]
    #: Lowest measured rate violating the SLO (None if the search never
    #: saw a violation — the device is not the bottleneck at these rates).
    min_violating_rate_rps: Optional[float]
    probes: List[CapacityProbe]
    #: The fleet result measured at ``max_rate_rps``.
    fleet: Optional[FleetResult] = None

    @property
    def max_sustainable_interarrival_us(self) -> Optional[float]:
        if self.max_rate_rps is None:
            return None
        return 1e6 / self.max_rate_rps

    def probe_rows(self) -> List[dict]:
        return [
            {
                "probe": index,
                "rate_rps": round(probe.rate_rps, 2),
                "mean_interarrival_us": round(probe.mean_interarrival_us, 2),
                "p99_response_us": round(probe.p99_us, 2),
                "meets_slo": probe.meets_slo,
            }
            for index, probe in enumerate(self.probes)
        ]

    def summary(self) -> dict:
        return {
            "policy": self.policy,
            "target_p99_us": self.target_p99_us,
            "max_rate_rps": (
                round(self.max_rate_rps, 2) if self.max_rate_rps is not None else None
            ),
            "converged": self.converged,
            "tolerance": self.tolerance,
            "probes": len(self.probes),
        }


class SloCapacitySearch:
    """Finds the max arrival rate whose array p99 stays within a target.

    The search brackets first — doubling the rate while the SLO holds,
    halving while it is violated — then bisects geometrically until the
    sustainable/violating bracket is within ``tolerance`` (a relative rate
    width: ``converged`` means the true capacity lies within
    ``max_rate_rps * (1 + tolerance)``).  The response-time-vs-load curve
    of a work-conserving array is monotone, so bracketing plus bisection
    converges for any starting rate; every probe reuses the same stream
    seeds, which keeps the search deterministic.

    When the runner has a checkpoint store, every completed probe is
    persisted as a *probe trail*; a resumed search replays the trail
    (skipping those probes' fleet runs entirely) and continues the
    bisection mid-bracket.  The rate trajectory is exact arithmetic on the
    starting rate, so replayed probes match rate-for-rate and the resumed
    :class:`CapacityResult` is bitwise-identical to an uninterrupted one.
    """

    def __init__(
        self,
        runner: FleetRunner,
        target_p99_us: float,
        tolerance: float = 0.05,
        max_probes: int = 12,
        kind: str = "all",
    ):
        if target_p99_us <= 0:
            raise ValueError("target_p99_us must be positive")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if max_probes < 2:
            raise ValueError("max_probes must be at least 2")
        self.runner = runner
        self.target_p99_us = target_p99_us
        self.tolerance = tolerance
        self.max_probes = max_probes
        self.kind = kind

    def _trail_params(self, source, policy: str, start_rate_rps: Optional[float]) -> dict:
        runner = self.runner
        return {
            "schema": FLEET_CHECKPOINT_SCHEMA,
            "fleet": runner.spec.to_dict(),
            "source": source.to_dict(),
            "policy": policy,
            "target_p99_us": self.target_p99_us,
            "tolerance": self.tolerance,
            "max_probes": self.max_probes,
            "kind": self.kind,
            "start_rate_rps": start_rate_rps,
            "rpt": runner.rpt.identity() if runner.rpt is not None else None,
        }

    def find(
        self,
        source: Union[str, WorkloadSpec, TenantMix, dict],
        policy: str = "Baseline",
        num_requests: Optional[int] = None,
        seed: Optional[int] = None,
        start_rate_rps: Optional[float] = None,
    ) -> CapacityResult:
        """Run the search for one policy and return its capacity."""
        source = as_workload_source(source, num_requests=num_requests, seed=seed)
        canonical = self.runner._registry.canonical_name(policy)
        checkpoint = self.runner.checkpoint
        trail_params = None
        recorded: List[dict] = []
        if checkpoint is not None:
            trail_params = self._trail_params(source, canonical, start_rate_rps)
            stored = checkpoint.load(PROBE_TRAIL_KIND, trail_params)
            if stored is not None and stored.get("probes"):
                recorded = list(stored["probes"])
                logger.info(
                    "capacity search (policy %s): %d probe(s) served from checkpoint",
                    canonical,
                    len(recorded),
                )
        probes: List[CapacityProbe] = []
        trail: List[dict] = []
        best_fleet: Optional[FleetResult] = None
        replay_index = 0
        lo: Optional[float] = None  # highest rate meeting the SLO
        hi: Optional[float] = None  # lowest rate violating it

        rate = start_rate_rps or _current_rate_rps(source)
        for _ in range(self.max_probes):
            fleet = None
            if replay_index < len(recorded) and recorded[replay_index]["rate_rps"] == rate:
                p99 = float(recorded[replay_index]["p99_us"])
                replay_index += 1
            else:
                # A recorded probe that does not match the expected rate
                # means the trail came from different inputs; stop trusting
                # the remainder and measure live.
                replay_index = len(recorded)
                fleet = self.runner.run(_with_rate(source, rate), policies=policy).result
                p99 = fleet.p99(self.kind)
            meets = p99 <= self.target_p99_us
            probes.append(
                CapacityProbe(
                    rate_rps=rate, mean_interarrival_us=1e6 / rate, p99_us=p99, meets_slo=meets
                )
            )
            trail.append({"rate_rps": rate, "p99_us": p99})
            if fleet is not None and checkpoint is not None:
                checkpoint.save(PROBE_TRAIL_KIND, trail_params, {"probes": trail})
            if meets:
                if lo is None or rate > lo:
                    lo, best_fleet = rate, fleet
            elif hi is None or rate < hi:
                hi = rate
            if lo is not None and hi is not None:
                if hi / lo <= 1.0 + self.tolerance:
                    break
                rate = math.sqrt(lo * hi)
            elif lo is None:
                rate = rate / 2.0
            else:
                rate = rate * 2.0

        converged = lo is not None and hi is not None and hi / lo <= 1.0 + self.tolerance
        if lo is not None and best_fleet is None:
            # The winning probe was replayed from the trail; materialize its
            # fleet result.  Its shards are checkpointed, so this folds the
            # stored metrics back instead of re-simulating.
            best_fleet = self.runner.run(_with_rate(source, lo), policies=policy).result
        return CapacityResult(
            policy=canonical,
            target_p99_us=self.target_p99_us,
            tolerance=self.tolerance,
            converged=converged,
            max_rate_rps=lo,
            min_violating_rate_rps=hi,
            probes=probes,
            fleet=best_fleet,
        )
