"""The fluent simulation builder — the canonical way to run the simulator.

>>> from repro.sim import Simulation
>>> result = (Simulation()
...           .policy("PnAR2")
...           .workload("ycsb-a", n=800)
...           .condition(pec=2000, months=6)
...           .run())
>>> result.mean_response_us("PnAR2")  # doctest: +SKIP

A :class:`Simulation` collects *what* to run (policies, a workload spec, an
explicit request list or a stream factory, an operating condition) and
``run()`` executes each policy against an identical request stream on a
freshly preconditioned SSD, returning a :class:`RunResult` that carries the
per-policy :class:`~repro.ssd.controller.SimulationResult` objects plus a
JSON-able manifest describing the run exactly.  Workload specs and stream
factories feed the simulator's bounded-lookahead pump lazily, so session
runs never materialize the trace.

Open-loop, tenant-mix and closed-loop runs share one device loop, which
builds each policy's SSD with :func:`repro.sim.spec.preconditioned_simulator`
and drops it before building the next; ``fleet()`` and ``slo()`` runs hand
over to :mod:`repro.sim.fleet`.  A policy named twice is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.rpt import ReadTimingParameterTable
from repro.sim.registry import default_registry
from repro.sim.spec import (
    DEFAULT_FILL_FRACTION,
    Condition,
    WorkloadSpec,
    preconditioned_simulator,
)
from repro.sim.sweep import reject_repeats
from repro.ssd.config import SsdConfig
from repro.ssd.controller import DEFAULT_LOOKAHEAD_REQUESTS, SimulationResult
from repro.ssd.faults import FaultPlan
from repro.ssd.metrics import normalized_response_times
from repro.ssd.request import HostRequest
from repro.workloads.closed_loop import ClosedLoopSource
from repro.workloads.source import as_workload_source, source_to_dict
from repro.workloads.synthetic import WorkloadShape
from repro.workloads.tenants import TenantMix


@dataclass
class RunResult:
    """Outcome of one :meth:`Simulation.run` call."""

    config: SsdConfig
    condition: Condition
    results: Dict[str, SimulationResult]
    #: The run's ``WorkloadSource`` (a spec, scenario pattern, trace
    #: replay...), when the run was driven by one.
    workload: Optional[object] = None
    manifest: dict = field(default_factory=dict)

    # -- access ---------------------------------------------------------------
    @property
    def policies(self) -> List[str]:
        return list(self.results)

    def __getitem__(self, policy: str) -> SimulationResult:
        return self.results[policy]

    def __iter__(self):
        return iter(self.results.items())

    @property
    def result(self) -> SimulationResult:
        """The single result of a one-policy run."""
        if len(self.results) != 1:
            raise ValueError(f"run holds {len(self.results)} policies; index by name")
        return next(iter(self.results.values()))

    # -- views ----------------------------------------------------------------
    def mean_response_us(self, policy: Optional[str] = None) -> float:
        result = self.result if policy is None else self.results[policy]
        return result.mean_response_time_us

    def normalized(self, baseline: str = "Baseline") -> Dict[str, float]:
        """Mean response times normalized to ``baseline`` (Figure 14 y-axis)."""
        return normalized_response_times(
            {name: result.metrics for name, result in self.results.items()}, baseline=baseline
        )

    def summary_rows(self) -> List[dict]:
        rows = []
        for name, result in self.results.items():
            row = {
                "policy": name,
                "pe_cycles": self.condition.pe_cycles,
                "retention_months": self.condition.retention_months,
            }
            if self.workload is not None:
                row["workload"] = self.workload.label
            row.update(result.metrics.summary())
            rows.append(row)
        return rows


class Simulation:
    """Fluent builder for one simulator run (one cell, one or more policies)."""

    def __init__(self, config: Optional[SsdConfig] = None):
        self._config = config or SsdConfig.scaled()
        self._policies: List[str] = []
        #: Any unified ``WorkloadSource`` — a spec, tenant mix, scenario
        #: pattern, trace replay... (see :mod:`repro.workloads.source`).
        self._source: Optional[object] = None
        self._requests: Optional[List[HostRequest]] = None
        self._stream: Optional[Callable[[], Iterable[HostRequest]]] = None
        self._condition = Condition()
        self._rpt: Optional[ReadTimingParameterTable] = None
        self._lookahead: Optional[int] = None
        self._registry = default_registry()
        self._fault_plan: Optional[FaultPlan] = None
        self._fleet_params: Optional[dict] = None
        self._slo_params: Optional[dict] = None
        self._closed_loop_params: Optional[dict] = None

    # -- builder steps --------------------------------------------------------
    def policy(self, policy) -> "Simulation":
        """Add one policy — a registry name or a ready policy instance."""
        if isinstance(policy, str):
            self._policies.append(self._registry.canonical_name(policy))
        else:
            self._policies.append(policy)
        return self

    def policies(self, *policies) -> "Simulation":
        """Add several policies at once (varargs or one iterable)."""
        if len(policies) == 1 and not isinstance(policies[0], str):
            try:
                policies = tuple(policies[0])
            except TypeError:
                pass
        for policy in policies:
            self.policy(policy)
        return self

    def workload(
        self,
        workload: Union[str, WorkloadSpec, WorkloadShape],
        n: Optional[int] = None,
        seed: Optional[int] = None,
        mean_interarrival_us: Optional[float] = None,
        footprint_fraction: Optional[float] = None,
    ) -> "Simulation":
        """Select the request stream.

        Accepts a Table 2 name, a :class:`~repro.sim.spec.WorkloadSpec`, a
        synthetic shape — or any ready ``WorkloadSource`` (a scenario
        pattern, a trace replay, a tenant mix); protocol objects pass
        through untouched and the keyword overrides apply only to the
        spec-building forms.
        """
        self._source = as_workload_source(
            workload,
            num_requests=n,
            seed=seed,
            mean_interarrival_us=mean_interarrival_us,
            footprint_fraction=footprint_fraction,
        )
        self._requests = None
        self._stream = None
        return self

    def pattern(self, pattern, **kwargs) -> "Simulation":
        """Select an adversarial access pattern by name (or a built one).

        ``pattern`` is a name from
        :data:`repro.workloads.scenarios.PATTERNS` (``kwargs`` construct
        it, e.g. ``.pattern("hot_cold", num_requests=2000)``) or an
        already-built scenario source, which ``kwargs`` must not
        accompany.
        """
        if isinstance(pattern, str):
            from repro.workloads.scenarios import make_pattern

            pattern = make_pattern(pattern, **kwargs)
        elif kwargs:
            raise ValueError(
                "keyword arguments only apply when naming a pattern; "
                "configure a ready source at construction instead"
            )
        return self.workload(pattern)

    def faults(self, *faults, seed: int = 0) -> "Simulation":
        """Install a deterministic fault-injection plan for the run.

        Each argument is a :class:`~repro.ssd.faults.FaultSpec` (or its
        dict form); a single :class:`~repro.ssd.faults.FaultPlan` is used
        as-is.  The plan is installed on every per-policy simulator after
        preconditioning; an empty plan leaves the run bitwise identical
        to a fault-free one.
        """
        if len(faults) == 1 and isinstance(faults[0], FaultPlan):
            self._fault_plan = faults[0]
        else:
            self._fault_plan = FaultPlan.coerce(list(faults), seed=seed)
        return self

    def synthetic(
        self, shape: Optional[WorkloadShape] = None, n: int = 500, seed: int = 0, **shape_kwargs
    ) -> "Simulation":
        """Use a parametric synthetic stream (``shape_kwargs`` build the shape)."""
        if shape is None:
            shape = WorkloadShape(**shape_kwargs)
        elif shape_kwargs:
            raise ValueError("pass either a shape or shape keyword arguments")
        return self.workload(WorkloadSpec(shape=shape, num_requests=n, seed=seed))

    def requests(self, requests: Sequence[HostRequest]) -> "Simulation":
        """Use an explicit, pre-generated request stream (e.g. a real trace).

        The simulator does not mutate host requests, so the caller's objects
        are replayed as-is for every policy — no defensive copies.
        """
        self._requests = list(requests)
        self._source = None
        self._stream = None
        return self

    def stream(self, factory: Callable[[], Iterable[HostRequest]]) -> "Simulation":
        """Use a zero-argument factory yielding a fresh request stream.

        The fully streaming option for large traces: the factory is called
        once per policy and its iterable is fed straight into the
        simulator's bounded-lookahead pump, so the trace is never
        materialized (e.g. ``lambda: iter_records_to_requests(
        iter_msrc_csv(path), ...)``).
        """
        if not callable(factory):
            raise TypeError(
                "stream() expects a zero-argument callable returning an iterable of HostRequest"
            )
        self._stream = factory
        self._requests = None
        self._source = None
        return self

    def tenants(
        self,
        *tenants,
        names: Optional[Sequence[str]] = None,
        n: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "Simulation":
        """Mix several workloads as tenants of one shared device or fleet.

        Each argument is anything :meth:`workload` accepts (a Table 2 name,
        a :class:`WorkloadSpec`, a shape); a single :class:`TenantMix` is
        used as-is.  Requests are tagged with their tenant index, so the
        metrics layer reports a latency histogram per tenant.
        """
        if len(tenants) == 1 and isinstance(tenants[0], TenantMix):
            mix = tenants[0]
        else:
            mix = TenantMix.coerce(list(tenants), num_requests=n, seed=seed)
        if names is not None:
            mix = TenantMix(tenants=mix.tenants, names=tuple(names))
        self._source = mix
        self._requests = None
        self._stream = None
        return self

    def fleet(
        self,
        devices: int,
        stripe_unit_pages: int = 8,
        replication: int = 1,
        device_conditions: Optional[Sequence] = None,
        processes: int = 1,
        shard_devices: Optional[int] = None,
        checkpoint=None,
    ) -> "Simulation":
        """Run against an array of ``devices`` SSDs instead of a single one.

        The array stripes the workload across identical copies of this
        simulation's config (see :class:`repro.sim.fleet.FleetSpec`);
        ``processes`` fans the per-device simulations over a worker pool
        (bitwise-identical to serial).  Devices are dispatched in bounded
        shards of ``shard_devices`` (default
        :data:`repro.sim.fleet.DEFAULT_SHARD_DEVICES`), and ``checkpoint``
        — a :class:`~repro.experiments.store.CheckpointStore` or a cache
        root path — persists finished shards (and capacity-search probes)
        so a killed run resumes bitwise-identically.  ``run()`` then
        returns a :class:`repro.sim.fleet.FleetRunResult`.
        """
        self._fleet_params = {
            "devices": devices,
            "stripe_unit_pages": stripe_unit_pages,
            "replication": replication,
            "device_conditions": device_conditions,
            "processes": processes,
            "shard_devices": shard_devices,
            "checkpoint": checkpoint,
        }
        return self

    def slo(
        self,
        p99_us: float,
        tolerance: float = 0.05,
        max_probes: int = 12,
        kind: str = "all",
        start_rate_rps: Optional[float] = None,
    ) -> "Simulation":
        """Search for the max arrival rate sustaining ``p99 <= p99_us``.

        ``run()`` then bisects the workload's arrival rate on the
        configured fleet (a single device unless :meth:`fleet` was called)
        and returns a :class:`repro.sim.fleet.CapacityResult`.  Requires
        exactly one policy and a rate-scalable workload (a workload spec or
        tenant mix, not an explicit request list).
        """
        self._slo_params = {
            "target_p99_us": p99_us,
            "tolerance": tolerance,
            "max_probes": max_probes,
            "kind": kind,
            "start_rate_rps": start_rate_rps,
        }
        return self

    def closed_loop(
        self,
        clients: int = 4,
        queue_depth: int = 1,
        total_requests: int = 1000,
        think_time_us: float = 0.0,
    ) -> "Simulation":
        """Drive the device closed-loop instead of replaying arrival times.

        Each of ``clients`` keeps ``queue_depth`` requests outstanding and
        issues the next one when a previous completes (plus
        ``think_time_us``); request contents come from the configured
        workload, whose own arrival times are ignored.  Incompatible with
        :meth:`fleet` (closed-loop clients react to one device's
        completions).
        """
        self._closed_loop_params = {
            "clients": clients,
            "queue_depth": queue_depth,
            "total_requests": total_requests,
            "think_time_us": think_time_us,
        }
        return self

    def condition(
        self,
        condition: Union[Condition, tuple, None] = None,
        *,
        pec: int = 0,
        months: float = 0.0,
        fill: float = DEFAULT_FILL_FRACTION,
    ) -> "Simulation":
        """Set the preconditioned operating condition.

        ``fill`` is the fraction of the logical space the precondition
        pass writes (default 0.85); lower it when a fault plan retires
        blocks mid-run and needs free-pool headroom.
        """
        if condition is not None:
            self._condition = Condition.coerce(condition)
        else:
            self._condition = Condition(pe_cycles=pec, retention_months=months, fill_fraction=fill)
        return self

    def rpt(self, rpt: ReadTimingParameterTable) -> "Simulation":
        """Share a pre-built Read-timing Parameter Table across the run."""
        self._rpt = rpt
        return self

    def lookahead(self, requests: int) -> "Simulation":
        """Size the admission pump's lookahead window (default 64 requests).

        Streamed requests may arrive out of order by up to the window;
        raise it when replaying real traces with local timestamp
        misordering (e.g. interleaved multi-disk captures).
        """
        if requests < 1:
            raise ValueError("lookahead must be at least 1")
        self._lookahead = requests
        return self

    # -- execution ------------------------------------------------------------
    def _policy_names(self) -> List[str]:
        return [
            policy if isinstance(policy, str) else getattr(policy, "name", repr(policy))
            for policy in self._policies
        ]

    def manifest(self) -> dict:
        """JSON-able description of the run (config, workload, condition)."""
        manifest = {
            "config": self._config.to_dict(),
            "condition": self._condition.to_dict(),
            "policies": self._policy_names(),
        }
        if self._source is not None:
            manifest["workload"] = source_to_dict(self._source)
        elif self._requests is not None:
            manifest["workload"] = {"explicit_requests": len(self._requests)}
        elif self._stream is not None:
            manifest["workload"] = {"stream": getattr(self._stream, "__name__", "<stream>")}
        if self._fault_plan:
            manifest["faults"] = self._fault_plan.to_dict()
        if self._fleet_params is not None:
            # Execution knobs (worker count, checkpoint store) do not alter
            # the simulated outcome and stay out of the manifest; the shard
            # size appears only when explicitly set.
            fleet = {
                key: value
                for key, value in self._fleet_params.items()
                if key not in ("processes", "checkpoint")
                and not (key == "shard_devices" and value is None)
            }
            if fleet.get("device_conditions") is not None:
                fleet["device_conditions"] = [
                    Condition.coerce(condition).to_dict()
                    for condition in fleet["device_conditions"]
                ]
            manifest["fleet"] = fleet
        if self._slo_params is not None:
            manifest["slo"] = dict(self._slo_params)
        if self._closed_loop_params is not None:
            manifest["closed_loop"] = dict(self._closed_loop_params)
        return manifest

    def _policy_stream(self) -> Iterable[HostRequest]:
        """A fresh request stream for one policy's run.

        Workload specs stream straight from their generator and stream
        factories from their callable; explicit request lists are replayed
        as-is (the simulator does not mutate them), so no copies are made
        on any path.
        """
        if self._source is not None:
            return self._source.iter_requests(self._config)
        if self._requests is not None:
            return self._requests
        if self._stream is not None:
            return self._stream()
        raise ValueError(
            "no workload configured; call .workload(), .synthetic(), "
            ".pattern(), .requests() or .stream() first"
        )

    def _fleet_spec(self):
        from repro.sim.fleet import FleetSpec

        # slo() without fleet() searches a single device.
        params = self._fleet_params or {"devices": 1}
        fields = ("devices", "stripe_unit_pages", "replication", "device_conditions")
        return FleetSpec(
            config=self._config,
            condition=self._condition,
            **{key: params[key] for key in fields if key in params},
        )

    def _fleet_source(self):
        if self._source is not None:
            return self._source
        if self._requests is not None:
            return self._requests
        raise ValueError(
            "fleet runs shard a declarative source; call .workload(), "
            ".synthetic(), .pattern(), .tenants() or .requests() first "
            "(.stream() factories cannot be re-sharded per device)"
        )

    def _run_fleet(self):
        from repro.sim.fleet import FleetRunner, SloCapacitySearch

        fleet_params = self._fleet_params or {}
        runner = FleetRunner(
            spec=self._fleet_spec(),
            processes=fleet_params.get("processes", 1),
            rpt=self._rpt,
            shard_devices=fleet_params.get("shard_devices"),
            checkpoint=fleet_params.get("checkpoint"),
        )
        if not all(isinstance(policy, str) for policy in self._policies):
            raise ValueError(
                "fleet runs resolve policies per device; pass registry "
                "names, not policy instances"
            )
        policy_names = list(self._policies)
        if self._slo_params is not None:
            if self._fault_plan:
                raise ValueError(
                    "faults() cannot be combined with slo(): the capacity "
                    "search would bisect against a transiently degraded array"
                )
            if len(policy_names) != 1:
                raise ValueError("slo() capacity search needs exactly one policy")
            if self._requests is not None:
                raise ValueError(
                    "slo() bisects the arrival rate; it needs a workload "
                    "spec or tenant mix, not an explicit request list"
                )
            params = self._slo_params
            search = SloCapacitySearch(
                runner,
                target_p99_us=params["target_p99_us"],
                tolerance=params["tolerance"],
                max_probes=params["max_probes"],
                kind=params["kind"],
            )
            return search.find(
                self._fleet_source(),
                policy=policy_names[0],
                start_rate_rps=params["start_rate_rps"],
            )
        result = runner.run(
            self._fleet_source(),
            policies=policy_names,
            lookahead=self._lookahead,
            faults=self._fault_plan,
        )
        result.manifest = dict(result.manifest, session=self.manifest())
        return result

    def run(self):
        """Execute the configured run and collect the results.

        Plain runs return a :class:`RunResult`; after :meth:`fleet` the
        return is a :class:`repro.sim.fleet.FleetRunResult`, and after
        :meth:`slo` a :class:`repro.sim.fleet.CapacityResult`.
        """
        if not self._policies:
            raise ValueError("no policy configured; call .policy(name) first")
        reject_repeats("policy", self._policy_names())
        if self._fleet_params is not None or self._slo_params is not None:
            if self._closed_loop_params is not None:
                raise ValueError(
                    "closed_loop() drives a single device; it cannot be "
                    "combined with fleet() or slo()"
                )
            return self._run_fleet()
        return self._run_device()

    def _run_device(self) -> RunResult:
        """Run every policy on its own preconditioned device, one at a time.

        Open-loop, tenant-mix and closed-loop runs share this loop; a
        closed loop and a tenant-tracking source record per-tenant
        histograms.
        """
        closed_loop = self._closed_loop_params
        if closed_loop is not None and not isinstance(self._source, WorkloadSpec):
            raise ValueError(
                "closed_loop() draws request contents from a workload "
                "spec; call .workload() or .synthetic() first"
            )
        track_tenants = closed_loop is not None or getattr(self._source, "tracks_tenants", False)
        lookahead = self._lookahead or DEFAULT_LOOKAHEAD_REQUESTS
        results: Dict[str, SimulationResult] = {}
        previous_stream = None
        for policy in self._policies:
            simulator = preconditioned_simulator(
                self._config,
                policy,
                self._condition,
                rpt=self._rpt,
                faults=self._fault_plan,
                track_tenants=track_tenants,
            )
            if closed_loop is not None:
                source = ClosedLoopSource(
                    self._source, config=self._config, seed=self._source.seed, **closed_loop
                )
                result = simulator.run_closed_loop(source)
            else:
                stream = self._policy_stream()
                if (
                    self._stream is not None
                    and stream is previous_stream
                    and hasattr(stream, "__next__")
                ):
                    # The factory handed back the very same iterator: the
                    # first policy consumed it, so every later policy would
                    # silently simulate zero requests and win every comparison.
                    raise ValueError(
                        "stream() factory returned the same exhausted iterator "
                        "for a second policy; it must build a fresh iterable "
                        "per call"
                    )
                previous_stream = stream
                result = simulator.run(stream, lookahead=lookahead)
            # A finished simulator sits in reference cycles until a garbage
            # collection; no local may keep it alive while the next is built.
            del simulator
            results[result.policy_name] = result
        if self._stream is not None and len(results) > 1:
            # Every policy replays the same stream, so the completed-request
            # counts must agree; a mismatch means the factory shared one
            # underlying iterator (however re-wrapped) and later policies
            # saw a drained stream.
            counts = {
                name: result.metrics.host_reads + result.metrics.host_writes
                for name, result in results.items()
            }
            if len(set(counts.values())) > 1:
                raise ValueError(
                    "stream() factory fed different request counts to the "
                    f"policies ({counts}); it must build an independent "
                    "iterable per call, not re-wrap one shared iterator"
                )
        return RunResult(
            config=self._config,
            condition=self._condition,
            results=results,
            workload=self._source,
            manifest=self.manifest(),
        )
