"""``repro.sim`` — the unified simulation session API.

This package is the canonical public surface for running the read-retry
simulator:

* :mod:`repro.sim.registry` — a :class:`PolicyRegistry` the built-in and
  third-party read-retry policies register into by name
  (:func:`register_policy`);
* :mod:`repro.sim.spec` — :class:`WorkloadSpec` and :class:`Condition`
  value objects replacing ad-hoc ``requests_factory`` closures, and
  ``preconditioned_simulator``, through which every runner below builds
  its simulated devices;
* :mod:`repro.sim.session` — the fluent :class:`Simulation` builder
  (``Simulation(config).policy("PnAR2").workload("ycsb-a", n=800)``
  ``.condition(pec=2000, months=6).run()``);
* :mod:`repro.sim.sweep` — :class:`SweepRunner`, which executes
  (workload x condition x policy) grids across a multiprocessing pool and
  returns a tidy :class:`SweepResult`;
* :mod:`repro.sim.fleet` — :class:`FleetSpec`/:class:`FleetRunner`, which
  stripe an array-level workload (optionally a multi-tenant
  :class:`~repro.workloads.tenants.TenantMix`) across N simulated SSDs,
  and :class:`SloCapacitySearch`, which bisects the arrival rate for the
  max sustainable load under a p99 SLO
  (``Simulation.fleet(n).slo(p99_us=...)``).

``Simulation``/``SweepRunner`` are imported lazily (PEP 562) so that
``repro.core.policies`` can import the registry at module-import time
without a cycle.
"""

from __future__ import annotations

from repro.sim.registry import (
    DEFAULT_REGISTRY,
    DuplicatePolicyError,
    PolicyLookupError,
    PolicyRegistry,
    default_registry,
    register_policy,
)

__all__ = [
    "CapacityProbe",
    "CapacityResult",
    "Condition",
    "DEFAULT_REGISTRY",
    "DEFAULT_SHARD_DEVICES",
    "DuplicatePolicyError",
    "FleetResult",
    "FleetRunResult",
    "FleetRunner",
    "FleetShardTiming",
    "FleetSpec",
    "PolicyLookupError",
    "PolicyRegistry",
    "RunResult",
    "Simulation",
    "SloCapacitySearch",
    "SweepResult",
    "SweepRunner",
    "TenantMix",
    "WorkerPool",
    "WorkloadSpec",
    "default_registry",
    "pool_map",
    "register_policy",
]

_LAZY = {
    "Condition": "repro.sim.spec",
    "WorkloadSpec": "repro.sim.spec",
    "Simulation": "repro.sim.session",
    "RunResult": "repro.sim.session",
    "SweepRunner": "repro.sim.sweep",
    "SweepResult": "repro.sim.sweep",
    "WorkerPool": "repro.sim.sweep",
    "pool_map": "repro.sim.sweep",
    "DEFAULT_SHARD_DEVICES": "repro.sim.fleet",
    "FleetSpec": "repro.sim.fleet",
    "FleetRunner": "repro.sim.fleet",
    "FleetResult": "repro.sim.fleet",
    "FleetRunResult": "repro.sim.fleet",
    "FleetShardTiming": "repro.sim.fleet",
    "SloCapacitySearch": "repro.sim.fleet",
    "CapacityProbe": "repro.sim.fleet",
    "CapacityResult": "repro.sim.fleet",
    "TenantMix": "repro.workloads.tenants",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
