"""Fleet capacity: max sustainable arrival rate under a p99 SLO.

The production question behind the paper's mechanisms: given an array of N
aged SSDs behind a striping/replication front-end serving a multi-tenant
workload mix, what aggregate arrival rate can the array sustain while the
p99 response time stays within the SLO — and how much more load does a
better read-retry policy buy?

The experiment builds a :class:`~repro.sim.fleet.FleetSpec` from its
parameters, mixes the named Table 2 workloads as tenants (each confined to
its own namespace slice of the array), and runs
:class:`~repro.sim.fleet.SloCapacitySearch` — geometric bracketing plus
bisection over the aggregate arrival rate — for each policy.  Rows report
every probe (rate, measured p99, SLO verdict) plus the per-device balance
at the found capacity; headlines compare the policies' capacities, i.e.
"PnAR2 serves X% more load than Baseline under the same SLO".

The per-device fleet simulations fan out over the shared worker pool
(``processes``); parallel runs are bitwise-identical to serial ones.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.experiments.api import param, register_experiment
from repro.experiments.fig14 import default_experiment_config
from repro.experiments.reporting import ExperimentResult
from repro.sim.fleet import FleetRunner, FleetSpec, SloCapacitySearch
from repro.sim.spec import Condition, WorkloadSpec
from repro.workloads.tenants import TenantMix

#: Every row carries the full column set; probe rows leave the device
#: columns empty and device rows the probe columns.
_ROW_COLUMNS = (
    "policy", "kind", "probe", "rate_rps", "mean_interarrival_us",
    "p99_response_us", "meets_slo", "device", "host_reads", "host_writes",
    "mean_response_us", "p999_response_us", "die_utilization",
)


def _normalized_row(**values) -> dict:
    row = dict.fromkeys(_ROW_COLUMNS)
    row.update(values)
    return row


@register_experiment(
    "fleet_capacity",
    artifact="Fleet capacity — max sustainable load under a p99 SLO",
    tags=("system", "fleet"),
    params=(
        param("devices", 8, "SSDs in the array", fast=4, smoke=2),
        param("replication", 2, "copies of every stripe unit",
              fast=1, smoke=1),
        param("stripe_unit_pages", 8, "pages per stripe unit"),
        param("tenants", ("usr_1", "YCSB-C", "stg_0"),
              "Table 2 workloads mixed as tenants",
              fast=("usr_1", "YCSB-C"), smoke=("usr_1",)),
        param("num_requests", 1500, "host requests per tenant per probe",
              fast=400, smoke=200),
        param("policies", ("Baseline", "PnAR2"),
              "policies whose capacity is searched",
              smoke=("PnAR2",)),
        param("target_p99_us", 8000.0, "the array p99 SLO in microseconds",
              fast=7000.0, smoke=6000.0),
        param("tolerance", 0.05,
              "relative rate tolerance the search converges to",
              fast=0.08, smoke=0.10),
        param("max_probes", 12, "fleet runs per policy at most",
              fast=10, smoke=8),
        param("condition", (1000, 6.0), "(PEC, months) the devices aged to"),
        param("seed", 0, "stream seed"),
        param("processes", 1, "worker processes for the device simulations",
              cache_relevant=False),
    ))
def run(devices: int = 8,
        replication: int = 2,
        stripe_unit_pages: int = 8,
        tenants: Sequence[str] = ("usr_1", "YCSB-C", "stg_0"),
        num_requests: int = 1500,
        policies: Sequence[str] = ("Baseline", "PnAR2"),
        target_p99_us: float = 8000.0,
        tolerance: float = 0.05,
        max_probes: int = 12,
        condition: Tuple[int, float] = (1000, 6.0),
        seed: int = 0,
        config=None,
        processes: int = 1) -> ExperimentResult:
    """Search each policy's SLO capacity on a multi-tenant SSD array."""
    config = config or default_experiment_config()
    if isinstance(policies, str):
        policies = (policies,)
    if isinstance(tenants, str):
        tenants = (tenants,)
    spec = FleetSpec(devices=devices, replication=replication,
                     stripe_unit_pages=stripe_unit_pages, config=config,
                     condition=Condition.coerce(tuple(condition)))
    mix = TenantMix(tenants=tuple(
        WorkloadSpec(name=name, num_requests=num_requests,
                     seed=seed + index, mean_interarrival_us=700.0)
        for index, name in enumerate(tenants)))
    runner = FleetRunner(spec=spec, processes=processes)
    search = SloCapacitySearch(runner, target_p99_us=target_p99_us,
                               tolerance=tolerance, max_probes=max_probes)

    rows = []
    capacities = {}
    for policy in policies:
        result = search.find(mix, policy=policy)
        capacities[result.policy] = result
        for probe in result.probe_rows():
            rows.append(_normalized_row(
                policy=result.policy, kind="probe", **probe))
        if result.fleet is not None:
            for device_row in result.fleet.device_rows():
                rows.append(_normalized_row(kind="device", **device_row))

    headline = {}
    for name, result in capacities.items():
        rate = result.max_rate_rps
        headline[f"{name} capacity (p99 <= {target_p99_us:g} us)"] = (
            f"{rate:.0f} req/s" if rate is not None else "below search range")
        headline[f"{name} search converged"] = result.converged
        if result.fleet is not None:
            headline[f"{name} utilization skew at capacity"] = round(
                result.fleet.utilization_skew(), 3)
    baseline = capacities.get("Baseline")
    if (baseline is not None and baseline.max_rate_rps
            and len(capacities) > 1):
        for name, result in capacities.items():
            if name == "Baseline" or not result.max_rate_rps:
                continue
            gain = result.max_rate_rps / baseline.max_rate_rps - 1.0
            headline[f"{name} capacity gain over Baseline"] = f"{gain:+.1%}"

    tenant_text = "+".join(tenants)
    return ExperimentResult(
        name="fleet_capacity",
        title=(f"Fleet capacity: {devices}-device array "
               f"(replication {replication}), p99 SLO {target_p99_us:g} us"),
        rows=rows,
        headline=headline,
        notes=[
            f"tenant mix {tenant_text} x {num_requests} requests/tenant/"
            f"probe at {condition[0]} PEC / {condition[1]:g} months; the "
            "search brackets then geometrically bisects the aggregate "
            f"arrival rate until the bracket is within {tolerance:.0%}; "
            "array p99 is measured on the merged per-device histograms "
            "(sub-request granularity: replicated writes count once per "
            "copy)",
        ],
    )


def main() -> None:  # pragma: no cover
    result = run(devices=2, replication=1, tenants=("usr_1",),
                 num_requests=300, policies=("Baseline", "PnAR2"),
                 target_p99_us=6000.0, tolerance=0.1, max_probes=8)
    print(result.to_text(max_rows=60))


if __name__ == "__main__":  # pragma: no cover
    main()
