"""Tail latency: per-policy p99/p999 response times across Table 2 workloads.

The paper evaluates the read-retry policies by *mean* response time
(Figures 14/15), but the mechanisms' production value is in the latency
tail: a read that needs a dozen retry steps sits an order of magnitude
above the median, and it is exactly those reads that PR2/AR2/PnAR2
shorten.  This experiment sweeps the Table 2 workloads over aged operating
conditions and reports p50/p99/p999 per policy — straight from the
fixed-memory histogram recorder, so the request counts can be scaled far
beyond what the list-based metrics allowed.

Per-policy headline numbers aggregate every (workload, condition) cell
through :meth:`repro.ssd.metrics.SimulationMetrics.merge`, the same
fixed-memory merge sweep-level reporting uses.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.experiments.api import param, register_experiment
from repro.experiments.fig14 import default_experiment_config
from repro.experiments.reporting import ExperimentResult
from repro.sim.registry import default_registry
from repro.sim.sweep import SweepRunner
from repro.ssd.metrics import SimulationMetrics
from repro.workloads.catalog import workload_names

#: Aged conditions where read retry dominates the tail (fresh cells tie
#: every policy, so they add rows without information).
DEFAULT_TAIL_CONDITIONS: Tuple[Tuple[int, float], ...] = (
    (1000, 6.0), (2000, 12.0),
)


@register_experiment(
    "tail_latency",
    artifact="Tail latency — per-policy p99/p999 across the Table 2 workloads",
    tags=("system", "tail"),
    params=(
        param("workloads", None, "Table 2 workload names (None = all 12)",
              fast=("usr_1", "YCSB-C", "stg_0"), smoke=("usr_1",)),
        param("conditions", None,
              "(PEC, months) grid (None = the aged default)",
              fast=((1000, 6.0),), smoke=((1000, 6.0),)),
        param("num_requests", 1000, "host requests per cell",
              fast=300, smoke=100),
        param("seed", 0, "stream seed"),
        param("processes", 1, "sweep worker processes for the inner grid",
              cache_relevant=False),
    ))
def run(workloads: Sequence[str] = None,
        conditions: Sequence[Tuple[int, float]] = None,
        num_requests: int = 1000,
        seed: int = 0,
        config=None,
        processes: int = 1) -> ExperimentResult:
    """Report per-policy tail latencies over (workload, condition) cells."""
    workloads = list(workloads or workload_names())
    conditions = tuple(conditions or DEFAULT_TAIL_CONDITIONS)
    config = config or default_experiment_config()
    policies = default_registry().names(tag="fig14")
    runner = SweepRunner(config=config, processes=processes)
    sweep = runner.run(policies=policies, workloads=workloads,
                       conditions=conditions, num_requests=num_requests,
                       seed=seed)

    rows = []
    merged = {policy: SimulationMetrics() for policy in policies}
    for spec in sweep.workloads:
        for condition in sweep.conditions:
            cell = sweep.cell(spec.label, condition.pe_cycles,
                              condition.retention_months)
            for policy in policies:
                metrics = cell[policy].metrics
                merged[policy].merge(metrics)
                combined = metrics.latency("all")
                reads = metrics.latency("read")
                rows.append({
                    "workload": spec.label,
                    "pe_cycles": condition.pe_cycles,
                    "retention_months": condition.retention_months,
                    "policy": policy,
                    "mean_response_us": round(
                        metrics.mean_response_time_us(), 2),
                    "p50_response_us": round(combined.percentile(50.0), 2),
                    "p99_response_us": round(combined.p99(), 2),
                    "p999_response_us": round(combined.p999(), 2),
                    "p99_read_response_us": round(reads.p99(), 2),
                    "p999_read_response_us": round(reads.p999(), 2),
                })

    def tail_reduction(policy: str, percentile: float) -> float:
        baseline = merged["Baseline"].percentile_response_time_us(percentile)
        if baseline <= 0:
            return 0.0
        value = merged[policy].percentile_response_time_us(percentile)
        return 1.0 - value / baseline

    headline = {}
    for policy in policies:
        headline[f"{policy} merged p99/p999 (us)"] = (
            f"{merged[policy].p99_response_time_us():.1f} / "
            f"{merged[policy].p999_response_time_us():.1f}")
    for policy in ("PR2", "AR2", "PnAR2"):
        if policy in merged:
            headline[f"{policy} p99 reduction vs Baseline"] = (
                f"{tail_reduction(policy, 99.0):.1%}")
            headline[f"{policy} p999 reduction vs Baseline"] = (
                f"{tail_reduction(policy, 99.9):.1%}")

    return ExperimentResult(
        name="tail_latency",
        title="Tail latency: per-policy p99/p999 across Table 2 workloads",
        rows=rows,
        headline=headline,
        notes=[f"{len(workloads)} workloads x {len(conditions)} aged "
               f"conditions x {num_requests} requests per cell; percentiles "
               "are log-bucketed histogram estimates (relative error "
               "bounded by the ~1.6% bucket width), merged across cells "
               "with the recorder's fixed-memory merge()"],
    )


def main() -> None:  # pragma: no cover
    result = run(workloads=("usr_1", "YCSB-C", "stg_0"),
                 conditions=((1000, 6.0),), num_requests=400)
    print(result.to_text(max_rows=60))


if __name__ == "__main__":  # pragma: no cover
    main()
