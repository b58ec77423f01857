"""Figure 15: combining PR2/AR2 with an existing retry-mitigation scheme.

PSO (Process Similarity-aware Optimization, Shim et al.) reduces the *number*
of retry steps; PR2 and AR2 reduce the *latency of each step*.  The paper
shows the two are complementary: PSO+PnAR2 cuts the mean response time by up
to 31.5% (17% on average) over PSO alone in read-dominant workloads, yet
still sits ~1.6x above the ideal NoRR.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.experiments.api import param, register_experiment
from repro.experiments.fig14 import (
    DEFAULT_CONDITION_GRID,
    default_experiment_config,
)
from repro.experiments.reporting import ExperimentResult
from repro.sim.registry import default_registry
from repro.sim.sweep import SweepRunner
from repro.workloads.catalog import WORKLOAD_CATALOG, workload_names


@register_experiment(
    "fig15",
    artifact="Figure 15 — PSO and PSO+PnAR2 comparison",
    tags=("paper", "figure", "system"),
    params=(
        param("workloads", None, "Table 2 workload names (None = all 12)",
              fast=("usr_1", "YCSB-C", "stg_0"), smoke=("usr_1",)),
        param("conditions", None,
              "(PEC, months) grid (None = the 9-cell default)",
              fast=((1000, 6.0), (2000, 12.0)), smoke=((1000, 6.0),)),
        param("num_requests", 600, "host requests per cell",
              fast=300, smoke=100),
        param("seed", 0, "stream seed"),
        param("processes", 1, "sweep worker processes for the inner grid",
              cache_relevant=False),
    ))
def run(workloads: Sequence[str] = None,
        conditions: Sequence[Tuple[int, float]] = None,
        num_requests: int = 600,
        seed: int = 0,
        config=None,
        processes: int = 1) -> ExperimentResult:
    workloads = list(workloads or workload_names())
    conditions = tuple(conditions or DEFAULT_CONDITION_GRID)
    config = config or default_experiment_config()
    runner = SweepRunner(config=config, processes=processes)
    sweep = runner.run(policies=default_registry().names(tag="fig15"),
                       workloads=workloads, conditions=conditions,
                       num_requests=num_requests, seed=seed)
    grid = sweep.to_grid()
    rows = sweep.rows

    def reductions_vs_pso(read_dominant: bool):
        """PSO+PnAR2 response-time reduction relative to PSO per cell."""
        values = []
        for workload, by_condition in grid.items():
            if WORKLOAD_CATALOG[workload].read_dominant != read_dominant:
                continue
            for cell in by_condition.values():
                pso = cell["PSO"].metrics.mean_response_time_us()
                combined = cell["PSO+PnAR2"].metrics.mean_response_time_us()
                if pso > 0:
                    values.append(1.0 - combined / pso)
        return values

    def ratio_to_norr(policy: str, read_dominant: bool):
        values = []
        for workload, by_condition in grid.items():
            if WORKLOAD_CATALOG[workload].read_dominant != read_dominant:
                continue
            for cell in by_condition.values():
                norr = cell["NoRR"].metrics.mean_response_time_us()
                target = cell[policy].metrics.mean_response_time_us()
                if norr > 0:
                    values.append(target / norr)
        return values

    read_gains = reductions_vs_pso(read_dominant=True)
    write_gains = reductions_vs_pso(read_dominant=False)
    pso_vs_norr = ratio_to_norr("PSO", read_dominant=True)
    combined_vs_norr = ratio_to_norr("PSO+PnAR2", read_dominant=True)

    headline = {
        "PSO+PnAR2 vs PSO, read-dominant (mean)":
            f"{float(np.mean(read_gains)):.1%}" if read_gains else None,
        "PSO+PnAR2 vs PSO, read-dominant (max)":
            f"{float(np.max(read_gains)):.1%}" if read_gains else None,
        "PSO+PnAR2 vs PSO, write-dominant (mean)":
            f"{float(np.mean(write_gains)):.1%}" if write_gains else None,
        "PSO / NoRR mean ratio (read-dominant)":
            round(float(np.mean(pso_vs_norr)), 2) if pso_vs_norr else None,
        "PSO+PnAR2 / NoRR mean ratio (read-dominant)":
            round(float(np.mean(combined_vs_norr)), 2) if combined_vs_norr else None,
    }
    return ExperimentResult(
        name="fig15",
        title="Figure 15: PSO and PSO+PnAR2 normalized response time",
        rows=rows,
        headline=headline,
        notes=["the paper reports up to 31.5% (17% mean) reduction over PSO "
               "in read-dominant workloads and a remaining 1.6x gap to NoRR"],
    )


def main() -> None:  # pragma: no cover
    result = run(workloads=("usr_1", "YCSB-C", "stg_0"),
                 conditions=((1000, 6.0), (2000, 12.0)),
                 num_requests=400)
    print(result.to_text(max_rows=80))


if __name__ == "__main__":  # pragma: no cover
    main()
