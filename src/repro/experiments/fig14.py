"""Figure 14: SSD response time of PR2, AR2, PnAR2 and NoRR vs Baseline.

For every workload and (P/E cycles, retention age) cell, the experiment
reports the mean SSD response time of each configuration normalized to the
Baseline.  Headline numbers mirror the paper's observations: PnAR2 reduces
the average response time by roughly 29% on average (up to ~52%), PR2 and
AR2 alone help less, and a large gap to the ideal NoRR remains.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.experiments.api import param, register_experiment
from repro.experiments.reporting import ExperimentResult
from repro.sim.registry import default_registry
from repro.sim.sweep import SweepRunner
from repro.ssd.config import SsdConfig
from repro.workloads.catalog import workload_names

#: The operating-condition grid of Figures 14/15: P/E cycles (x1000) and
#: retention ages (months).  The paper sweeps 0-3K PEC and 0/6/12 months; the
#: default here is the subset shown on the figures' x-axis labels.
DEFAULT_CONDITION_GRID: Tuple[Tuple[int, float], ...] = (
    (0, 0.0), (0, 6.0), (0, 12.0),
    (1000, 0.0), (1000, 6.0), (1000, 12.0),
    (2000, 0.0), (2000, 6.0), (2000, 12.0),
)


def default_experiment_config(**overrides) -> SsdConfig:
    """The scaled-down SSD the system-level experiments run on."""
    defaults = dict(blocks_per_plane=24, pages_per_block=48)
    defaults.update(overrides)
    return SsdConfig.scaled(**defaults)


@register_experiment(
    "fig14",
    artifact="Figure 14 — SSD response time of PR2/AR2/PnAR2/NoRR",
    tags=("paper", "figure", "system"),
    params=(
        param("workloads", None, "Table 2 workload names (None = all 12)",
              fast=("usr_1", "YCSB-C", "stg_0"), smoke=("usr_1",)),
        param("conditions", None,
              "(PEC, months) grid (None = the 9-cell default)",
              fast=((0, 0.0), (1000, 6.0), (2000, 12.0)),
              smoke=((1000, 6.0),)),
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
    """Run the Figure 14 grid.

    The defaults are sized for a laptop-scale run (a subset of conditions
    and a few hundred requests per cell); pass the full grid and more
    requests to tighten the statistics, and ``processes > 1`` to spread the
    cells over a multiprocessing pool.
    """
    workloads = list(workloads or workload_names())
    conditions = tuple(conditions or DEFAULT_CONDITION_GRID)
    config = config or default_experiment_config()
    runner = SweepRunner(config=config, processes=processes)
    sweep = runner.run(policies=default_registry().names(tag="fig14"),
                       workloads=workloads, conditions=conditions,
                       num_requests=num_requests, seed=seed)
    rows = sweep.rows

    def mean_reduction(policy: str) -> float:
        values = [1.0 - row["normalized_response_time"] for row in rows
                  if row["policy"] == policy]
        return float(np.mean(values)) if values else 0.0

    def max_reduction(policy: str) -> float:
        values = [1.0 - row["normalized_response_time"] for row in rows
                  if row["policy"] == policy]
        return float(max(values)) if values else 0.0

    norr_rows = [row["normalized_response_time"] for row in rows
                 if row["policy"] == "NoRR"]
    pnar2_rows = [row["normalized_response_time"] for row in rows
                  if row["policy"] == "PnAR2"]
    gap_ratio = (float(np.mean(pnar2_rows)) / float(np.mean(norr_rows))
                 if norr_rows and pnar2_rows else float("nan"))

    headline = {
        "PR2 mean response-time reduction": f"{mean_reduction('PR2'):.1%}",
        "PR2 max response-time reduction": f"{max_reduction('PR2'):.1%}",
        "AR2 mean response-time reduction": f"{mean_reduction('AR2'):.1%}",
        "PnAR2 mean response-time reduction": f"{mean_reduction('PnAR2'):.1%}",
        "PnAR2 max response-time reduction": f"{max_reduction('PnAR2'):.1%}",
        "PnAR2 / NoRR mean response-time ratio": round(gap_ratio, 2),
    }
    return ExperimentResult(
        name="fig14",
        title="Figure 14: normalized SSD response time (PR2/AR2/PnAR2/NoRR)",
        rows=rows,
        headline=headline,
        notes=[f"{len(workloads)} workloads x {len(conditions)} conditions x "
               f"{num_requests} requests per cell on a scaled-down SSD; the "
               "paper reports 17.7%/11.9%/28.9% average reductions for "
               "PR2/AR2/PnAR2 and up to 51.8% for PnAR2"],
    )


def main() -> None:  # pragma: no cover
    result = run(workloads=("usr_1", "YCSB-C", "stg_0"),
                 conditions=((0, 0.0), (1000, 6.0), (2000, 12.0)),
                 num_requests=400)
    print(result.to_text(max_rows=80))


if __name__ == "__main__":  # pragma: no cover
    main()
