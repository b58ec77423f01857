"""Ablation studies of the design choices behind PnAR2.

Not a paper figure, but the knobs the paper discusses qualitatively:

* ``rpt_adaptivity`` — how much of AR2's benefit comes from *condition-aware*
  tPRE selection versus a single flat (worst-case 40%) reduction.
* ``scheduling`` — the contribution of the baseline SSD's latency-hiding
  features (read priority and program/erase suspension), which the paper
  includes in every configuration.
* ``extensions`` — the Section 8 speculative retry start, stacked on top
  of PnAR2, and the Sentinel prior work, alone and with PnAR2.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.extensions import SentinelPolicy, SpeculativeRetryPolicy
from repro.core.policies import get_policy
from repro.core.rpt import ReadTimingParameterTable
from repro.experiments.api import param, register_experiment
from repro.experiments.fig14 import default_experiment_config
from repro.experiments.reporting import ExperimentResult
from repro.sim.session import Simulation
from repro.ssd.metrics import normalized_response_times


def _run_cell(policies, config, workload, condition, num_requests, seed, rpt):
    pec, months = condition
    run = (Simulation(config)
           .policies(policies)
           .workload(workload, n=num_requests, seed=seed,
                     mean_interarrival_us=700.0)
           .condition(pec=pec, months=months)
           .rpt(rpt)
           .run())
    return run.results


@register_experiment(
    "ablation_rpt",
    artifact="Ablation — condition-aware RPT vs flat 40% tPRE reduction",
    tags=("ablation", "system"),
    params=(
        param("workload", "usr_1", "Table 2 workload name"),
        param("conditions", ((250, 1.0), (2000, 12.0)),
              "(PEC, months) cells", smoke=((2000, 12.0),)),
        param("num_requests", 300, "host requests per cell",
              fast=150, smoke=80),
        param("seed", 0, "stream seed"),
    ))
def rpt_adaptivity(workload: str = "usr_1",
                   conditions: Sequence[Tuple[int, float]] = ((250, 1.0),
                                                              (2000, 12.0)),
                   num_requests: int = 300,
                   seed: int = 0) -> ExperimentResult:
    """Adaptive RPT versus a flat worst-case 40% tPRE reduction."""
    config = default_experiment_config()
    adaptive_rpt = ReadTimingParameterTable.default()
    flat_rpt = ReadTimingParameterTable.conservative(pre_reduction=0.40)
    rows = []
    for condition in conditions:
        adaptive = _run_cell(("Baseline", "PnAR2"), config, workload,
                             condition, num_requests, seed, adaptive_rpt)
        flat = _run_cell(("PnAR2",), config, workload, condition,
                         num_requests, seed, flat_rpt)
        baseline_mean = adaptive["Baseline"].metrics.mean_response_time_us()
        rows.append({
            "pe_cycles": condition[0],
            "retention_months": condition[1],
            "adaptive_rpt_normalized": round(
                adaptive["PnAR2"].metrics.mean_response_time_us() / baseline_mean, 4),
            "flat_40pct_normalized": round(
                flat["PnAR2"].metrics.mean_response_time_us() / baseline_mean, 4),
        })
    benefit = [row["flat_40pct_normalized"] - row["adaptive_rpt_normalized"]
               for row in rows]
    return ExperimentResult(
        name="ablation_rpt",
        title="Ablation: condition-aware RPT vs flat 40% tPRE reduction",
        rows=rows,
        headline={"largest normalized-response-time gain of adaptivity":
                  round(max(benefit), 4)},
        notes=["under mild conditions the adaptive table picks larger "
               "reductions (up to 54%), under the worst condition both "
               "tables coincide at 40%"],
    )


@register_experiment(
    "ablation_scheduling",
    artifact="Ablation — out-of-order scheduling and P/E suspension",
    tags=("ablation", "system"),
    params=(
        param("workload", "stg_0", "Table 2 workload name"),
        param("condition", (1000, 6.0), "(PEC, months) operating point"),
        param("num_requests", 400, "host requests",
              fast=200, smoke=80),
        param("seed", 0, "stream seed"),
    ))
def scheduling(workload: str = "stg_0",
               condition: Tuple[int, float] = (1000, 6.0),
               num_requests: int = 400,
               seed: int = 0) -> ExperimentResult:
    """Contribution of read priority and program/erase suspension."""
    rpt = ReadTimingParameterTable.default()
    rows = []
    variants = {
        "read priority + suspension": dict(read_priority=True, suspension=True),
        "read priority only": dict(read_priority=True, suspension=False),
        "neither (FIFO)": dict(read_priority=False, suspension=False),
    }
    for label, flags in variants.items():
        config = default_experiment_config(**flags)
        cell = _run_cell(("Baseline",), config, workload, condition,
                         num_requests, seed, rpt)
        metrics = cell["Baseline"].metrics
        rows.append({
            "scheduler": label,
            "mean_read_response_us": round(metrics.mean_response_time_us("read"), 1),
            "p99_read_response_us": round(
                metrics.percentile_response_time_us(99.0, "read"), 1),
        })
    fifo = rows[-1]["mean_read_response_us"]
    full = rows[0]["mean_read_response_us"]
    return ExperimentResult(
        name="ablation_scheduling",
        title="Ablation: out-of-order scheduling and program/erase suspension",
        rows=rows,
        headline={"read response-time reduction of the full scheduler vs FIFO":
                  f"{1.0 - full / fifo:.1%}" if fifo else None},
    )


@register_experiment(
    "ablation_extensions",
    artifact="Ablation — Section 8 extensions and Sentinel on top of PnAR2",
    tags=("ablation", "system"),
    params=(
        param("workload", "usr_1", "Table 2 workload name"),
        param("condition", (2000, 12.0), "(PEC, months) operating point"),
        param("num_requests", 300, "host requests",
              fast=150, smoke=80),
        param("seed", 0, "stream seed"),
    ))
def extensions(workload: str = "usr_1",
               condition: Tuple[int, float] = (2000, 12.0),
               num_requests: int = 300,
               seed: int = 0) -> ExperimentResult:
    """Section 8 extensions and the Sentinel technique stacked on PnAR2."""
    config = default_experiment_config()
    rpt = ReadTimingParameterTable.default()
    policies = [
        get_policy("Baseline", config.timing, rpt),
        get_policy("PnAR2", config.timing, rpt),
        SpeculativeRetryPolicy(config.timing, rpt),
        SentinelPolicy(config.timing, rpt),
        SentinelPolicy(config.timing, rpt, mechanism="pnar2"),
        get_policy("NoRR", config.timing, rpt),
    ]
    cell = _run_cell(policies, config, workload, condition, num_requests,
                     seed, rpt)
    normalized = normalized_response_times(
        {name: result.metrics for name, result in cell.items()})
    rows = [{"policy": name,
             "normalized_response_time": round(value, 4),
             "mean_response_us": round(
                 cell[name].metrics.mean_response_time_us(), 1)}
            for name, value in normalized.items()]
    return ExperimentResult(
        name="ablation_extensions",
        title="Ablation: Section 8 extensions and Sentinel on top of PnAR2",
        rows=rows,
        headline={
            "PnAR2 normalized": rows[1]["normalized_response_time"],
            "best extension normalized": min(
                row["normalized_response_time"] for row in rows[2:-1]),
        },
    )


def run(which: str = "all", **kwargs) -> ExperimentResult:
    """Entry point used by tests; ``which`` selects one study."""
    which = which.lower()
    if which in ("rpt", "rpt_adaptivity"):
        return rpt_adaptivity(**kwargs)
    if which == "scheduling":
        return scheduling(**kwargs)
    if which == "extensions":
        return extensions(**kwargs)
    raise ValueError("which must be 'rpt', 'scheduling' or 'extensions'")
