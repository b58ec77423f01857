"""Offline profiling of safe tPRE reductions (Figure 11 and Figure 13's RPT).

AR2's correctness hinges on choosing, for every operating-condition bin, a
tPRE value whose additional errors stay within the ECC-capability margin of
the final retry step — with a 14-bit safety margin on top (7 bits for
temperature-induced errors plus 7 bits for outlier pages, Section 5.2.3).
The paper finds the safe reduction ranges from 40% under the worst condition
to 54% under the best (Figure 11).

This module performs that profiling against the calibrated error model and
produces the :class:`repro.core.rpt.ReadTimingParameterTable` the SSD
controller queries at run time.  The controller reads a shipped copy of it,
:data:`repro.core.rpt.DEFAULT_RPT_PROFILE`, which
``scripts/generate_default_rpt.py`` regenerates from :func:`build_rpt`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.characterization.platform import VirtualTestPlatform
from repro.core.rpt import (
    DEFAULT_PEC_BIN_EDGES,
    DEFAULT_RETENTION_BIN_EDGES_MONTHS,
    ReadTimingParameterTable,
    RptEntry,
)
from repro.errors.calibration import ECC_CALIBRATION
from repro.errors.condition import OperatingCondition
from repro.errors.timing import TimingReduction
from repro.nand.geometry import PageType
from repro.nand.timing import ReadTimingParameters

#: Candidate tPRE reductions considered by the profiler (the granularity of
#: Figure 11's y-axis).
CANDIDATE_PRE_REDUCTIONS = (0.0, 0.07, 0.13, 0.20, 0.27, 0.34, 0.40, 0.47,
                            0.54, 0.60)

#: Profiling temperature: the paper profiles at the temperature that maximizes
#: the error count (30 degC, see Section 5.1's temperature observation).
PROFILING_TEMPERATURE_C = 30.0


def _profiling_platform() -> VirtualTestPlatform:
    """A small but representative page population for profiling."""
    return VirtualTestPlatform(num_chips=6, blocks_per_chip=3,
                               wordlines_per_block=2,
                               page_types=(PageType.CSB,))


def safe_pre_reduction(condition: OperatingCondition,
                       platform: VirtualTestPlatform = None,
                       safety_margin_bits: int = None,
                       candidates: Sequence[float] = CANDIDATE_PRE_REDUCTIONS
                       ) -> Tuple[float, float]:
    """Largest candidate tPRE reduction that keeps the final step decodable.

    :return: ``(reduction, remaining_margin_bits)`` for the chosen reduction.
    """
    platform = platform or _profiling_platform()
    if safety_margin_bits is None:
        safety_margin_bits = ECC_CALIBRATION.ar2_safety_margin_bits
    capability = ECC_CALIBRATION.capability_bits
    base_errors = platform.max_final_step_errors(condition)
    budget = capability - safety_margin_bits - base_errors

    best_reduction = 0.0
    best_margin = capability - base_errors
    model = platform.error_model.timing_model
    worst_variation = max((sample.variation for sample in platform.pages()),
                          key=lambda variation: variation.timing_multiplier)
    for candidate in sorted(candidates):
        if candidate == 0.0:
            continue
        delta = model.additional_errors_per_codeword(
            TimingReduction(pre=candidate), condition, worst_variation)
        if delta <= budget:
            best_reduction = candidate
            best_margin = capability - base_errors - delta
        else:
            break
    return best_reduction, best_margin


def minimum_safe_tpre_sweep(
        platform: VirtualTestPlatform = None,
        pe_cycles: Sequence[int] = (0, 1000, 2000),
        retention_months: Sequence[float] = (0.0, 3.0, 6.0, 9.0, 12.0),
        default_timing: ReadTimingParameters = None,
) -> List[dict]:
    """Figure 11: minimum safe tPRE (maximum reduction) per condition."""
    platform = platform or _profiling_platform()
    default_timing = default_timing or ReadTimingParameters()
    rows = []
    for pec in pe_cycles:
        for months in retention_months:
            condition = OperatingCondition(pe_cycles=pec,
                                           retention_months=months,
                                           temperature_c=PROFILING_TEMPERATURE_C)
            reduction, margin = safe_pre_reduction(condition, platform)
            rows.append({
                "pe_cycles": pec,
                "retention_months": months,
                "max_pre_reduction_pct": round(reduction * 100.0, 1),
                "min_t_pre_us": round(default_timing.t_pre_us * (1.0 - reduction), 2),
                "remaining_margin_bits": round(margin, 1),
            })
    return rows


def build_rpt(platform: VirtualTestPlatform = None,
              pec_bin_edges: Sequence[int] = DEFAULT_PEC_BIN_EDGES,
              retention_bin_edges_months: Sequence[float] = DEFAULT_RETENTION_BIN_EDGES_MONTHS,
              default_timing: ReadTimingParameters = None,
              safety_margin_bits: int = None) -> ReadTimingParameterTable:
    """Profile every (PEC, retention) bin and assemble the RPT (Figure 13).

    Each bin is profiled at its *upper* edges — the worst condition the bin
    covers — so every block mapped to the bin at run time is at least as
    healthy as the profiled point.
    """
    platform = platform or _profiling_platform()
    default_timing = default_timing or ReadTimingParameters()
    entries: Dict[Tuple[int, int], RptEntry] = {}
    for pec_index, pec_edge in enumerate(pec_bin_edges):
        for ret_index, ret_edge in enumerate(retention_bin_edges_months):
            condition = OperatingCondition(
                pe_cycles=pec_edge, retention_months=ret_edge,
                temperature_c=PROFILING_TEMPERATURE_C)
            reduction, margin = safe_pre_reduction(
                condition, platform, safety_margin_bits=safety_margin_bits)
            entries[(pec_index, ret_index)] = RptEntry(
                pre_reduction=reduction,
                t_pre_us=default_timing.t_pre_us * (1.0 - reduction),
                margin_bits=margin,
            )
    return ReadTimingParameterTable(
        entries, pec_bin_edges=pec_bin_edges,
        retention_bin_edges_months=retention_bin_edges_months,
        default_timing=default_timing)
