"""ECC-capability margin in the final retry step (Figures 4(b) and 7).

Section 5.1 of the paper observes that although a read-retry is triggered
precisely because the ECC capability was exceeded, the *final* (successful)
retry step uses near-optimal read voltages and therefore leaves a large
unused ECC margin — at least 44% of the 72-bit capability even at
(2K P/E cycles, 12 months, 30 degC).  That margin is what AR2 spends on a
reduced tPRE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.characterization.platform import VirtualTestPlatform
from repro.errors.calibration import ECC_CALIBRATION
from repro.errors.condition import (
    CHARACTERIZATION_PE_CYCLES,
    CHARACTERIZATION_RETENTION_MONTHS,
    CHARACTERIZATION_TEMPERATURES_C,
    OperatingCondition,
)
from repro.nand.geometry import PageType


@dataclass(frozen=True)
class FinalStepErrors:
    """M_ERR for one operating condition (one cell of Figure 7)."""

    condition: OperatingCondition
    max_errors: float
    mean_errors: float

    @property
    def margin_bits(self) -> float:
        """ECC-capability margin left in the final retry step."""
        return ECC_CALIBRATION.capability_bits - self.max_errors

    @property
    def margin_fraction(self) -> float:
        """Margin as a fraction of the ECC capability (44.4% in the paper's
        worst case)."""
        return self.margin_bits / ECC_CALIBRATION.capability_bits


def final_step_error_sweep(
        platform: VirtualTestPlatform = None,
        pe_cycles: Sequence[int] = CHARACTERIZATION_PE_CYCLES,
        retention_months: Sequence[float] = CHARACTERIZATION_RETENTION_MONTHS,
        temperatures_c: Sequence[float] = CHARACTERIZATION_TEMPERATURES_C,
) -> Dict[Tuple[float, int, float], FinalStepErrors]:
    """Measure M_ERR over the Figure 7 grid.

    :return: mapping from ``(temperature, pe_cycles, retention_months)`` to
        the measured final-retry-step error statistics.
    """
    platform = platform or VirtualTestPlatform()
    results: Dict[Tuple[float, int, float], FinalStepErrors] = {}
    for temperature in temperatures_c:
        for pec in pe_cycles:
            for months in retention_months:
                condition = OperatingCondition(pe_cycles=pec,
                                               retention_months=months,
                                               temperature_c=temperature)
                values = platform.final_step_errors(condition).tolist()
                results[(temperature, pec, months)] = FinalStepErrors(
                    condition=condition,
                    max_errors=float(max(values)),
                    mean_errors=float(sum(values) / len(values)),
                )
    return results


def ecc_margin_sweep(platform: VirtualTestPlatform = None,
                     **kwargs) -> List[dict]:
    """Figure 7 rendered as printable rows (M_ERR and margin per condition)."""
    results = final_step_error_sweep(platform, **kwargs)
    rows = []
    for (temperature, pec, months), stats in sorted(results.items()):
        rows.append({
            "temperature_c": temperature,
            "pe_cycles": pec,
            "retention_months": months,
            "m_err": round(stats.max_errors, 1),
            "margin_bits": round(stats.margin_bits, 1),
            "margin_fraction": round(stats.margin_fraction, 3),
        })
    return rows


def rber_per_retry_step(platform: VirtualTestPlatform = None,
                        conditions: Sequence[OperatingCondition] = None,
                        last_steps: int = 4) -> List[dict]:
    """Figure 4(b): raw bit errors over the last retry steps of a read.

    The paper shows two pages whose reads need 16 and 21 retry steps; the
    error count collapses in the final step because its read voltages are
    nearly optimal.  By default this sweep picks two aged conditions that
    produce comparable step counts with the calibrated model.
    """
    platform = platform or VirtualTestPlatform(num_chips=2, blocks_per_chip=1,
                                               wordlines_per_block=1,
                                               page_types=(PageType.CSB,))
    if conditions is None:
        conditions = (
            OperatingCondition(pe_cycles=2000, retention_months=6.0,
                               temperature_c=30.0),
            OperatingCondition(pe_cycles=2000, retention_months=12.0,
                               temperature_c=30.0),
        )
    rows = []
    sample = platform.pages()[0]
    for condition in conditions:
        outcome = platform.read_test(sample, condition)
        errors = list(outcome.errors_per_step)
        total_steps = outcome.retry_steps
        tail = errors[-(last_steps + 1):]
        rows.append({
            "condition": condition.label(),
            "total_retry_steps": total_steps,
            "last_step_errors": [round(value, 1) for value in tail],
            "final_step_errors": round(errors[-1], 1),
            "ecc_capability": ECC_CALIBRATION.capability_bits,
        })
    return rows
