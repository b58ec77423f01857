"""Additional raw bit errors caused by reduced read-timing parameters.

Section 5.2 of the paper characterizes what happens when the three read-phase
timing parameters (tPRE, tEVAL, tDISCH) are shortened below their
manufacturer defaults.  The underlying mechanism (Section 3.2.2) is a small
population of *outlier bitlines* — thick wires, narrow contacts, high
parasitic capacitance — that need much longer than typical bitlines to reach
the precharge voltage or to fully discharge.  Manufacturers set the default
timings to cover those outliers, which leaves a large exploitable margin for
the majority of bitlines.

The model here draws the per-bitline required time for each phase from a
lognormal distribution; shortening a phase below a bitline's requirement
corrupts the bit sensed through it.  Three effects from the paper are
captured:

* sensitivity ordering: tEVAL is by far the most sensitive parameter,
  tDISCH is moderately sensitive, tPRE has the largest safe margin
  (Figure 8);
* operating-condition scaling: worn and long-retention cells have less cell
  current so the same timing deficit flips more bits (Figure 8), and a low
  operating temperature amplifies the effect slightly (Figure 10);
* coupling: a shortened discharge phase leaves bitlines partially charged,
  which effectively lengthens the precharge requirement of the *next*
  sensing cycle, so simultaneous tPRE+tDISCH reduction costs more than the
  sum of the individual reductions (Figure 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors.calibration import TIMING_CALIBRATION, TimingCalibration
from repro.errors.condition import OperatingCondition
from repro.errors.variation import VariationSample
from repro.nand.timing import ReadTimingParameters


def _standard_normal_sf(z: float) -> float:
    """Survival function of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class TimingReduction:
    """Fractional reductions of the three read-phase timing parameters."""

    pre: float = 0.0
    eval_: float = 0.0
    disch: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("pre", self.pre), ("eval_", self.eval_),
                            ("disch", self.disch)):
            if not 0.0 <= value < 1.0:
                raise ValueError(
                    f"{name} reduction must be in [0, 1), got {value}")

    @classmethod
    def none(cls) -> "TimingReduction":
        return cls()

    @classmethod
    def from_parameters(cls, reduced: ReadTimingParameters,
                        default: ReadTimingParameters) -> "TimingReduction":
        """Express a reduced parameter set relative to the default one."""
        fractions = reduced.reduction_from(default)
        return cls(pre=max(0.0, fractions["pre"]),
                   eval_=max(0.0, fractions["eval"]),
                   disch=max(0.0, fractions["disch"]))

    def apply_to(self, default: ReadTimingParameters) -> ReadTimingParameters:
        """The reduced timing parameters resulting from this reduction."""
        return default.with_reduction(pre=self.pre, eval_=self.eval_,
                                      disch=self.disch)

    @property
    def is_default(self) -> bool:
        return self.pre == 0.0 and self.eval_ == 0.0 and self.disch == 0.0


class ReadTimingErrorModel:
    """Expected additional raw bit errors per codeword from reduced timings."""

    def __init__(self, calibration: TimingCalibration = TIMING_CALIBRATION,
                 default_timing: ReadTimingParameters = None):
        self._calibration = calibration
        self._default = default_timing or ReadTimingParameters()

    @property
    def calibration(self) -> TimingCalibration:
        return self._calibration

    @property
    def default_timing(self) -> ReadTimingParameters:
        return self._default

    # -- public API -----------------------------------------------------------
    def additional_errors_per_codeword(
            self, reduction: TimingReduction,
            condition: OperatingCondition,
            variation: VariationSample = None) -> float:
        """Expected extra raw bit errors per 1-KiB codeword (Delta M_ERR)."""
        if reduction.is_default:
            return 0.0
        severity = self.severity(condition)
        if variation is not None:
            severity *= variation.timing_multiplier

        cal = self._calibration
        temperature_factor = self.temperature_amplification(condition)
        errors = self.phase_error_sum(reduction)
        base_errors = errors * severity
        # Low operating temperature amplifies the undercharge errors, but the
        # amplification is bounded by the small population of
        # temperature-marginal bitlines (Figure 10: at most ~7 extra errors).
        temperature_fraction = max(0.0, temperature_factor - 1.0)
        if cal.temperature_amplification_at_30c > 0:
            temperature_share = (temperature_fraction
                                 / cal.temperature_amplification_at_30c)
        else:
            temperature_share = 0.0
        temperature_extra = min(
            base_errors * temperature_fraction,
            cal.temperature_extra_error_cap_at_30c * temperature_share)
        return base_errors + temperature_extra

    def phase_error_sum(self, reduction: TimingReduction) -> float:
        """Condition-independent expected extra errors of a reduction.

        This is the sum of the three per-phase outlier-bitline terms before
        the operating-condition severity and temperature scaling are applied;
        :meth:`additional_errors_per_codeword` multiplies it by the severity.
        It is exposed separately so that the vectorized kernel in
        :mod:`repro.errors.batch` and the retry grid's
        :class:`~repro.ssd.retry_grid.RowWalk` can evaluate it once per
        condition and apply it to every variation corner.
        """
        cal = self._calibration
        # A shortened discharge phase leaves residual charge on the bitlines,
        # which effectively lengthens the precharge requirement of the next
        # sensing cycle (Section 2.2); the coupling grows quadratically so a
        # tiny tDISCH reduction is nearly free (Figure 9, third observation).
        effective_pre = min(
            0.99, reduction.pre + cal.disch_to_pre_coupling * reduction.disch ** 2)

        errors = 0.0
        errors += self._phase_errors(
            remaining_us=self._default.t_pre_us * (1.0 - effective_pre),
            default_us=self._default.t_pre_us,
            log_median=cal.pre_log_median_us, log_sigma=cal.pre_log_sigma)
        errors += self._phase_errors(
            remaining_us=self._default.t_eval_us * (1.0 - reduction.eval_),
            default_us=self._default.t_eval_us,
            log_median=cal.eval_log_median_us, log_sigma=cal.eval_log_sigma)
        errors += self._phase_errors(
            remaining_us=self._default.t_disch_us * (1.0 - reduction.disch),
            default_us=self._default.t_disch_us,
            log_median=cal.disch_log_median_us, log_sigma=cal.disch_log_sigma)
        return errors

    def severity(self, condition: OperatingCondition) -> float:
        """Operating-condition scaling of timing-induced errors.

        Normalized to 1.0 at (1K P/E cycles, 0 retention, 85 degC), the
        reference point of Figure 8's discussion.  Operating temperature is
        handled separately (and bounded) in
        :meth:`additional_errors_per_codeword`.
        """
        cal = self._calibration
        pec_factor = 1.0 + cal.severity_pec_coefficient * condition.kilo_pe_cycles
        retention_factor = (1.0 + cal.severity_retention_coefficient
                            * math.log1p(condition.retention_months
                                         / cal.severity_retention_tau_months))
        norm = 1.0 + cal.severity_pec_coefficient  # value at (1K, 0)
        return pec_factor * retention_factor / norm

    def safe_pre_reduction(self, condition: OperatingCondition,
                           error_budget: float,
                           granularity: float = 0.01,
                           max_reduction: float = 0.60) -> float:
        """Largest tPRE reduction whose extra errors stay within a budget.

        This is the optimization the RPT builder performs for every
        (PEC, retention) bin (Section 5.2.3 / Figure 11).
        """
        if error_budget < 0:
            return 0.0
        best = 0.0
        steps = int(round(max_reduction / granularity))
        for index in range(1, steps + 1):
            candidate = index * granularity
            extra = self.additional_errors_per_codeword(
                TimingReduction(pre=candidate), condition)
            if extra <= error_budget:
                best = candidate
            else:
                break
        return best

    # -- internals ------------------------------------------------------------
    def _phase_errors(self, remaining_us: float, default_us: float,
                      log_median: float, log_sigma: float) -> float:
        """Expected extra errors contributed by one shortened phase.

        The error count at the default duration is subtracted so that the
        model reports only *additional* errors — the residual outlier errors
        at default timings are already part of the V_TH error floor.
        """
        bits = self._calibration.codeword_bits
        at_reduced = bits * self._exceedance(remaining_us, log_median, log_sigma)
        at_default = bits * self._exceedance(default_us, log_median, log_sigma)
        return max(0.0, at_reduced - at_default)

    @staticmethod
    def _exceedance(duration_us: float, log_median: float,
                    log_sigma: float) -> float:
        """Probability that a bitline needs more than ``duration_us``."""
        if duration_us <= 0:
            return 1.0
        z = (math.log(duration_us) - log_median) / log_sigma
        return _standard_normal_sf(z)

    def temperature_amplification(self, condition: OperatingCondition) -> float:
        """Low-temperature amplification of timing-induced errors (Figure 10)."""
        cal = self._calibration
        reference = 85.0
        span = reference - 30.0
        delta = max(0.0, reference - condition.temperature_c)
        return 1.0 + cal.temperature_amplification_at_30c * delta / span
