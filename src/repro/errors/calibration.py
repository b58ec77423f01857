"""Calibration constants of the error models.

Every constant is annotated with the paper observation it is meant to
reproduce.  The values are fitted analytically to those observations;
``tests/test_calibration_targets.py`` checks that the headline
characterization numbers come out of the full model within loose tolerances.

All voltages are millivolts on the scale defined in
:mod:`repro.nand.voltage` (600 mV between adjacent programmed states); all
times are microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VthCalibration:
    """Constants of the threshold-voltage distribution model.

    The fitted targets are:

    * fresh pages (0 PEC, 0 retention) read with the default V_REF values
      decode without read-retry (Figure 5, left plot at 0 months);
    * the V_TH shift grows with retention age and P/E cycles such that the
      retry-step counts of Figure 5 are reproduced: a median of about 7 steps
      at (0 PEC, 6 months), at least 8 steps at (1K PEC, 3 months), and an
      average of about 20 steps at (2K PEC, 12 months);
    * the distribution widening reproduces the final-retry-step error counts
      of Figure 7 (which are population *maxima* across the tested pages):
      roughly 15 errors/KiB at (0 PEC, 3 months, 85C), about 30 at
      (1K, 12 months, 85C) and about 35-40 at (2K, 12 months, 30C), i.e. a
      greater than 44% ECC-capability margin even in the worst case.
    """

    # Fresh per-state standard deviation of programmed states (mV).
    sigma_programmed_fresh_mv: float = 95.0
    # The erased state is much wider than programmed states.
    sigma_erased_fresh_mv: float = 170.0

    # Sigma widening: sigma = sigma_fresh * (1 + a_pec * (PEC/1000)^p_pec
    #                                          + a_ret * log1p(t / tau_ret)).
    # Fitted so that the *population maximum* of the final-step error count
    # (nominal value times the worst-case process-variation corner) matches
    # Figure 7.
    sigma_pec_coefficient: float = 0.0587
    sigma_pec_exponent: float = 0.54
    sigma_retention_coefficient: float = 0.0264
    sigma_retention_tau_months: float = 0.3

    # Retention-induced V_TH shift of the programmed states (mV):
    # shift = shift_scale * log1p(t / tau)
    #         * (1 + pec_coefficient * (PEC/1000)^pec_exponent).
    # Fitted to Figure 5's retry-step counts: ~4-5 steps at (0 PEC, 3 mo),
    # ~7 at (0 PEC, 6 mo), >= 8 at (1K PEC, 3 mo), ~20 on average at
    # (2K PEC, 12 mo).
    shift_scale_mv: float = 142.0
    shift_tau_months: float = 1.0
    shift_pec_coefficient: float = 0.63
    shift_pec_exponent: float = 0.38

    # The erased state barely moves with retention (it has little charge to
    # lose); programmed states move together.
    erased_shift_fraction: float = 0.1

    # Reading at low temperature reduces the cell current through the bitline
    # which adds a roughly condition-independent number of raw bit errors:
    # +5 errors/KiB at 30C and +3 at 55C relative to 85C (Section 5.1,
    # third observation).
    temperature_reference_c: float = 85.0
    temperature_error_slope_per_kib: float = 5.0
    temperature_error_span_c: float = 55.0


@dataclass(frozen=True)
class TimingCalibration:
    """Constants of the reduced read-timing error model (Section 5.2).

    Each phase has a lognormal population of per-bitline time requirements;
    shortening the phase below a bitline's requirement corrupts the bits
    sensed through that bitline.  The fitted targets are:

    * tPRE can be reduced by 47% at (2K PEC, 12 months) and by 54% at
      (1K PEC, 0 months) while staying within the ECC capability
      (Figure 8(a)); a 1-year retention age increases the tPRE-induced error
      count by about 60% at 2K P/E cycles;
    * reducing tEVAL by 20% adds about 30 errors/KiB even on a fresh page,
      while a 10% reduction is safe (Figure 8(b));
    * reducing tDISCH by 7% adds at most ~4 errors/KiB; 20% adds ~8 at
      (1K, 0); ~27% is the limit at the worst condition (Figure 8(c));
    * reducing tPRE and tDISCH together couples through the partially
      discharged bitlines: (54% tPRE, 20% tDISCH) at (1K, 0) exceeds the ECC
      capability even though the individual reductions cost only 35 and 8
      errors (Figure 9).
    """

    # Lognormal parameters (of the per-bitline required time, microseconds).
    pre_log_median_us: float = 1.14   # ln(3.13 us)
    pre_log_sigma: float = 0.48
    eval_log_median_us: float = 1.079  # ln(2.94 us)
    eval_log_sigma: float = 0.119
    disch_log_median_us: float = 0.839  # ln(2.31 us)
    disch_log_sigma: float = 0.40

    # Severity scaling with operating condition, normalized to (1K PEC, 0 mo):
    # severity = (1 + pec_coeff*PEC/1000) * (1 + ret_coeff*log1p(t/tau)) / norm.
    severity_pec_coefficient: float = 0.33
    severity_retention_coefficient: float = 0.546
    severity_retention_tau_months: float = 6.0

    # Lower operating temperature slows the bitline current, amplifying
    # timing-induced errors by up to ~15% at 30C, but the extra errors are
    # bounded by the small population of temperature-marginal bitlines
    # (Figure 10 shows at most ~7 additional errors even at the worst
    # condition and the largest reduction).
    temperature_amplification_at_30c: float = 0.15
    temperature_extra_error_cap_at_30c: float = 7.0

    # Coupling of simultaneous tPRE and tDISCH reduction: the discharge
    # deficit adds quadratically to the effective precharge reduction
    # (Figure 9; a 7% tDISCH reduction is nearly free, 20% is not).
    disch_to_pre_coupling: float = 2.0

    #: Bits per ECC codeword (1 KiB of data).
    codeword_bits: int = 8192


@dataclass(frozen=True)
class VariationCalibration:
    """Process-variation magnitudes across chips, blocks and wordlines.

    Variation is multiplicative and lognormal; the listed values are the
    standard deviations of the underlying normal.  They reproduce the spread
    of retry-step counts visible in Figure 5 (several steps of spread within
    one operating condition) and the existence of outlier pages motivating
    the paper's 7-bit outlier safety margin (Section 5.2.3).
    """

    chip_shift_sigma: float = 0.04
    block_shift_sigma: float = 0.05
    wordline_shift_sigma: float = 0.07
    chip_sigma_sigma: float = 0.010
    block_sigma_sigma: float = 0.010
    wordline_sigma_sigma: float = 0.014
    chip_timing_sigma: float = 0.04
    block_timing_sigma: float = 0.04


@dataclass(frozen=True)
class EccCalibration:
    """ECC configuration of the simulated SSD (Sections 4 and 7.1)."""

    #: Correctable raw bit errors per 1-KiB codeword.
    capability_bits: int = 72
    #: Codeword payload size in bytes.
    codeword_bytes: int = 1024
    #: Safety margin reserved by AR2 when selecting reduced tPRE values:
    #: 7 bits for temperature-induced errors plus 7 bits for outlier pages
    #: (Section 5.2.3 / Figure 11).
    ar2_safety_margin_bits: int = 14


#: Module-level defaults shared by the characterization and the simulator.
VTH_CALIBRATION = VthCalibration()
TIMING_CALIBRATION = TimingCalibration()
VARIATION_CALIBRATION = VariationCalibration()
ECC_CALIBRATION = EccCalibration()
