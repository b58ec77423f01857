"""Regression tests pinning the model to the paper's headline numbers.

These tests intentionally use loose tolerances: the goal is that the *shape*
and approximate magnitude of every characterization result the paper quotes
in prose keeps holding as the code evolves, not that the analytic model hits
exact values.
"""

import pytest

from repro.core.extensions import RegularReadSpeedupPolicy
from repro.errors.calibration import ECC_CALIBRATION
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.nand.geometry import PageType
from repro.nand.timing import TimingParameters


def _max_over_page_types(fn):
    return max(fn(page_type) for page_type in PageType)


class TestRetryStepTargets:
    """Section 3.1 / Figure 5."""

    def test_fresh_page_has_no_retry(self, error_model):
        condition = OperatingCondition(0, 0.0, 30.0)
        for page_type in PageType:
            assert error_model.retry_steps_required(condition, page_type) == 0

    def test_three_month_zero_pec_needs_more_than_three_steps(self, error_model):
        # Introduction: "under a 3-month data retention age at zero P/E
        # cycles ... every read requires more than three retry steps".
        condition = OperatingCondition(0, 3.0, 30.0)
        steps = error_model.retry_steps_required(condition, PageType.CSB)
        assert steps > 3

    def test_six_month_zero_pec_is_around_seven_steps(self, error_model):
        # Figure 5: 54.4% of reads need at least 7 steps at (0 PEC, 6 mo).
        condition = OperatingCondition(0, 6.0, 30.0)
        steps = _max_over_page_types(
            lambda pt: error_model.retry_steps_required(condition, pt))
        assert 6 <= steps <= 9

    def test_one_k_pec_three_months_needs_at_least_seven(self, error_model):
        # Figure 5: at least eight retry steps at (1K PEC, 3 months); allow
        # one step of slack for the analytic model.
        condition = OperatingCondition(1000, 3.0, 30.0)
        steps = error_model.retry_steps_required(condition, PageType.CSB)
        assert steps >= 7

    def test_worst_condition_averages_about_twenty_steps(self, error_model):
        # Figure 5: ~19.9 steps on average at (2K PEC, 12 months).
        condition = OperatingCondition(2000, 12.0, 30.0)
        steps = [error_model.retry_steps_required(condition, page_type)
                 for page_type in PageType]
        mean_steps = sum(steps) / len(steps)
        assert 16 <= mean_steps <= 25


class TestEccDefaults:
    """Section 7.1: the simulated SSD's ECC."""

    def test_defaults_match_simulated_ssd(self):
        # 72 correctable bits per 1-KiB codeword, decoded in tECC = 20 us;
        # every run takes its capability from the error model and its tECC
        # from the timing parameters.
        assert ECC_CALIBRATION.capability_bits == 72
        assert ECC_CALIBRATION.codeword_bytes == 1024
        assert ECC_CALIBRATION.decode_latency_us == 20.0
        assert CodewordErrorModel().ecc_capability == 72
        assert CodewordErrorModel().ecc_calibration is ECC_CALIBRATION
        assert TimingParameters().t_ecc_us == ECC_CALIBRATION.decode_latency_us


    def test_ar2_reserves_fourteen_bits(self, error_model, default_rpt):
        # Section 5.2.3 / Figure 11: 7 bits for temperature plus 7 for
        # outlier pages.  A regular read may use the RPT's reduced tPRE
        # only with the margin left below the capability.
        assert ECC_CALIBRATION.ar2_safety_margin_bits == 14
        fresh = OperatingCondition(0, 0.0, 30.0)
        entry = default_rpt.entry_for(fresh.pe_cycles, fresh.retention_months)
        reserving = RegularReadSpeedupPolicy(rpt=default_rpt)
        decisions = set()
        for margin in (14, 34, 40):
            policy = RegularReadSpeedupPolicy(rpt=default_rpt,
                                              safety_margin_bits=margin)
            for page_type in PageType:
                errors = error_model.expected_errors(
                    fresh, page_type,
                    timing_reduction=TimingReduction(pre=entry.pre_reduction))
                decision = policy.regular_read_can_be_reduced(page_type, fresh)
                assert decision == (errors + margin <= 72)
                decisions.add(decision)
                if margin == 14:
                    assert reserving.regular_read_can_be_reduced(
                        page_type, fresh) is decision
        assert decisions == {True, False}


class TestEccMarginTargets:
    """Section 5.1 / Figure 7."""

    def test_worst_case_margin_is_large(self, error_model):
        # M_ERR(2K, 12 mo) at 30C leaves a margin of about 44% of the
        # 72-bit capability.  The paper's number is a maximum over the tested
        # population; the nominal (no-variation) page evaluated here sits a
        # little above that margin.
        condition = OperatingCondition(2000, 12.0, 30.0)
        m_err = _max_over_page_types(
            lambda pt: error_model.near_optimal_step_errors(condition, pt))
        margin_fraction = (error_model.ecc_capability - m_err) / error_model.ecc_capability
        assert 0.3 <= margin_fraction <= 0.7

    def test_margin_shrinks_with_aging(self, error_model):
        mild = OperatingCondition(0, 3.0, 85.0)
        worst = OperatingCondition(2000, 12.0, 85.0)
        assert (error_model.near_optimal_step_errors(mild, PageType.CSB)
                < error_model.near_optimal_step_errors(worst, PageType.CSB))

    def test_temperature_adds_about_five_errors(self, error_model):
        hot = error_model.near_optimal_step_errors(
            OperatingCondition(1000, 12.0, 85.0), PageType.CSB)
        cold = error_model.near_optimal_step_errors(
            OperatingCondition(1000, 12.0, 30.0), PageType.CSB)
        assert cold - hot == pytest.approx(5.0, abs=1.0)


class TestTimingReductionTargets:
    """Section 5.2 / Figures 8-11."""

    def test_tpre_safe_at_47pct_under_worst_condition(self, error_model):
        # Figure 8(a): 47% tPRE reduction keeps the final step decodable at
        # (2K PEC, 12 months) without the safety margin.
        condition = OperatingCondition(2000, 12.0, 85.0)
        base = error_model.near_optimal_step_errors(condition, PageType.CSB)
        delta = error_model.timing_model.additional_errors_per_codeword(
            TimingReduction(pre=0.47), condition)
        assert base + delta <= error_model.ecc_capability

    def test_teval_reduction_is_cost_ineffective(self, error_model):
        # Section 5.2.1: 20% tEVAL reduction costs ~42% of the capability
        # even on a fresh page, for only a 2.5% tR gain.
        condition = OperatingCondition(0, 0.0, 85.0)
        delta = error_model.timing_model.additional_errors_per_codeword(
            TimingReduction(eval_=0.2), condition)
        assert delta >= 0.3 * error_model.ecc_capability

    def test_rpt_reductions_span_40_to_54_pct(self, default_rpt):
        reductions = [entry.pre_reduction
                      for _, entry in default_rpt.iter_entries()]
        assert min(reductions) >= 0.40 - 1e-9
        assert max(reductions) <= 0.60
        assert max(reductions) >= 0.54 - 1e-9

    def test_reduced_tr_saves_about_25pct(self, default_rpt, timing):
        # A >=40% tPRE reduction shortens tR by at least ~24%.
        reduced = default_rpt.reduced_timing_for(2000, 12.0)
        ratio = reduced.sense_cycle_us / timing.read.sense_cycle_us
        assert ratio <= 0.76
