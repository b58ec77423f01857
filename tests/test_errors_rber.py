"""Tests for the codeword raw-bit-error model and the retry walk."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors.calibration import ECC_CALIBRATION
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.errors.variation import VariationSample
from repro.nand.geometry import PageType
from repro.nand.voltage import ReadRetryTable


class TestExpectedErrors:
    def test_fresh_page_is_nearly_error_free(self, error_model, fresh_condition):
        for page_type in PageType:
            errors = error_model.expected_errors(fresh_condition, page_type)
            assert errors < 15.0

    def test_default_read_of_aged_page_exceeds_capability(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        errors = error_model.expected_errors(condition, PageType.CSB)
        assert errors > error_model.ecc_capability

    def test_errors_decrease_toward_the_optimal_shift(self, error_model, vth_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        optimal = vth_model.optimal_shift_mv(condition)
        at_default = error_model.expected_errors(condition, PageType.CSB, 0.0)
        halfway = error_model.expected_errors(condition, PageType.CSB, optimal / 2)
        at_optimal = error_model.expected_errors(condition, PageType.CSB, optimal)
        assert at_default > halfway > at_optimal

    def test_csb_pages_have_most_errors(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        optimal_errors = {
            page_type: error_model.errors_at_optimal(condition, page_type)
            for page_type in PageType}
        assert optimal_errors[PageType.CSB] >= optimal_errors[PageType.MSB]
        assert optimal_errors[PageType.CSB] >= optimal_errors[PageType.LSB]

    def test_timing_reduction_adds_errors(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        base = error_model.errors_at_optimal(condition, PageType.CSB)
        reduced = error_model.errors_at_optimal(
            condition, PageType.CSB,
            timing_reduction=TimingReduction(pre=0.54))
        assert reduced > base

    def test_variation_increases_errors(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        worse = VariationSample(sigma_multiplier=1.1)
        assert (error_model.errors_at_optimal(condition, PageType.CSB, worse)
                > error_model.errors_at_optimal(condition, PageType.CSB))

    def test_reference_set_wrapper_matches_shift(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        table = ReadRetryTable()
        refs = table.reference_set_for_step(3)
        direct = error_model.expected_errors(condition, PageType.CSB,
                                             table.shift_for_step(3))
        wrapped = error_model.expected_errors_with_reference_set(
            condition, PageType.CSB, refs)
        assert wrapped == pytest.approx(direct)


class TestSampling:
    def test_sampling_is_poisson_like(self, error_model, rng):
        condition = OperatingCondition(1000, 6.0, 85.0)
        expected = error_model.errors_at_optimal(condition, PageType.CSB)
        samples = [error_model.sample_errors(
            condition, PageType.CSB, rng,
            reference_shift_mv=error_model.vth_model.optimal_shift_mv(condition))
            for _ in range(300)]
        assert np.mean(samples) == pytest.approx(expected, rel=0.2)

    def test_sampling_is_deterministic_per_seed(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        first = error_model.sample_errors(condition, PageType.CSB,
                                          np.random.default_rng(3))
        second = error_model.sample_errors(condition, PageType.CSB,
                                           np.random.default_rng(3))
        assert first == second


class TestRetryWalk:
    def test_fresh_page_needs_no_retry(self, error_model, fresh_condition):
        outcome = error_model.walk_retry_table(fresh_condition, PageType.CSB)
        assert outcome.retry_steps == 0
        assert outcome.succeeded

    def test_aged_page_needs_many_steps(self, error_model):
        condition = OperatingCondition(2000, 12.0, 30.0)
        outcome = error_model.walk_retry_table(condition, PageType.CSB)
        assert outcome.succeeded
        assert 15 <= outcome.retry_steps <= 30
        assert outcome.final_errors <= error_model.ecc_capability
        # Every earlier step failed.
        assert all(errors > error_model.ecc_capability
                   for errors in outcome.errors_per_step[:-1])

    def test_retry_steps_monotonic_in_retention(self, error_model):
        steps = []
        for months in (0.0, 3.0, 6.0, 12.0):
            outcome = error_model.walk_retry_table(
                OperatingCondition(1000, months, 85.0), PageType.CSB)
            steps.append(outcome.retry_steps)
        assert steps == sorted(steps)

    def test_errors_per_step_starts_with_default_read(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        outcome = error_model.walk_retry_table(condition, PageType.CSB)
        assert len(outcome.errors_per_step) == outcome.retry_steps + 1

    def test_small_table_causes_read_failure(self, error_model):
        condition = OperatingCondition(2000, 12.0, 30.0)
        tiny_table = ReadRetryTable(num_entries=3)
        outcome = error_model.walk_retry_table(condition, PageType.CSB,
                                               table=tiny_table)
        assert not outcome.succeeded
        assert outcome.retry_steps is None

    def test_near_optimal_errors_leave_margin(self, error_model):
        # Section 5.1: a large ECC-capability margin remains in the final
        # retry step even at the worst condition.
        condition = OperatingCondition(2000, 12.0, 30.0)
        errors = error_model.near_optimal_step_errors(condition, PageType.CSB)
        assert errors < error_model.ecc_capability
        margin = error_model.final_step_margin(condition, PageType.CSB)
        assert margin == pytest.approx(error_model.ecc_capability - errors)
        assert margin > 0.25 * error_model.ecc_capability

    def test_retry_steps_required_helper(self, error_model):
        condition = OperatingCondition(1000, 6.0, 85.0)
        steps = error_model.retry_steps_required(condition, PageType.CSB)
        outcome = error_model.walk_retry_table(condition, PageType.CSB)
        assert steps == outcome.retry_steps


def _model_with_ecc(**ecc):
    return CodewordErrorModel(
        ecc_calibration=dataclasses.replace(ECC_CALIBRATION, **ecc))


class TestCapabilityRule:
    """Section 7.1: a read decodes iff its codeword's raw bit errors are
    within the ECC capability, which every run takes from the calibration."""

    AGED = OperatingCondition(1000, 6.0, 85.0)

    def test_errors_at_the_capability_decode(self, error_model):
        initial = error_model.expected_errors(self.AGED, PageType.CSB)
        outcome = error_model.walk_retry_table(self.AGED, PageType.CSB,
                                               capability=initial)
        assert outcome.retry_steps == 0
        assert outcome.final_errors == initial

    def test_one_bit_past_the_capability_needs_a_retry(self, error_model):
        initial = error_model.expected_errors(self.AGED, PageType.CSB)
        capability = math.ceil(initial) - 1
        assert initial > capability
        outcome = error_model.walk_retry_table(self.AGED, PageType.CSB,
                                               capability=capability)
        assert outcome.retry_steps != 0
        assert outcome.errors_per_step[0] == initial

    def test_a_decoded_read_reports_the_step_that_decoded(self, error_model):
        outcome = error_model.walk_retry_table(self.AGED, PageType.CSB)
        assert outcome.retry_steps > 0
        assert (outcome.final_errors
                == outcome.errors_per_step[outcome.retry_steps]
                == outcome.errors_per_step[-1])
        assert outcome.best_step_errors == min(outcome.errors_per_step)
        assert outcome.best_step_errors <= error_model.ecc_capability

    def test_a_failed_read_tries_every_entry_and_reports_its_best(
            self, error_model):
        table = ReadRetryTable(num_entries=3)
        outcome = error_model.walk_retry_table(
            OperatingCondition(2000, 12.0, 30.0), PageType.CSB, table=table)
        assert not outcome.succeeded
        assert len(outcome.errors_per_step) == table.num_entries + 1
        assert (outcome.final_errors == outcome.best_step_errors
                == min(outcome.errors_per_step))
        assert outcome.best_step_errors > error_model.ecc_capability

    def test_the_capability_comes_from_the_ecc_calibration(self, error_model):
        weak = _model_with_ecc(capability_bits=40)
        assert weak.ecc_capability == 40
        for page_type in PageType:
            assert (weak.walk_retry_table(self.AGED, page_type)
                    == error_model.walk_retry_table(self.AGED, page_type,
                                                    capability=40))

    def test_a_weaker_ecc_needs_at_least_as_many_steps(self, error_model):
        weak = _model_with_ecc(capability_bits=40)
        for condition in (OperatingCondition(0, 3.0, 30.0), self.AGED,
                          OperatingCondition(2000, 12.0, 30.0)):
            for page_type in PageType:
                assert (weak.retry_steps_required(condition, page_type)
                        >= error_model.retry_steps_required(condition,
                                                            page_type))
                assert (error_model.final_step_margin(condition, page_type)
                        - weak.final_step_margin(condition, page_type)
                        == pytest.approx(72 - 40))

    def test_cells_per_state_fill_one_codeword(self, error_model):
        assert error_model.cells_per_state == 1024
        double = _model_with_ecc(codeword_bytes=2048)
        assert double.cells_per_state == 2 * error_model.cells_per_state
        extra = error_model.vth_model.temperature_extra_errors_per_kib(
            self.AGED)
        for page_type in PageType:
            single = error_model.expected_errors(self.AGED, page_type) - extra
            assert (double.expected_errors(self.AGED, page_type) - extra
                    == pytest.approx(2 * single))

    def test_the_nominal_sample_is_the_default_variation(self, error_model):
        nominal = VariationSample.nominal()
        for condition in (OperatingCondition(0, 0.0, 85.0), self.AGED,
                          OperatingCondition(2000, 12.0, 30.0)):
            for page_type in PageType:
                for shift in (0.0, -240.0, -900.0):
                    assert (error_model.expected_errors(
                                condition, page_type, shift)
                            == error_model.expected_errors(
                                condition, page_type, shift,
                                variation=nominal))

    def test_a_sampled_walk_stops_at_its_first_decodable_count(
            self, error_model):
        for seed in range(5):
            outcome = error_model.walk_retry_table(
                self.AGED, PageType.CSB, rng=np.random.default_rng(seed))
            counts = outcome.errors_per_step
            assert all(float(count).is_integer() for count in counts)
            assert all(count > error_model.ecc_capability
                       for count in counts[:-1])
            assert counts[-1] <= error_model.ecc_capability
            assert outcome.retry_steps == len(counts) - 1
