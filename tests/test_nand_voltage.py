"""Tests for threshold-voltage states, V_REF sets and the read-retry table."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nand.geometry import PageType
from repro.nand.voltage import (
    BOUNDARY_SHIFT_WEIGHTS,
    NUM_BOUNDARIES,
    NUM_STATES,
    ReadReferenceSet,
    ReadRetryTable,
    TLC_GRAY_CODE,
    bit_of_state,
    boundaries_for,
    default_read_references_mv,
    fresh_state_means_mv,
)


class TestStatesAndGrayCode:
    def test_eight_states_and_seven_boundaries(self):
        assert NUM_STATES == 8
        assert NUM_BOUNDARIES == 7
        assert len(fresh_state_means_mv()) == 8
        assert len(default_read_references_mv()) == 7

    def test_state_means_are_increasing(self):
        means = fresh_state_means_mv()
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_default_references_between_adjacent_states(self):
        means = fresh_state_means_mv()
        references = default_read_references_mv()
        for boundary, reference in enumerate(references):
            assert means[boundary] < reference < means[boundary + 1]

    def test_gray_code_has_unique_codewords(self):
        assert len(set(TLC_GRAY_CODE)) == NUM_STATES

    def test_gray_code_single_bit_transitions(self):
        # Adjacent states differ in exactly one bit (that is what makes the
        # 2-3-2 sensing split work).
        for state in range(NUM_STATES - 1):
            differences = sum(
                a != b for a, b in zip(TLC_GRAY_CODE[state],
                                       TLC_GRAY_CODE[state + 1]))
            assert differences == 1

    def test_bit_of_state_matches_sensed_boundaries(self):
        # The bit of a page type changes exactly at that page type's sensed
        # boundaries.
        for page_type in PageType:
            transitions = [
                boundary for boundary in range(NUM_BOUNDARIES)
                if bit_of_state(boundary, page_type)
                != bit_of_state(boundary + 1, page_type)
            ]
            assert tuple(transitions) == boundaries_for(page_type)

    def test_bit_of_state_validates_input(self):
        with pytest.raises(ValueError):
            bit_of_state(8, PageType.LSB)


class TestReadReferenceSet:
    def test_default_has_zero_shift(self):
        assert ReadReferenceSet.default().shift_mv == 0.0

    def test_shifted_applies_boundary_weights(self):
        base = ReadReferenceSet.default()
        shifted = base.shifted(-100.0)
        assert shifted.shift_mv == pytest.approx(-100.0)
        for boundary in range(NUM_BOUNDARIES):
            expected = (base.voltages_mv[boundary]
                        - 100.0 * BOUNDARY_SHIFT_WEIGHTS[boundary])
            assert shifted.voltages_mv[boundary] == pytest.approx(expected)

    def test_voltages_for_page_type(self):
        refs = ReadReferenceSet.default()
        assert len(refs.voltages_for(PageType.CSB)) == 3
        assert len(refs.voltages_for(PageType.MSB)) == 2

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ReadReferenceSet((0.0, 1.0))

    def test_voltage_for_boundary_range_checked(self):
        with pytest.raises(ValueError):
            ReadReferenceSet.default().voltage_for_boundary(7)


class TestReadRetryTable:
    def test_shifts_are_negative_and_monotonic(self):
        table = ReadRetryTable()
        shifts = [table.shift_for_step(step) for step in table.steps()]
        assert all(shift < 0 for shift in shifts)
        assert all(b < a for a, b in zip(shifts, shifts[1:]))

    def test_step_numbering_starts_at_one(self):
        table = ReadRetryTable()
        with pytest.raises(ValueError):
            table.shift_for_step(0)
        with pytest.raises(ValueError):
            table.shift_for_step(table.num_entries + 1)

    def test_reference_set_for_step(self):
        table = ReadRetryTable(step_mv=30.0)
        refs = table.reference_set_for_step(2)
        assert refs.shift_mv == pytest.approx(-60.0)

    def test_closest_step(self):
        table = ReadRetryTable(step_mv=30.0, num_entries=10)
        assert table.closest_step(-29.0) == 1
        assert table.closest_step(-95.0) == 3
        assert table.closest_step(-1000.0) == 10

    def test_closest_step_ties_and_non_finite_targets(self):
        table = ReadRetryTable(step_mv=30.0, num_entries=10)
        # Halfway between two steps the lower step wins.
        assert table.closest_step(-45.0) == 1
        assert table.closest_step(-75.0) == 2
        assert table.closest_step(-285.0) == 9
        for target in (math.nan, math.inf, -math.inf):
            assert table.closest_step(target) == 1
        # Past either end, however far, the end's step.
        for target in (1e9, 1e300, 5e-324, 0.0, -0.0):
            assert table.closest_step(target) == 1
        for target in (-1e9, -(2.0 ** 58), -1e300):
            assert table.closest_step(target) == 10

    @settings(max_examples=400, deadline=None)
    @given(
        step_mv=st.one_of(
            st.sampled_from([30.0, 0.1, 7.3]),
            st.floats(min_value=1e-3, max_value=1e3),
        ),
        num_entries=st.integers(min_value=1, max_value=64),
        target=st.one_of(
            st.floats(min_value=-1e4, max_value=1e3),
            st.integers(min_value=-140, max_value=20).map(lambda half: half * 0.5),
        ),
        scale_by_step=st.booleans(),
    )
    @example(step_mv=30.0, num_entries=40, target=-1.5, scale_by_step=True)
    @example(step_mv=30.0, num_entries=40, target=-40.5, scale_by_step=True)
    @example(step_mv=30.0, num_entries=40, target=-41.0, scale_by_step=True)
    @example(step_mv=30.0, num_entries=40, target=5e-324, scale_by_step=False)
    def test_closest_step_equals_the_linear_scan(self, step_mv, num_entries, target, scale_by_step):
        # Targets no further than 1e7 steps from the table, where every
        # distance the scan compares is exact to far below a step.
        if scale_by_step:
            # Targets on and halfway between steps, and past either end.
            target *= step_mv
        table = ReadRetryTable(step_mv=step_mv, num_entries=num_entries)
        assert table.closest_step(target) == _closest_step_by_scan(table, target)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReadRetryTable(step_mv=0.0)
        with pytest.raises(ValueError):
            ReadRetryTable(num_entries=0)

    def test_table_covers_worst_case_shift(self, vth_model, aged_condition):
        # The manufacturer table must reach beyond the optimal shift of the
        # worst characterized condition, otherwise reads would fail outright.
        table = ReadRetryTable()
        worst_shift = vth_model.optimal_shift_mv(aged_condition)
        assert table.shift_for_step(table.num_entries) < worst_shift


def _closest_step_by_scan(table, target_shift_mv):
    """The oracle: every step's distance, keeping the first minimum."""
    best_step = 1
    best_distance = float("inf")
    for step in table.steps():
        distance = abs(table.shift_for_step(step) - target_shift_mv)
        if distance < best_distance:
            best_distance = distance
            best_step = step
    return best_step
