"""Equivalence suite: the vectorized batch kernel versus the scalar model.

The batch kernel's contract is *bit-for-bit* equality with the scalar
:class:`~repro.errors.rber.CodewordErrorModel` — retry-step counts, the
fallback flag, failure cases, and even the raw float error values.  The
randomized sweeps here exercise conditions, page types, variation corners,
timing reductions and short retry tables against that contract, and the
Hypothesis properties pin the physical invariants (monotonicity in P/E
cycles and retention, reduced-timing walks never finishing earlier).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.rpt import DEFAULT_PEC_BIN_EDGES, DEFAULT_RETENTION_BIN_EDGES_MONTHS
from repro.errors import CodewordErrorModel, OperatingCondition
from repro.errors import batch as batch_module
from repro.errors.batch import BatchErrorModel, VariationArrays
from repro.errors.timing import TimingReduction
from repro.errors.variation import ProcessVariation, VariationSample
from repro.nand.geometry import PAGE_TYPE_ORDER, PageType
from repro.nand.voltage import ReadRetryTable
from repro.ssd.config import SsdConfig
from repro.ssd.retry_grid import RetryStepGrid, RowWalk

_MODEL = CodewordErrorModel()
_BATCH = BatchErrorModel(_MODEL)
_TABLE = ReadRetryTable()


@pytest.fixture(scope="module")
def corners() -> VariationArrays:
    variation = ProcessVariation(seed=7)
    samples = [variation.block_sample(chip=chip, block=block)
               for chip in range(6) for block in range(20)]
    return VariationArrays.from_samples(samples)


def _random_conditions(rng, count):
    return [OperatingCondition(
        pe_cycles=int(rng.integers(0, 3001)),
        retention_months=float(rng.uniform(0.0, 13.0)),
        temperature_c=float(rng.choice([30.0, 55.0, 85.0])))
        for _ in range(count)]


class TestExpectedErrorsEquivalence:
    def test_grid_matches_scalar_bitwise(self, corners):
        rng = np.random.default_rng(0)
        shifts = [0.0, -90.0, -300.0, -750.0, -1200.0]
        for condition in _random_conditions(rng, 6):
            for page_type in PageType:
                grid = _BATCH.expected_errors_grid(
                    condition, page_type, shifts, corners)
                for index in range(len(corners)):
                    sample = corners.sample_at(index)
                    for column, shift in enumerate(shifts):
                        scalar = _MODEL.expected_errors(
                            condition, page_type, reference_shift_mv=shift,
                            variation=sample)
                        assert grid[index, column] == scalar

    def test_timing_reduction_matches_scalar_bitwise(self, corners):
        rng = np.random.default_rng(1)
        reduction = TimingReduction(pre=0.45, disch=0.1)
        for condition in _random_conditions(rng, 4):
            grid = _BATCH.expected_errors_grid(
                condition, PageType.CSB, [-240.0], corners,
                timing_reduction=reduction)
            for index in range(len(corners)):
                scalar = _MODEL.expected_errors(
                    condition, PageType.CSB, reference_shift_mv=-240.0,
                    variation=corners.sample_at(index),
                    timing_reduction=reduction)
                assert grid[index, 0] == scalar

    def test_elementwise_api_broadcasts_conditions(self, corners):
        rng = np.random.default_rng(2)
        count = len(corners)
        pe = rng.integers(0, 3001, size=count)
        retention = rng.uniform(0.0, 13.0, size=count)
        shifts = rng.uniform(-1200.0, 60.0, size=count)
        batch = _BATCH.expected_errors(pe, retention, 30.0, PageType.MSB,
                                       shifts, variation=corners)
        for index in range(count):
            scalar = _MODEL.expected_errors(
                OperatingCondition(int(pe[index]), float(retention[index]),
                                   30.0),
                PageType.MSB, reference_shift_mv=float(shifts[index]),
                variation=corners.sample_at(index))
            assert batch[index] == scalar

    def test_nominal_variation_is_default(self):
        condition = OperatingCondition(1500, 9.0, 30.0)
        batch = _BATCH.expected_errors_grid(
            condition, PageType.LSB, [0.0], VariationArrays.nominal(1))
        scalar = _MODEL.expected_errors(condition, PageType.LSB,
                                        variation=VariationSample.nominal())
        assert batch[0, 0] == scalar


class TestWalkEquivalence:
    def test_steps_fallback_and_errors_match_scalar(self, corners):
        rng = np.random.default_rng(3)
        for condition in _random_conditions(rng, 8):
            page_type = list(PageType)[int(rng.integers(0, 3))]
            reduction = (None if rng.random() < 0.4
                         else TimingReduction(pre=float(rng.uniform(0.1, 0.6))))
            outcome = _BATCH.walk_retry_table(
                condition, page_type, corners, table=_TABLE,
                retry_timing_reduction=reduction)
            for index in range(len(corners)):
                scalar = _MODEL.walk_retry_table(
                    condition, page_type, table=_TABLE,
                    variation=corners.sample_at(index),
                    retry_timing_reduction=reduction)
                expected_steps = (-1 if scalar.retry_steps is None
                                  else scalar.retry_steps)
                assert outcome.retry_steps[index] == expected_steps
                assert outcome.succeeded[index] == scalar.succeeded
                assert outcome.final_errors[index] == scalar.final_errors
                assert (outcome.best_step_errors[index]
                        == scalar.best_step_errors)
                attempted = len(scalar.errors_per_step)
                assert np.array_equal(
                    outcome.errors_per_step[index, :attempted],
                    np.asarray(scalar.errors_per_step))

    def test_short_table_produces_failures(self, corners):
        """A table too short for the V_TH shift fails in both paths."""
        short = ReadRetryTable(num_entries=4)
        condition = OperatingCondition(2000, 12.0, 30.0)
        outcome = _BATCH.walk_retry_table(condition, PageType.CSB, corners,
                                          table=short)
        assert not outcome.succeeded.all()
        for index in range(len(corners)):
            scalar = _MODEL.walk_retry_table(
                condition, PageType.CSB, table=short,
                variation=corners.sample_at(index))
            assert outcome.succeeded[index] == scalar.succeeded

    def test_capability_override(self, corners):
        condition = OperatingCondition(1000, 6.0, 30.0)
        generous = _BATCH.walk_retry_table(condition, PageType.CSB, corners,
                                           table=_TABLE, capability=10_000)
        assert (generous.retry_steps == 0).all()


def _scalar_behaviour(condition, page_type, sample, pre_reduction,
                      table=_TABLE, capability=None):
    """The FlashBackend recipe, computed with the scalar model (the oracle)."""
    walk = _MODEL.walk_retry_table(condition, page_type, table=table,
                                   variation=sample, capability=capability)
    default = (walk.retry_steps if walk.retry_steps is not None
               else table.num_entries)
    if pre_reduction > 0.0 and default > 0:
        reduced_walk = _MODEL.walk_retry_table(
            condition, page_type, table=table, variation=sample,
            retry_timing_reduction=TimingReduction(pre=pre_reduction),
            capability=capability)
        if reduced_walk.retry_steps is None:
            return default, default, True
        return default, reduced_walk.retry_steps, False
    return default, default, False


def _lattice_entry(batch, index):
    return (int(batch.retry_steps[index]),
            int(batch.retry_steps_reduced[index]),
            bool(batch.reduced_timing_fallback[index]))


class TestReadBehaviourLattice:

    @pytest.mark.parametrize("pre_reduction", [0.0, 0.35, 0.6])
    def test_matches_flash_backend_recipe(self, corners, pre_reduction):
        rng = np.random.default_rng(4)
        for condition in _random_conditions(rng, 4):
            lattice = _BATCH.read_behaviour_lattice(
                condition, corners, pre_reduction, table=_TABLE)
            for page_type in PageType:
                batch = lattice[page_type]
                for index in range(len(corners)):
                    expected = _scalar_behaviour(
                        condition, page_type, corners.sample_at(index),
                        pre_reduction)
                    assert _lattice_entry(batch, index) == expected

    def test_reduced_walk_never_finishes_earlier(self, corners):
        condition = OperatingCondition(2000, 12.0, 30.0)
        lattice = _BATCH.read_behaviour_lattice(condition, corners, 0.6,
                                                table=_TABLE)
        for behaviour in lattice.values():
            assert (behaviour.retry_steps_reduced
                    >= behaviour.retry_steps).all()

    def test_fresh_lattice_evaluates_step_zero_only(self, monkeypatch):
        """Fresh data decodes at step 0, so the walk stops there.

        Each page type evaluates the two tails of its own sensed boundaries
        at step 0: 2 x 7 tails per corner in all, where a walk over the
        whole 40-step table would evaluate 41 times as many.
        """
        variation = RetryStepGrid(SsdConfig.tiny()).variation_arrays()
        fed = []
        erfc = batch_module._erfc

        def counting_erfc(values):
            fed.append(values.size)
            return erfc(values)

        monkeypatch.setattr(batch_module, "_erfc", counting_erfc)
        condition = OperatingCondition(1000, 0.0, 30.0)
        lattice = _BATCH.read_behaviour_lattice(condition, variation, 0.4,
                                                table=_TABLE)
        assert all((batch.retry_steps == 0).all()
                   for batch in lattice.values())
        assert sum(fed) <= 14 * len(variation)


_LATTICE_CORNERS = VariationArrays.from_samples(
    ProcessVariation(seed=11).block_sample(chip=chip, block=block)
    for chip in range(4) for block in range(12))


@st.composite
def _lattice_queries(draw):
    """A lattice query: a slab's shape or a subset of corners and page types."""
    condition = draw(st.builds(
        OperatingCondition,
        pe_cycles=st.integers(min_value=0, max_value=3000),
        retention_months=st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=13.0)),
        temperature_c=st.sampled_from([30.0, 55.0, 85.0])))
    # Subsets come as sorted distinct corners and page types in PageType
    # order.
    corner_indices = sorted(draw(st.sets(
        st.integers(min_value=0, max_value=len(_LATTICE_CORNERS) - 1),
        min_size=1, max_size=16)))
    wanted = draw(st.sets(st.sampled_from(list(PageType)), min_size=1))
    page_types = tuple(p for p in PageType if p in wanted)
    pre_reduction = 0.0
    if draw(st.booleans()):
        pre_reduction = draw(st.floats(min_value=0.05, max_value=0.7))
    table = draw(st.one_of(
        st.just(_TABLE),
        st.builds(ReadRetryTable,
                  num_entries=st.integers(min_value=1, max_value=6))))
    capability = draw(st.one_of(
        st.none(), st.integers(min_value=1, max_value=150)))
    return (condition, np.array(corner_indices), page_types, pre_reduction,
            table, capability)


class TestLatticeMatchesScalarRecipe:
    """The early-exit lattice and the retry grid's row walk against the
    scalar recipe on any walk shape.

    Short tables exhaust the default walk and force the reduced-timing
    fallback; capability overrides move every stop step; corner and page
    type subsets are what dispatch-time batches evaluate.  The row walk
    (:class:`RowWalk`) prices the grid's rows one at a time and must agree
    with both.
    """

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(query=_lattice_queries())
    # Aged data on a 4-step table: every walk exhausts, every reduced walk
    # falls back.
    @example(query=(OperatingCondition(2000, 12.0, 30.0), np.arange(16),
                    tuple(PageType), 0.6, ReadRetryTable(num_entries=4), None))
    def test_lattice_equals_scalar_recipe(self, query):
        (condition, corner_indices, page_types, pre_reduction, table,
         capability) = query
        variation = _LATTICE_CORNERS.take(corner_indices)
        lattice = _BATCH.read_behaviour_lattice(
            condition, variation, pre_reduction, page_types=page_types,
            table=table, capability=capability)
        walk = RowWalk(_MODEL, condition, pre_reduction, table=table,
                       capability=capability)
        assert tuple(lattice) == page_types
        for page_type, batch in lattice.items():
            assert len(batch) == len(variation)
            for index in range(len(variation)):
                sample = variation.sample_at(index)
                expected = _scalar_behaviour(
                    condition, page_type, sample, pre_reduction, table=table,
                    capability=capability)
                assert _lattice_entry(batch, index) == expected
                row = walk.row(PAGE_TYPE_ORDER.index(page_type), sample)
                assert row == expected


conditions = st.builds(
    OperatingCondition,
    pe_cycles=st.integers(min_value=0, max_value=3000),
    retention_months=st.floats(min_value=0.0, max_value=13.0,
                               allow_nan=False, allow_infinity=False),
    temperature_c=st.sampled_from([30.0, 55.0, 85.0]),
)

variation_samples = st.builds(
    VariationSample,
    shift_multiplier=st.floats(min_value=0.7, max_value=1.4),
    sigma_multiplier=st.floats(min_value=0.8, max_value=1.25),
    timing_multiplier=st.floats(min_value=0.7, max_value=1.4),
)

page_types = st.sampled_from(list(PageType))


def _steps(condition, page_type, sample):
    outcome = _BATCH.walk_retry_table(
        condition, page_type, VariationArrays.from_samples([sample]),
        table=_TABLE)
    step = int(outcome.retry_steps[0])
    # Order failures after every successful count, like the backend does
    # when it charges the full table for an unreadable page.
    return step if step >= 0 else _TABLE.num_entries + 1


class TestMonotonicityProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(condition=conditions, page_type=page_types,
           sample=variation_samples,
           extra_months=st.floats(min_value=0.1, max_value=12.0))
    def test_retry_steps_monotonic_in_retention(self, condition, page_type,
                                                sample, extra_months):
        older = condition.with_retention(condition.retention_months
                                         + extra_months)
        assert (_steps(condition, page_type, sample)
                <= _steps(older, page_type, sample))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(condition=conditions, page_type=page_types,
           sample=variation_samples,
           extra_pe=st.integers(min_value=1, max_value=2000))
    def test_retry_steps_monotonic_in_pe_cycles(self, condition, page_type,
                                                sample, extra_pe):
        worn = condition.with_pe_cycles(condition.pe_cycles + extra_pe)
        assert (_steps(condition, page_type, sample)
                <= _steps(worn, page_type, sample))


class TestNearOptimalStepErrorsProperty:
    """The batched M_ERR against its scalar twin, element for element.

    The optimal shift only picks the closest retry step, so an optimal
    shift one ulp off would change an M_ERR only at a tie between two
    steps; the property therefore also compares the optimal shifts, a row
    mean of a 2-D array in the batch and a 1-D ``np.mean`` in the scalar.
    """

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        condition=st.builds(
            OperatingCondition,
            pe_cycles=st.one_of(st.sampled_from(DEFAULT_PEC_BIN_EDGES),
                                st.integers(min_value=0, max_value=3000)),
            retention_months=st.one_of(
                st.sampled_from(DEFAULT_RETENTION_BIN_EDGES_MONTHS),
                st.floats(min_value=0.0, max_value=24.0)),
            temperature_c=st.floats(min_value=0.0, max_value=85.0)),
        page_type=page_types,
        samples=st.lists(variation_samples, min_size=1, max_size=40),
        reduction=st.one_of(st.none(), st.builds(
            TimingReduction,
            pre=st.floats(min_value=0.0, max_value=0.7),
            disch=st.sampled_from([0.0, 0.2]))),
    )
    @example(condition=OperatingCondition(1000, 6.0, 30.0),
             page_type=PageType.CSB, samples=[VariationSample.nominal()],
             reduction=TimingReduction(pre=0.47))
    def test_batched_equals_scalar(self, condition, page_type, samples,
                                   reduction):
        variation = VariationArrays.from_samples(samples)
        batch = _BATCH.near_optimal_step_errors(
            condition, page_type, variation, _TABLE,
            timing_reduction=reduction)
        optimal = _BATCH._optimal_shifts(
            *_BATCH._boundary_parameters(condition, variation))
        assert batch.shape == optimal.shape == (len(samples),)
        for index, sample in enumerate(samples):
            assert optimal[index] == _MODEL.vth_model.optimal_shift_mv(
                condition, sample)
            assert batch[index] == _MODEL.near_optimal_step_errors(
                condition, page_type, table=_TABLE, variation=sample,
                timing_reduction=reduction)
