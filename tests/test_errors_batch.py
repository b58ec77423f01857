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


class TestVariationArrays:
    """The corner arrays the lattice and the near-optimal pass read."""

    def test_from_samples_round_trips_through_sample_at(self):
        variation = ProcessVariation(seed=3)
        samples = [variation.block_sample(chip=chip, block=block)
                   for chip in range(3) for block in range(5)]
        arrays = VariationArrays.from_samples(iter(samples))
        assert len(arrays) == len(samples)
        assert [arrays.sample_at(index) for index in range(len(arrays))] == samples

    def test_take_keeps_the_chosen_corners_in_order(self, corners):
        indices = np.array([7, 0, 119, 7])
        taken = corners.take(indices)
        assert len(taken) == len(indices)
        assert [taken.sample_at(index) for index in range(len(taken))] == [
            corners.sample_at(int(index)) for index in indices]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            VariationArrays(shift=np.ones(3), sigma=np.ones(3), timing=np.ones(2))


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
        grid = RetryStepGrid(SsdConfig.tiny())
        samples = ProcessVariation(seed=grid.config.seed)
        variation = VariationArrays.from_samples(
            samples.block_sample(chip=chip, block=block)
            for chip in range(grid.chips)
            for block in range(grid.blocks_per_chip))
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
    step = _MODEL.walk_retry_table(condition, page_type, table=_TABLE,
                                   variation=sample).retry_steps
    # Order failures after every successful count, like the backend does
    # when it charges the full table for an unreadable page.
    return step if step is not None else _TABLE.num_entries + 1


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
