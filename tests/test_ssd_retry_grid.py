"""The retry-step grid: rows on demand, lazy promotion, eviction, sharing."""

import dataclasses
import pickle
import weakref
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rpt import ReadTimingParameterTable
from repro.errors.batch import BatchErrorModel, VariationArrays
from repro.errors.calibration import ECC_CALIBRATION
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.variation import ProcessVariation
from repro.nand.geometry import PAGE_TYPE_ORDER, PageType
from repro.nand.voltage import ReadRetryTable
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.ftl import PageAddressing, PhysicalPage
from repro.ssd import retry_grid
from repro.ssd.request import HostRequest, RequestKind
from repro.ssd.retry_grid import (
    RetryStepGrid,
    RowWalk,
    clear_shared_grids,
    rpt_fingerprint,
    shared_grid,
)
from repro.ssd.slab_transport import prefill_device_slabs

#: 320 corners, so a condition gets its slab on its second query (``tiny()``
#: has 64 and keeps one from the first).
PROMOTING = SsdConfig.tiny(planes_per_die=2, blocks_per_plane=40)


@pytest.fixture()
def config() -> SsdConfig:
    return SsdConfig.tiny()


@pytest.fixture()
def grid(config, default_rpt) -> RetryStepGrid:
    return RetryStepGrid(config, rpt=default_rpt)


def behaviour(grid, page_type, pe_cycles, retention_months, chip, block):
    """:meth:`RetryStepGrid.behaviour_at` of a :class:`PageType` read of
    ``block`` of ``chip``."""
    return grid.behaviour_at(PAGE_TYPE_ORDER.index(page_type), pe_cycles,
                             retention_months, grid.corner_index(chip, block))


def corner_arrays(grid):
    """Every corner's variation sample of ``grid``'s device, in corner order."""
    variation = ProcessVariation(seed=grid.config.seed)
    return VariationArrays.from_samples(
        variation.block_sample(chip=chip, block=block)
        for chip in range(grid.chips) for block in range(grid.blocks_per_chip))


def lattice(grid, condition, rpt):
    """The vectorized lattice of ``grid``'s device at ``condition``, by page type."""
    pe_cycles, retention_months = condition
    return BatchErrorModel(grid.error_model).read_behaviour_lattice(
        OperatingCondition(pe_cycles, retention_months, grid.config.temperature_c),
        corner_arrays(grid),
        rpt.entry_for(pe_cycles, retention_months).pre_reduction,
        table=grid.retry_table)


def lattice_row(batch, corner):
    return (batch.retry_steps[corner], batch.retry_steps_reduced[corner],
            batch.reduced_timing_fallback[corner])


def row_of(read):
    return (read.retry_steps, read.retry_steps_reduced,
            read.reduced_timing_fallback)


class TestGridGeometry:
    def test_one_corner_per_physical_block(self, grid, config):
        assert grid.corner_count == (config.channels * config.dies_per_channel
                                     * config.planes_per_die
                                     * config.blocks_per_plane)

    def test_corner_variation_matches_the_scalar_sample(self, grid, config,
                                                        monkeypatch):
        # The (channel, die) pair is the chip and the (plane, block) pair the
        # block within it, so blocks of one die share a chip-level corner.
        physical = PhysicalPage(channel=1, die=0, plane=0, block=5, page=0)
        corner = PageAddressing(config).pack(physical) // config.pages_per_block
        chip = physical.channel * config.dies_per_channel + physical.die
        block = physical.plane * config.blocks_per_plane + physical.block
        assert corner == grid.corner_index(chip, block)
        drawn = []
        block_sample = grid._variation.block_sample

        def recording(**where):
            drawn.append(block_sample(**where))
            return drawn[-1]

        monkeypatch.setattr(grid._variation, "block_sample", recording)
        grid.behaviour_at(0, 2000, 12.0, corner)
        assert drawn == [ProcessVariation(seed=config.seed).block_sample(
            chip=chip, block=block)]


class TestRowsMatchTheLattice:
    """Every row the read path computes equals the vectorized lattice's."""

    @pytest.mark.parametrize("config", [SsdConfig.tiny(), SsdConfig.scaled()],
                             ids=["tiny", "scaled"])
    @pytest.mark.parametrize("condition", [(1000, 6.0), (2000, 12.0),
                                           (1000, 0.0), (3000, 24.0)])
    def test_every_row(self, config, condition, default_rpt):
        grid = RetryStepGrid(config, rpt=default_rpt)
        grid.prefill([condition])
        expected = lattice(grid, condition, default_rpt)
        for page_type, kind in enumerate(PAGE_TYPE_ORDER):
            batch = expected[kind]
            for corner in range(grid.corner_count):
                read, from_grid = grid.behaviour_at(page_type, *condition, corner)
                assert from_grid
                assert row_of(read) == lattice_row(batch, corner)
        assert grid.cache_size == len(PAGE_TYPE_ORDER) * grid.corner_count


class TestRowWalk:
    """A walk on its own, with the options the grid never passes: a short
    retry table, an ECC capability override, and no RPT reduction."""

    CONDITIONS = ((0, 0.0), (1000, 6.0), (3000, 24.0))

    @staticmethod
    def _walk(grid, condition, pre_reduction, table=None, capability=None):
        return RowWalk(grid.error_model,
                       OperatingCondition(*condition, grid.config.temperature_c),
                       pre_reduction, table, capability=capability)

    @staticmethod
    def _rows(grid, walk):
        arrays = corner_arrays(grid)
        return [walk.row(page_type, arrays.sample_at(corner))
                for page_type in range(len(PAGE_TYPE_ORDER))
                for corner in range(grid.corner_count)]

    @pytest.mark.parametrize("capability, entries", [(None, 4), (20, 40), (0, 40)],
                             ids=["short-table", "weak-ecc", "no-ecc"])
    def test_rows_match_the_lattice(self, grid, default_rpt, capability, entries):
        table = ReadRetryTable(num_entries=entries)
        arrays = corner_arrays(grid)
        for condition in self.CONDITIONS:
            pre_reduction = default_rpt.entry_for(*condition).pre_reduction
            walk = self._walk(grid, condition, pre_reduction, table, capability)
            expected = BatchErrorModel(grid.error_model).read_behaviour_lattice(
                OperatingCondition(*condition, grid.config.temperature_c),
                arrays, pre_reduction, table=table, capability=capability)
            for page_type, kind in enumerate(PAGE_TYPE_ORDER):
                for corner in range(grid.corner_count):
                    assert walk.row(page_type, arrays.sample_at(corner)) == (
                        lattice_row(expected[kind], corner))

    def test_a_walk_without_a_reduction_never_falls_back(self, grid):
        for condition in self.CONDITIONS[1:]:
            rows = self._rows(grid, self._walk(grid, condition, 0.0))
            assert all(steps == reduced and not fallback
                       for steps, reduced, fallback in rows)
            assert min(steps for steps, _, _ in rows) > 0

    def test_a_walk_that_never_decodes_charges_the_whole_table(self, grid):
        # With no correction capability no column decodes: the default walk
        # charges every entry, and a reduced walk falls back to it.
        table = ReadRetryTable(num_entries=6)
        for pre_reduction, fallback in ((0.0, False), (0.4, True)):
            walk = self._walk(grid, (1000, 6.0), pre_reduction, table, capability=0)
            assert set(self._rows(grid, walk)) == {(6, 6, fallback)}

    def test_a_generous_capability_decodes_every_row_at_step_zero(self, grid):
        for condition in self.CONDITIONS:
            walk = self._walk(grid, condition, 0.4, capability=10_000)
            assert set(self._rows(grid, walk)) == {(0, 0, False)}

    def test_the_capability_defaults_to_the_models_calibration(self, grid):
        weak = CodewordErrorModel(
            ecc_calibration=dataclasses.replace(ECC_CALIBRATION, capability_bits=40))
        for condition in self.CONDITIONS[1:]:
            explicit = self._rows(grid, self._walk(grid, condition, 0.4, capability=40))
            calibrated = RowWalk(weak, OperatingCondition(*condition, grid.config.temperature_c),
                                 0.4)
            assert self._rows(grid, calibrated) == explicit
            assert explicit != self._rows(grid, self._walk(grid, condition, 0.4))

    def test_a_weaker_capability_never_needs_fewer_steps(self, grid):
        for condition in self.CONDITIONS:
            strong = self._rows(grid, self._walk(grid, condition, 0.4))
            weak = self._rows(grid, self._walk(grid, condition, 0.4, capability=40))
            for (steps, reduced, _), (weak_steps, weak_reduced, _) in zip(strong, weak):
                assert weak_steps >= steps
                assert weak_reduced >= reduced


class TestRowsOnDemand:
    def test_one_read_fills_one_row(self, grid):
        read, from_grid = behaviour(grid, PageType.CSB, 1000, 6.0, 0, 3)
        assert from_grid and read.retry_steps > 0
        assert (grid.cached_conditions, grid.cache_size) == (1, 1)
        behaviour(grid, PageType.CSB, 1000, 6.0, 0, 3)
        assert grid.cache_size == 1
        behaviour(grid, PageType.MSB, 1000, 6.0, 0, 3)
        assert grid.cache_size == 2

    def test_a_read_before_promotion_is_a_fallback_that_caches_nothing(
            self, default_rpt):
        for condition in ((1000, 6.0), (2000, 12.0), (3000, 24.0)):
            expected = lattice(RetryStepGrid(PROMOTING, rpt=default_rpt),
                               condition, default_rpt)
            for page_type, kind in enumerate(PAGE_TYPE_ORDER):
                for corner in (0, 9, 317):
                    grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
                    read, from_grid = grid.behaviour_at(page_type, *condition,
                                                        corner)
                    assert not from_grid
                    assert (grid.cached_conditions, grid.cache_size) == (0, 0)
                    assert row_of(read) == lattice_row(expected[kind], corner)

    def test_equal_rows_share_one_behaviour_object(self, default_rpt):
        # Every row of a fresh condition decodes at step 0: the read before
        # promotion and the slab hit after it return the same object.
        grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
        fallback, from_grid = grid.behaviour_at(0, 0, 0.0, 5)
        assert not from_grid
        hit, from_grid = grid.behaviour_at(2, 0, 0.0, 301)
        assert from_grid and hit is fallback
        grid.prefill([(2000, 12.0)])
        reads = [grid.behaviour_at(page_type, 2000, 12.0, corner)[0]
                 for page_type in range(len(PAGE_TYPE_ORDER))
                 for corner in range(grid.corner_count)]
        assert len({id(read) for read in reads}) == len(set(reads)) < len(reads)

    def test_cache_size_counts_the_filled_rows_of_every_slab(self, grid):
        behaviour(grid, PageType.CSB, 1000, 6.0, 0, 3)
        behaviour(grid, PageType.LSB, 1000, 6.0, 1, 3)
        behaviour(grid, PageType.CSB, 2000, 12.0, 0, 3)
        assert (grid.cached_conditions, grid.cache_size) == (2, 3)
        behaviour(grid, PageType.LSB, 1000, 6.0, 1, 3)
        assert grid.cache_size == 3

    def test_the_read_path_never_builds_a_whole_device_pass(
            self, config, default_rpt, monkeypatch):
        def whole_device(*args, **kwargs):
            raise AssertionError("a whole-device pass on the read path")

        monkeypatch.setattr(BatchErrorModel, "read_behaviour_lattice",
                            whole_device)
        monkeypatch.setattr(VariationArrays, "from_samples", whole_device)
        clear_shared_grids()
        try:
            simulator = SsdSimulator(config, policy="PnAR2", rpt=default_rpt)
            simulator.precondition(pe_cycles=1000, retention_months=6.0)
            requests = [HostRequest(i * 50.0, RequestKind.READ, i * 5)
                        for i in range(40)]
            assert simulator.run(requests).metrics.pages_read == 40
            grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
            for query in range(4):
                behaviour(grid, PageType.MSB, 2000, 12.0, 0, query)
            assert grid.cached_conditions == 1
        finally:
            clear_shared_grids()

    def test_prefill_keeps_a_slab_that_fills_on_demand(self, grid):
        grid.prefill([(1000, 6.0)])
        assert (grid.cached_conditions, grid.slab_builds, grid.cache_size) == (1, 1, 0)
        read, from_grid = behaviour(grid, PageType.CSB, 1000, 6.0, 0, 3)
        assert from_grid
        assert read.retry_steps > 0
        assert grid.cache_size == 1


class TestSlabLifecycle:

    def test_grid_matches_scalar_fallback(self, default_rpt):
        """The slab and the scalar path must agree behaviour-for-behaviour."""
        eager = RetryStepGrid(PROMOTING, rpt=default_rpt)
        eager.prefill([(2000, 12.0)])
        for page_type in PageType:
            for chip in range(eager.chips):
                for block in (0, 7, 79):
                    # A fresh grid's first query comes before promotion.
                    lazy = RetryStepGrid(PROMOTING, rpt=default_rpt)
                    fast, from_grid = behaviour(eager, page_type, 2000, 12.0,
                                                chip, block)
                    slow, from_slab = behaviour(lazy, page_type, 2000, 12.0,
                                                chip, block)
                    assert from_grid and not from_slab
                    assert fast == slow

    def test_promotion_after_threshold(self, default_rpt):
        grid = RetryStepGrid(SsdConfig.scaled(), rpt=default_rpt)
        assert grid.promote_threshold == grid.corner_count // 160 == 8
        for query in range(grid.promote_threshold - 1):
            _, from_grid = behaviour(grid, PageType.LSB, 500, 3.0, 0, query)
            assert not from_grid
        assert grid.cached_conditions == 0
        _, from_grid = behaviour(grid, PageType.LSB, 500, 3.0, 0, 2)
        assert from_grid
        assert grid.cached_conditions == 1

    def test_slab_eviction_is_bounded(self, config, default_rpt, monkeypatch):
        monkeypatch.setattr(retry_grid, "MAX_CONDITIONS", 2)
        grid = RetryStepGrid(config, rpt=default_rpt)
        for pe_cycles in (100, 200, 300, 400):
            behaviour(grid, PageType.CSB, pe_cycles, 0.0, 0, 0)
        assert grid.cached_conditions == 2

    def test_the_condition_bound_holds_for_walks_too(self, default_rpt,
                                                     monkeypatch):
        # Every walk the grid builds is counted while it lives: a slab's
        # walk goes with its slab, and a read before promotion keeps none.
        live = weakref.WeakSet()

        class CountedWalk(RowWalk):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                live.add(self)

        monkeypatch.setattr(retry_grid, "RowWalk", CountedWalk)
        monkeypatch.setattr(retry_grid, "MAX_CONDITIONS", 2)
        grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
        for pe_cycles in (100, 200, 300, 400):
            for query in range(grid.promote_threshold):
                behaviour(grid, PageType.CSB, pe_cycles, 6.0, 0, query)
                assert grid.cached_conditions <= 2
                assert len(live) <= 2
        assert sorted(map(id, live)) == sorted(
            id(slab.walk) for slab in grid._slabs.values())
        assert len(live) == 2

    def test_promotion_clears_the_pending_count(self, default_rpt):
        grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
        behaviour(grid, PageType.LSB, 1000, 6.0, 0, 1)
        assert grid._pending_queries == {(1000, 6.0): 1}
        _, from_grid = behaviour(grid, PageType.LSB, 1000, 6.0, 0, 2)
        assert from_grid
        assert grid._pending_queries == {}
        assert list(grid._slabs) == [(1000, 6.0)]

    def test_prefill_drops_a_pending_count(self, default_rpt):
        grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
        behaviour(grid, PageType.LSB, 1000, 6.0, 0, 1)
        grid.prefill([(1000, 6)])
        assert grid._pending_queries == {}
        assert (list(grid._slabs), grid.slab_builds) == ([(1000, 6.0)], 1)
        _, from_grid = behaviour(grid, PageType.LSB, 1000, 6.0, 0, 1)
        assert from_grid

    def test_an_evicted_condition_counts_its_queries_afresh(self, default_rpt,
                                                           monkeypatch):
        monkeypatch.setattr(retry_grid, "MAX_CONDITIONS", 1)
        grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
        for pe_cycles in (1000, 2000):
            for block in (0, 1):
                behaviour(grid, PageType.CSB, pe_cycles, 6.0, 0, block)
        assert list(grid._slabs) == [(2000, 6.0)]
        _, from_grid = behaviour(grid, PageType.CSB, 1000, 6.0, 0, 0)
        assert not from_grid
        assert grid._pending_queries == {(1000, 6.0): 1}
        _, from_grid = behaviour(grid, PageType.CSB, 1000, 6.0, 0, 0)
        assert from_grid
        assert (list(grid._slabs), grid.slab_builds) == ([(1000, 6.0)], 3)

    def test_an_evicted_slab_takes_its_rows_with_it(self, config, default_rpt,
                                                   monkeypatch):
        monkeypatch.setattr(retry_grid, "MAX_CONDITIONS", 1)
        grid = RetryStepGrid(config, rpt=default_rpt)
        first = [behaviour(grid, PageType.MSB, 1000, 6.0, 0, block)[0]
                 for block in range(4)]
        assert grid.cache_size == 4
        behaviour(grid, PageType.MSB, 2000, 12.0, 0, 0)
        assert grid.cache_size == 1
        again = [behaviour(grid, PageType.MSB, 1000, 6.0, 0, block)[0]
                 for block in range(4)]
        assert all(read is before for read, before in zip(again, first))
        assert (grid.cache_size, grid.slab_builds) == (4, 3)

    @pytest.mark.parametrize("option", ["promote_threshold", "max_conditions",
                                        "max_scalar_entries"])
    def test_the_constructor_takes_no_cache_option(self, config, option):
        with pytest.raises(TypeError):
            RetryStepGrid(config, **{option: 1})


class TestSlabRecency:
    """Slab order is an LRU over the queries, prefills, promotions and
    evictions, and a query is a grid hit exactly when its condition has a
    slab once it is served."""

    CONDITIONS = [(100, 0.0), (500, 1.0), (1000, 6.0), (1500, 0.0),
                  (2000, 12.0)]
    PROMOTE = 2
    MAX_CONDITIONS = 3
    #: A drawn page type of 3 prefills the condition instead of reading it.
    PREFILL = 3

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                              st.integers(min_value=0, max_value=3),
                              st.integers(min_value=0, max_value=63)),
                    min_size=1, max_size=24))
    @settings(max_examples=100, deadline=None)
    def test_slab_order_follows_an_lru_model(self, default_rpt, queries):
        with mock.patch.object(retry_grid, "MAX_CONDITIONS",
                               self.MAX_CONDITIONS):
            self._check(default_rpt, queries)

    def _check(self, default_rpt, queries):
        grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
        assert grid.promote_threshold == self.PROMOTE
        model = OrderedDict()
        pending = {}
        builds = 0

        def build(key):
            # A new slab goes to the recent end, evicting the least recent
            # one when the grid is full.
            nonlocal builds
            pending.pop(key, None)
            if len(model) == self.MAX_CONDITIONS:
                model.popitem(last=False)
            model[key] = True
            builds += 1

        for condition, page_type, corner in queries:
            key = self.CONDITIONS[condition]
            # The model: a prefill builds a slab for an uncached condition
            # and moves nothing; a hit moves its condition to the recent
            # end, and the PROMOTE-th query of an uncached one builds its
            # slab.
            if page_type == self.PREFILL:
                grid.prefill([key])
                if key not in model:
                    build(key)
            else:
                _, from_grid = grid.behaviour_at(page_type, *key, corner)
                seen = pending.get(key, 0) + 1
                if key in model:
                    model.move_to_end(key)
                elif seen >= self.PROMOTE:
                    build(key)
                else:
                    pending[key] = seen
                assert from_grid == (key in model)
            # Checked after every step, so recency and evictions both match.
            assert list(grid._slabs) == list(model)
            assert grid._pending_queries == pending
        assert grid.slab_builds == builds


class TestLastReadSlab:
    """A read of the condition ``behaviour_at`` served last takes that slab
    without a lookup; every slab build, by promotion, prefill or with an
    eviction, forgets it, so recency and the hit/fallback split hold."""

    A = (1000, 6.0)
    B = (2000, 12.0)

    @staticmethod
    def _split(grid, conditions, rounds):
        """Read ``conditions`` in turn, ``rounds`` times; each condition's
        grid-hit flags in order."""
        flags = {condition: [] for condition in conditions}
        for query in range(rounds):
            for condition in conditions:
                _, from_grid = grid.behaviour_at(query % 3, *condition, query)
                flags[condition].append(from_grid)
        return [flags[condition] for condition in conditions]

    @pytest.mark.parametrize("build", ["promotion", "prefill"])
    def test_reading_the_last_condition_again_after_a_build_moves_it(
            self, build, default_rpt, monkeypatch):
        grid = RetryStepGrid(PROMOTING, rpt=default_rpt)
        grid.prefill([self.A])
        assert grid.behaviour_at(0, *self.A, 0)[1]
        if build == "promotion":
            for corner in range(grid.promote_threshold):
                grid.behaviour_at(1, *self.B, corner)
        else:
            grid.prefill([self.B])
        assert list(grid._slabs) == [self.A, self.B]
        assert grid.behaviour_at(2, *self.A, 1)[1]
        assert list(grid._slabs) == [self.B, self.A]
        # So the next build evicts B, the least recently read.
        monkeypatch.setattr(retry_grid, "MAX_CONDITIONS", 2)
        grid.prefill([(3000, 0.0)])
        assert list(grid._slabs) == [self.A, (3000, 0.0)]
        assert grid.slab_builds == 3

    def test_alternating_conditions_split_exactly(self, default_rpt):
        grid = RetryStepGrid(SsdConfig.scaled(), rpt=default_rpt)
        assert grid.promote_threshold == 8
        expected = [False] * 7 + [True] * 13
        assert self._split(grid, (self.A, self.B), 20) == [expected, expected]
        assert (list(grid._slabs), grid.slab_builds) == ([self.A, self.B], 2)

    def test_a_slab_evicted_after_its_read_is_not_served(self, default_rpt,
                                                         monkeypatch):
        # A's slab is the last served when B's prefill evicts it: A's next
        # read is the first query of a condition without a slab.
        monkeypatch.setattr(retry_grid, "MAX_CONDITIONS", 1)
        grid = RetryStepGrid(SsdConfig.scaled(), rpt=default_rpt)
        grid.prefill([self.A])
        assert grid.behaviour_at(0, *self.A, 0)[1]
        grid.prefill([self.B])
        # A is promoted on its 8th query, evicting B, whose next query is
        # its first again.
        assert self._split(grid, (self.A, self.B), 10) == [
            [False] * 7 + [True] * 3, [True] * 7 + [False] * 3]
        assert (list(grid._slabs), grid.slab_builds) == ([self.A], 3)
        assert grid._pending_queries == {self.B: 3}


class TestSharedGrids:
    def test_same_config_and_rpt_share_a_grid(self, config, default_rpt):
        clear_shared_grids()
        try:
            first = shared_grid(config, default_rpt)
            second = shared_grid(SsdConfig.tiny(), default_rpt)
            assert first is second
        finally:
            clear_shared_grids()

    def test_fingerprint_is_value_based(self, default_rpt):
        rebuilt = pickle.loads(pickle.dumps(default_rpt))
        assert rebuilt is not default_rpt
        assert rpt_fingerprint(rebuilt) == rpt_fingerprint(default_rpt)
        assert (rpt_fingerprint(ReadTimingParameterTable.conservative())
                != rpt_fingerprint(default_rpt))

    def test_a_private_grid_leaves_the_shared_grid_alone(self, config,
                                                         default_rpt):
        # A grid over a custom retry table is built directly and handed to
        # a simulator: its prefill and reads never reach the shared grid of
        # the same configuration and RPT.
        clear_shared_grids()
        try:
            simulator = SsdSimulator(config, policy="Baseline",
                                     rpt=default_rpt)
            shared = simulator.grid
            assert shared is shared_grid(config, default_rpt)
            private = RetryStepGrid(config, rpt=default_rpt,
                                    retry_table=ReadRetryTable(num_entries=4))
            simulator.grid = private
            simulator.precondition(pe_cycles=2000, retention_months=12.0)
            result = simulator.run([HostRequest(i * 200.0, RequestKind.READ, i)
                                    for i in range(10)])
            assert result.metrics.pages_read == 10
            assert private.cached_conditions == 1
            assert (shared.slab_builds, shared.cached_conditions) == (0, 0)
            assert shared_grid(config, default_rpt) is shared
            assert shared.retry_table == ReadRetryTable()
        finally:
            clear_shared_grids()

    def test_temperature_seed_and_rpt_each_key_a_grid(self, config,
                                                     default_rpt):
        clear_shared_grids()
        try:
            grids = [shared_grid(config, default_rpt),
                     shared_grid(SsdConfig.tiny(temperature_c=55.0), default_rpt),
                     shared_grid(SsdConfig.tiny(seed=config.seed + 1), default_rpt),
                     shared_grid(config, ReadTimingParameterTable.conservative())]
            assert len({id(grid) for grid in grids}) == len(grids)
        finally:
            clear_shared_grids()

    def test_shared_grids_are_bounded_and_recency_ordered(self, default_rpt):
        clear_shared_grids()
        try:
            configs = [SsdConfig.tiny(seed=seed)
                       for seed in range(retry_grid._MAX_SHARED_GRIDS + 1)]
            grids = [shared_grid(config, default_rpt) for config in configs[:-1]]
            assert shared_grid(configs[0], default_rpt) is grids[0]
            shared_grid(configs[-1], default_rpt)
            # The touched first grid survives; the least recent one went.
            assert shared_grid(configs[0], default_rpt) is grids[0]
            assert shared_grid(configs[1], default_rpt) is not grids[1]
        finally:
            clear_shared_grids()

    def test_grids_over_the_same_silicon_draw_the_same_corners(self, config, default_rpt):
        # The seed alone fixes the silicon: neither the RPT nor the
        # temperature changes the variation sample a grid reads a block with.
        def corners(grid):
            return [grid._variation.block_sample(chip=chip, block=block)
                    for chip in range(grid.chips) for block in range(grid.blocks_per_chip)]

        reference = corners(RetryStepGrid(config, rpt=default_rpt))
        for same_silicon in (
                RetryStepGrid(config, rpt=ReadTimingParameterTable.conservative()),
                RetryStepGrid(SsdConfig.tiny(temperature_c=55.0), rpt=default_rpt)):
            assert corners(same_silicon) == reference
        other = corners(RetryStepGrid(SsdConfig.tiny(seed=config.seed + 1), rpt=default_rpt))
        assert other[0] != reference[0]

    def test_a_grid_without_an_rpt_reads_the_default_table(self, config):
        grid = RetryStepGrid(config)
        assert (rpt_fingerprint(grid.rpt)
                == rpt_fingerprint(ReadTimingParameterTable.default()))
        _, from_grid = behaviour(grid, PageType.CSB, 1000, 6.0, 0, 3)
        assert from_grid


class TestDeviceSlabPrefill:
    """prefill_device_slabs keeps a device's two slabs in the shared grid."""

    @pytest.fixture(autouse=True)
    def _no_shared_grids(self):
        clear_shared_grids()
        yield
        clear_shared_grids()

    def test_builds_the_cold_and_rewritten_slabs(self, config, default_rpt):
        prefill_device_slabs(config, default_rpt, 1000, 6.0)
        grid = shared_grid(config, default_rpt)
        assert list(grid._slabs) == [(1000, 6.0), (1000, 0.0)]
        assert grid.slab_builds == 2
        for retention_months in (6.0, 0.0):
            _, from_grid = behaviour(grid, PageType.MSB, 1000, retention_months, 1, 4)
            assert from_grid

    def test_a_second_call_builds_nothing(self, config, default_rpt):
        prefill_device_slabs(config, default_rpt, 1000, 6.0)
        grid = shared_grid(config, default_rpt)
        slabs = dict(grid._slabs)
        prefill_device_slabs(config, default_rpt, 1000, 6.0)
        assert grid.slab_builds == 2
        assert all(grid._slabs[key] is slab for key, slab in slabs.items())

    def test_fresh_data_reads_one_slab(self, config, default_rpt):
        prefill_device_slabs(config, default_rpt, 2000, 0)
        grid = shared_grid(config, default_rpt)
        assert list(grid._slabs) == [(2000, 0.0)]
        assert grid.slab_builds == 1

    def test_rebuilds_the_slabs_the_lru_evicted(self, config, default_rpt,
                                                 monkeypatch):
        monkeypatch.setattr(retry_grid, "MAX_CONDITIONS", 2)
        grid = shared_grid(config, default_rpt)
        prefill_device_slabs(config, default_rpt, 1000, 6.0)
        prefill_device_slabs(config, default_rpt, 2000, 12.0)
        assert list(grid._slabs) == [(2000, 12.0), (2000, 0.0)]
        prefill_device_slabs(config, default_rpt, 1000, 6.0)
        assert list(grid._slabs) == [(1000, 6.0), (1000, 0.0)]
        assert grid.slab_builds == 6

    def test_an_unpickled_rpt_fills_the_same_grid(self, config, default_rpt):
        # Worker payloads carry an unpickled copy of the runner's RPT.
        prefill_device_slabs(config, pickle.loads(pickle.dumps(default_rpt)), 1000, 6.0)
        assert shared_grid(config, default_rpt).cached_conditions == 2

    def test_prefill_computes_no_row(self, config, default_rpt):
        prefill_device_slabs(config, default_rpt, 1000, 6.0)
        grid = shared_grid(config, default_rpt)
        assert grid.cache_size == 0
        behaviour(grid, PageType.CSB, 1000, 6.0, 0, 3)
        prefill_device_slabs(config, default_rpt, 1000, 6.0)
        assert set(grid._slabs) == {(1000, 6.0), (1000, 0.0)}
        assert (grid.slab_builds, grid.cache_size) == (2, 1)


class TestSimulatorIntegration:
    def test_metrics_expose_grid_counters(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="PnAR2", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        requests = [HostRequest(i * 50.0, RequestKind.READ, i * 7)
                    for i in range(30)]
        result = simulator.run(requests)
        metrics = result.metrics
        assert metrics.grid_hits > 0
        assert metrics.grid_hits + metrics.scalar_fallbacks >= 30
        summary = metrics.summary()
        assert summary["grid_hits"] == metrics.grid_hits
        assert summary["scalar_fallbacks"] == metrics.scalar_fallbacks

    def test_preconditioned_reads_hit_the_grid(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(pe_cycles=2000, retention_months=12.0)
        requests = [HostRequest(i * 50.0, RequestKind.READ, i * 3)
                    for i in range(20)]
        result = simulator.run(requests)
        # The cold-data slab was prefilled, so no read needed a scalar walk.
        assert result.metrics.scalar_fallbacks == 0
        assert result.metrics.grid_hits >= 20
