"""Tests for garbage collection, the write buffer and the retry grid's reads."""

import random

import pytest

from repro.core.rpt import ReadTimingParameterTable
from repro.nand.geometry import PAGE_TYPE_ORDER, PageType
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import FlashTranslationLayer, PageAddressing, PhysicalPage
from repro.ssd.retry_grid import RetryStepGrid
from repro.ssd.write_buffer import WriteBuffer


def assert_trigger_set(ftl):
    """The FTL's set of planes below the GC trigger, recounted."""
    assert ftl.planes_below_trigger == {
        index for index, plane in enumerate(ftl.planes) if plane.needs_gc()}


class TestBlockGarbageCollection:
    @pytest.fixture()
    def ftl(self):
        return FlashTranslationLayer(SsdConfig.tiny())

    def test_collects_and_relocates_valid_pages(self, ftl):
        pages_per_block = ftl.config.pages_per_block
        for lpn in range(pages_per_block):
            ftl._write(lpn, 6.0, plane_index=0)
        # Invalidate half the block by rewriting elsewhere.
        for lpn in range(0, pages_per_block, 2):
            ftl._write(lpn, plane_index=1)
        plane = ftl.planes[0]
        operation = ftl.collect_block(0, ftl.gc_victim(0))
        assert_trigger_set(ftl)
        assert operation.relocated_pages == pages_per_block // 2
        assert operation.translation_ops == []
        # Relocated cold pages keep their retention age.
        for destination in operation.destinations:
            assert ftl.read_condition_packed(destination)[1] == 6.0
        # The victim block is free again.
        assert ftl.valid_count[plane.first + operation.victim_block] == 0

    def test_plane_without_candidates_has_no_victim(self, ftl):
        assert ftl.gc_victim(0) is None

    def test_collect_if_needed_only_when_below_threshold(self, ftl):
        assert ftl.collect_if_needed() == []
        assert ftl.gc_invocations == 0
        assert_trigger_set(ftl)

    def test_each_plane_below_threshold_counts_one_invocation(self, ftl):
        # Fill plane 0 until its free pool drops below the trigger, and
        # rewrite its first block's data elsewhere: a fully invalid victim.
        plane = ftl.planes[0]
        lpn = 0
        while not plane.needs_gc():
            ftl._write(lpn, plane_index=0)
            lpn += 1
        for rewrite in range(ftl.config.pages_per_block):
            ftl._write(rewrite, plane_index=1)
        assert ftl.planes_below_trigger == {0}
        assert_trigger_set(ftl)
        operations = ftl.collect_if_needed()
        assert ftl.gc_invocations == 1
        assert [operation.plane_index for operation in operations] == [0]
        assert operations[0].relocated_pages == 0
        # The erase gave the plane back the block that lifts it over the
        # trigger.
        assert ftl.planes_below_trigger == set()
        assert_trigger_set(ftl)

    def test_trigger_set_follows_a_write_storm(self, ftl):
        rng = random.Random(3)
        for _ in range(3000):
            ftl.program(rng.randrange(ftl.config.logical_pages * 3 // 4))
            ftl.collect_if_needed()
            assert_trigger_set(ftl)
        assert ftl.gc_invocations > 0


class TestWriteBuffer:
    def test_admission_and_release(self):
        buffer = WriteBuffer(capacity_pages=4)
        assert buffer.try_admit(3)
        assert buffer.used_pages == 3
        assert not buffer.try_admit(2)
        buffer.release(2)
        assert buffer.try_admit(2)
        assert buffer.used_pages == 3
        assert buffer.free_pages == 1
        assert buffer.try_admit(1)
        assert buffer.is_full is True

    def test_release_validation(self):
        buffer = WriteBuffer(capacity_pages=2)
        buffer.try_admit(1)
        with pytest.raises(ValueError):
            buffer.release(2)
        with pytest.raises(ValueError):
            buffer.release(0)

    def test_waiter_queue_is_fifo(self):
        buffer = WriteBuffer(capacity_pages=1)
        buffer.enqueue_waiter("first")
        buffer.enqueue_waiter("second")
        assert buffer.waiting_count == 2
        assert buffer.pop_waiter() == "first"
        buffer.requeue_waiter_front("first")
        assert buffer.pop_waiter() == "first"
        assert buffer.pop_waiter() == "second"
        assert buffer.pop_waiter() is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity_pages=0)
        with pytest.raises(ValueError):
            WriteBuffer(4).try_admit(0)

    def test_total_admitted_counter(self):
        buffer = WriteBuffer(capacity_pages=8)
        buffer.try_admit(3)
        buffer.try_admit(2)
        assert buffer.total_admitted == 5


class TestRetryGridReads:
    """What the grid answers for one page read: its page type and corner
    come from the page's packed index, as on the simulator's read path."""

    @pytest.fixture(scope="class")
    def grid(self, default_rpt):
        return RetryStepGrid(SsdConfig.tiny(), rpt=default_rpt)

    @staticmethod
    def read(grid, physical, page_type, pe_cycles, retention_months):
        pages_per_block = grid.config.pages_per_block
        packed = PageAddressing(grid.config).pack(physical)
        behaviour, _ = grid.behaviour_at(PAGE_TYPE_ORDER.index(page_type),
                                         pe_cycles, retention_months,
                                         packed // pages_per_block)
        return behaviour

    @pytest.fixture(scope="class")
    def physical(self):
        return PhysicalPage(channel=0, die=1, plane=0, block=3, page=7)

    def test_fresh_read_needs_no_retry(self, grid, physical):
        behaviour = self.read(grid, physical, PageType.CSB,
                              pe_cycles=0, retention_months=0.0)
        assert behaviour.retry_steps == 0
        assert behaviour.retry_steps_reduced == 0
        assert not behaviour.reduced_timing_fallback

    def test_aged_read_needs_many_steps(self, grid, physical):
        behaviour = self.read(grid, physical, PageType.CSB,
                              pe_cycles=2000, retention_months=12.0)
        assert behaviour.retry_steps >= 15
        # AR2's reduced timing never loses more than a couple of extra steps.
        assert behaviour.retry_steps_reduced >= behaviour.retry_steps
        assert behaviour.retry_steps_reduced <= behaviour.retry_steps + 3

    def test_results_are_cached(self, grid, physical):
        first = self.read(grid, physical, PageType.LSB, 1000, 6.0)
        size_after_first = grid.cache_size
        second = self.read(grid, physical, PageType.LSB, 1000, 6.0)
        assert first == second
        assert grid.cache_size == size_after_first

    def test_blocks_differ_by_process_variation(self, grid):
        addressing = PageAddressing(grid.config)
        pages_per_block = grid.config.pages_per_block
        arrays = grid.variation_arrays()
        first = arrays.sample_at(
            addressing.pack(PhysicalPage(0, 0, 0, 1, 0)) // pages_per_block)
        second = arrays.sample_at(
            addressing.pack(PhysicalPage(1, 1, 0, 7, 0)) // pages_per_block)
        assert first != second

    def test_monotonic_in_retention(self, grid, physical):
        steps = [self.read(grid, physical, PageType.CSB, 1000, months).retry_steps
                 for months in (0.0, 3.0, 6.0, 12.0)]
        assert steps == sorted(steps)

    def test_default_rpt_is_lazily_built(self):
        grid = RetryStepGrid(SsdConfig.tiny())
        assert isinstance(grid.rpt, ReadTimingParameterTable)
