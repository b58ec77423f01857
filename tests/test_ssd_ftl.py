"""Tests for the page-mapping FTL."""

import pytest

from repro.nand.geometry import PageType
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import FlashTranslationLayer, page_type_of


@pytest.fixture()
def ftl():
    return FlashTranslationLayer(SsdConfig.tiny())


class TestMapping:
    def test_unmapped_lookup_returns_none(self, ftl):
        assert ftl.lookup(0) is None
        assert not ftl.is_mapped(0)

    def test_write_then_lookup(self, ftl):
        physical, old = ftl.write(7)
        assert old is None
        assert ftl.lookup(7) == physical
        assert ftl.is_mapped(7)

    def test_overwrite_invalidates_old_page(self, ftl):
        first, _ = ftl.write(7)
        second, invalidated = ftl.write(7)
        assert invalidated == first
        assert second != first
        old_block = ftl.plane_for(first).blocks[first.block]
        assert old_block.page_lpns[first.page] is None

    def test_writes_stripe_across_planes(self, ftl):
        locations = [ftl.write(lpn)[0] for lpn in range(8)]
        die_keys = {physical.die_key() for physical in locations}
        assert len(die_keys) > 1

    def test_lpn_out_of_range_rejected(self, ftl):
        with pytest.raises(ValueError):
            ftl.write(ftl.config.logical_pages)

    def test_mapped_pages_counter(self, ftl):
        for lpn in range(10):
            ftl.write(lpn)
        ftl.write(3)
        assert ftl.mapped_pages == 10

    def test_page_type_cycles(self, ftl):
        physical, _ = ftl.write(0, plane_index=0)
        assert page_type_of(physical) in PageType


class TestBlockMetadata:
    def test_retention_recorded_per_page(self, ftl):
        physical, _ = ftl.write(1, retention_months=9.0)
        assert ftl.read_condition(physical) == (0, 9.0)
        fresh, _ = ftl.write(2, retention_months=0.0)
        assert ftl.read_condition(fresh) == (0, 0.0)

    def test_uniform_pe_cycles(self, ftl):
        ftl.set_uniform_pe_cycles(1500)
        physical, _ = ftl.write(0)
        assert ftl.read_condition(physical) == (1500, 0.0)
        with pytest.raises(ValueError):
            ftl.set_uniform_pe_cycles(-1)

    def test_valid_counts_track_overwrites(self, ftl):
        physical, _ = ftl.write(5)
        block = ftl.block_metadata(physical)
        assert block.valid_count == 1
        ftl.write(5)
        assert block.valid_count == 0
        assert block.invalid_count == 1


class TestPlaneManager:
    def test_active_block_rolls_over_when_full(self, ftl):
        plane = ftl.planes[0]
        pages_per_block = ftl.config.pages_per_block
        for lpn in range(pages_per_block + 1):
            ftl.write(lpn, plane_index=0)
        used_blocks = {entry for entry in (ftl.lookup(lpn).block
                                           for lpn in range(pages_per_block + 1))}
        assert len(used_blocks) == 2
        # One block is completely full; the newly opened active block still
        # counts toward the free pool.
        assert plane.free_block_count == ftl.config.blocks_per_plane - 1

    def test_erase_returns_block_to_free_pool(self, ftl):
        plane = ftl.planes[0]
        before = plane.free_block_count
        physical, _ = ftl.write(0, plane_index=0)
        pe_before = plane.blocks[physical.block].pe_cycles
        plane.erase(physical.block)
        assert plane.blocks[physical.block].pe_cycles == pe_before + 1
        assert plane.free_block_count == before

    def test_gc_victim_prefers_most_invalid(self, ftl):
        plane = ftl.planes[0]
        pages_per_block = ftl.config.pages_per_block
        # Fill two blocks on plane 0, then invalidate most of the first one.
        for lpn in range(2 * pages_per_block):
            ftl.write(lpn, plane_index=0)
        for lpn in range(pages_per_block - 2):
            ftl.write(lpn, plane_index=1)  # rewrite elsewhere -> invalidate
        victim = plane.gc_victim()
        assert victim is not None
        assert plane.blocks[victim].invalid_count >= pages_per_block - 2

    def test_wear_leveling_prefers_low_pe_blocks(self, ftl):
        plane = ftl.planes[0]
        # Artificially wear every block except block 5; the next block the
        # allocator opens must be the least-worn one.
        for block in plane.blocks:
            block.pe_cycles = 100
        plane.blocks[5].pe_cycles = 1
        physical, _ = ftl.write(0, plane_index=0)
        assert physical.block == 5

    def test_needs_gc_threshold(self, ftl):
        plane = ftl.planes[0]
        assert not plane.needs_gc()
