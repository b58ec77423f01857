"""Tests for the page-mapping FTL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.geometry import PAGE_TYPE_ORDER, PageType
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.dftl import DftlMapper
from repro.ssd.ftl import BlockStore, FlashTranslationLayer, PageAddressing, PhysicalPage
from repro.ssd.request import HostRequest, RequestKind, TransactionKind
from repro.ssd.retry_grid import RetryStepGrid


@pytest.fixture()
def ftl():
    return FlashTranslationLayer(SsdConfig.tiny())


def unpack(ftl, packed):
    return PageAddressing(ftl.config).unpack(packed)


class TestMapping:
    def test_unwritten_lpn_is_unmapped(self, ftl):
        assert not ftl.is_mapped(0)
        assert ftl.mapped_pages == 0

    def test_program_then_read_target(self, ftl):
        packed, ops = ftl.program(7)
        assert ops == ()
        assert ftl.read_target_packed(7) == (packed, ())
        assert ftl.is_mapped(7)

    def test_overwrite_invalidates_old_page(self, ftl):
        first, _ = ftl.program(7)
        second, _ = ftl.program(7)
        assert second != first
        assert not ftl.page_valid[first]
        assert ftl.page_valid[second]
        assert ftl.page_lpn[second] == 7

    def test_writes_stripe_across_planes(self, ftl):
        locations = [unpack(ftl, ftl.program(lpn)[0]) for lpn in range(8)]
        die_keys = {(physical.channel, physical.die) for physical in locations}
        assert len(die_keys) > 1

    def test_lpn_out_of_range_rejected(self, ftl):
        with pytest.raises(ValueError):
            ftl.program(ftl.config.logical_pages)

    def test_mapped_pages_counter(self, ftl):
        for lpn in range(10):
            ftl.program(lpn)
        ftl.program(3)
        assert ftl.mapped_pages == 10

    def test_page_type_cycles(self, ftl):
        # A block's pages are LSB, CSB and MSB in turn; the packed index
        # gives the page type as its offset in the block, modulo three.
        pages = [ftl._write(lpn, plane_index=0) for lpn in range(4)]
        pages_per_block = ftl.config.pages_per_block
        kinds = [PAGE_TYPE_ORDER[packed % pages_per_block % len(PAGE_TYPE_ORDER)]
                 for packed in pages]
        assert kinds == [PageType.LSB, PageType.CSB, PageType.MSB,
                         PageType.LSB]


class TestBlockState:
    def test_retention_recorded_per_page(self, ftl):
        aged = ftl._write(1, retention_months=9.0)
        assert ftl.read_condition_packed(aged) == (0, 9.0)
        fresh = ftl._write(2, retention_months=0.0)
        assert ftl.read_condition_packed(fresh) == (0, 0.0)

    def test_uniform_pe_cycles(self, ftl):
        ftl.set_uniform_pe_cycles(1500)
        packed, _ = ftl.program(0)
        assert ftl.read_condition_packed(packed) == (1500, 0.0)
        with pytest.raises(ValueError):
            ftl.set_uniform_pe_cycles(-1)

    def test_valid_counts_track_overwrites(self, ftl):
        packed, _ = ftl.program(5)
        corner = packed // ftl.config.pages_per_block
        assert ftl.valid_count[corner] == 1
        ftl.program(5)
        assert ftl.valid_count[corner] == 0
        assert ftl.next_free_page[corner] - ftl.valid_count[corner] == 1


class TestPlane:
    def test_active_block_rolls_over_when_full(self, ftl):
        plane = ftl.planes[0]
        pages_per_block = ftl.config.pages_per_block
        for lpn in range(pages_per_block + 1):
            ftl._write(lpn, plane_index=0)
        used_blocks = {unpack(ftl, ftl.read_target_packed(lpn)[0]).block
                       for lpn in range(pages_per_block + 1)}
        assert len(used_blocks) == 2
        # One block is full and the next is open; neither is free.
        assert plane.opened == sorted(used_blocks)
        assert plane.free_block_count == ftl.config.blocks_per_plane - 2

    def test_erase_returns_block_to_free_pool(self, ftl):
        plane = ftl.planes[0]
        before = plane.free_block_count
        physical = unpack(ftl, ftl._write(0, plane_index=0))
        corner = plane.first + physical.block
        assert plane.free_block_count == before - 1
        pe_before = ftl.pe_cycles[corner]
        plane.erase(physical.block)
        assert ftl.pe_cycles[corner] == pe_before + 1
        assert plane.free_block_count == before
        assert plane.free[-1] == physical.block

    def test_gc_victim_prefers_most_invalid(self, ftl):
        plane = ftl.planes[0]
        pages_per_block = ftl.config.pages_per_block
        # Fill two blocks on plane 0, then invalidate most of the first one.
        for lpn in range(2 * pages_per_block):
            ftl._write(lpn, plane_index=0)
        for lpn in range(pages_per_block - 2):
            ftl._write(lpn, plane_index=1)  # rewrite elsewhere -> invalidate
        victim = ftl.gc_victim(0)
        assert victim is not None
        corner = plane.first + victim
        assert (ftl.next_free_page[corner] - ftl.valid_count[corner]
                >= pages_per_block - 2)

    def test_wear_leveling_prefers_low_pe_blocks(self, ftl):
        plane = ftl.planes[0]
        # Artificially wear every block except block 5; the next block the
        # allocator opens must be the least-worn one.
        for block in range(ftl.config.blocks_per_plane):
            ftl.pe_cycles[plane.first + block] = 100
        ftl.pe_cycles[plane.first + 5] = 1
        assert unpack(ftl, ftl._write(0, plane_index=0)).block == 5

    def test_needs_gc_threshold(self, ftl):
        plane = ftl.planes[0]
        assert not plane.needs_gc()


geometries = st.builds(
    lambda channels, dies, planes, blocks, pages: SsdConfig(
        channels=channels, dies_per_channel=dies, planes_per_die=planes,
        blocks_per_plane=blocks, pages_per_block=pages, write_buffer_pages=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
)


class TestPageAddressing:
    @given(geometries)
    @settings(max_examples=60, deadline=None)
    def test_packed_index_encodes_die_corner_and_page_type(self, config):
        """Every page round-trips, and what the read path derives from its
        packed index is what the scheduler list and the grid say about the
        page, and its page type is its offset in the block modulo three."""
        addressing = PageAddressing(config)
        simulator = SsdSimulator(config)
        grid = RetryStepGrid(config)
        packed_indices = []
        for channel in range(config.channels):
            for die in range(config.dies_per_channel):
                for plane in range(config.planes_per_die):
                    for block in range(config.blocks_per_plane):
                        for page in range(config.pages_per_block):
                            physical = PhysicalPage(channel, die, plane,
                                                    block, page)
                            packed = addressing.pack(physical)
                            packed_indices.append(packed)
                            assert addressing.unpack(packed) == physical
                            die_number = packed // addressing.pages_per_die
                            assert (simulator._dies[die_number]
                                    is simulator.schedulers[(channel, die)])
                            chip = channel * config.dies_per_channel + die
                            assert packed // addressing.pages_per_block == (
                                grid.corner_index(
                                    chip,
                                    plane * config.blocks_per_plane + block))
                            assert (packed % addressing.pages_per_block
                                    % len(PAGE_TYPE_ORDER)
                                    == page % len(PAGE_TYPE_ORDER))
        # Pages are numbered densely, in address order.
        assert packed_indices == list(range(config.physical_pages))

    @pytest.mark.parametrize("mapping", ["block", "page"])
    def test_reads_are_served_where_their_page_lives(self, mapping,
                                                     default_rpt,
                                                     monkeypatch):
        """The read path's inline die, corner and page-type arithmetic
        agrees with ``PageAddressing.unpack`` of each read's page."""
        config = SsdConfig(channels=2, dies_per_channel=3, planes_per_die=2,
                           blocks_per_plane=8, pages_per_block=10,
                           write_buffer_pages=8, mapping=mapping)
        addressing = PageAddressing(config)
        simulator = SsdSimulator(config, policy="PnAR2", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        keys = {id(die): key for key, die in simulator.schedulers.items()}
        served = []
        start = simulator._start

        def record_start(die, transaction):
            served.append((keys[id(die)], transaction))
            return start(die, transaction)
        simulator._start = record_start
        enqueued = []
        enqueue = simulator._enqueue

        def record_enqueue(die_index, transaction):
            if transaction[0] is TransactionKind.READ:
                enqueued.append((die_index, transaction[1]))
            enqueue(die_index, transaction)
        simulator._enqueue = record_enqueue
        targets = []
        read_target = simulator.mapper.read_target_packed

        def record_target(lpn, now_us):
            packed, ops = read_target(lpn, now_us)
            targets.append((lpn, packed))
            return packed, ops
        simulator.mapper.read_target_packed = record_target
        behaviour_at = RetryStepGrid.behaviour_at
        queried = []

        def record(grid, page_type, pe_cycles, retention, corner):
            queried.append((page_type, corner))
            return behaviour_at(grid, page_type, pe_cycles, retention, corner)
        monkeypatch.setattr(RetryStepGrid, "behaviour_at", record)
        requests = [HostRequest(index * 400.0, RequestKind.READ,
                                (index * 37) % 300, page_count=1 + index % 5)
                    for index in range(40)]
        simulator.run(requests)
        reads = [(key, transaction[1]) for key, transaction in served
                 if transaction[0] is TransactionKind.READ]
        assert len(reads) == len(queried) == sum(r.page_count
                                                  for r in requests)
        # Each page of each request is looked up by its own LPN, in arrival
        # order, and its read goes to the page that LPN maps to, on that
        # page's die.
        assert [lpn for lpn, _ in targets] == [
            lpn % config.logical_pages
            for request in requests for lpn in request.lpns]
        assert [packed for _, packed in enqueued] == [
            packed for _, packed in targets]
        for lpn, packed in targets:
            assert packed == read_target(lpn, simulator.events.now_us)[0]
        for die_index, packed in enqueued:
            physical = addressing.unpack(packed)
            assert die_index == (physical.channel * config.dies_per_channel
                                 + physical.die)
        assert sorted(packed for _, packed in reads) == sorted(
            packed for _, packed in targets)
        for (key, packed), (page_type, corner) in zip(reads, queried):
            physical = addressing.unpack(packed)
            chip = physical.channel * config.dies_per_channel + physical.die
            assert key == (physical.channel, physical.die)
            assert corner == simulator.grid.corner_index(
                chip, physical.plane * config.blocks_per_plane + physical.block)
            assert page_type == physical.page % len(PAGE_TYPE_ORDER)


MAPPERS = {"block": FlashTranslationLayer, "page": DftlMapper}


def _loop_preconditioned(mapping, pages, retention_months, pe_cycles):
    """The per-LPN reference: write each LPN in order, then age uniformly."""
    mapper = MAPPERS[mapping](SsdConfig.tiny(mapping=mapping))
    for lpn in range(pages):
        mapper._write(lpn, retention_months)
    mapper.set_uniform_pe_cycles(pe_cycles)
    return mapper


def _store_state(mapper):
    """Everything the block store holds: the map, the per-block and per-page
    arrays, and each plane's pool, blocks in service and append blocks."""
    return {
        "mapping": list(mapper._mapping),
        "mapped_pages": mapper.mapped_pages,
        "next_plane": mapper._next_plane,
        "below_trigger": mapper.planes_below_trigger,
        "arrays": [list(getattr(mapper, name)) for name in (
            "pe_cycles", "next_free_page", "valid_count", "last_write_us",
            "stream", "page_lpn", "page_valid", "page_retention")],
        "planes": [(plane.free, plane.opened, plane.retired, plane.active)
                   for plane in mapper.planes],
    }


class TestPreconditionFillEquivalence:
    @pytest.mark.parametrize("mapping", sorted(MAPPERS))
    @given(st.integers(min_value=0, max_value=1),
           st.sampled_from([0.0, 0.1, 0.5, 0.62, 0.85, 1.0]))
    @settings(max_examples=12, deadline=None)
    def test_closed_form_matches_write_loop(self, mapping, aged,
                                            fill_fraction):
        # Both mappers fill through the one closed form; the DFTL then
        # writes its translation pages, which the loop does not.
        config = SsdConfig.tiny(mapping=mapping)
        pages = int(config.logical_pages * fill_fraction)
        retention = 6.0 if aged else 0.0
        pe_cycles = 1000 if aged else 0
        filled = MAPPERS[mapping](config)
        BlockStore.precondition_fill(filled, pages, retention_months=retention,
                                     pe_cycles=pe_cycles)
        looped = _loop_preconditioned(mapping, pages, retention, pe_cycles)
        below = {index for index, plane in enumerate(filled.planes)
                 if plane.needs_gc()}
        assert filled.planes_below_trigger == below
        assert _store_state(filled) == _store_state(looped)
        filled.check_consistency()

    def test_non_fresh_ftl_falls_back_to_loop(self):
        config = SsdConfig.tiny()
        filled = FlashTranslationLayer(config)
        filled.program(3)  # any prior write voids the closed form
        filled.precondition_fill(16, retention_months=6.0, pe_cycles=500)
        looped = FlashTranslationLayer(config)
        looped.program(3)
        for lpn in range(16):
            looped._write(lpn, 6.0)
        looped.set_uniform_pe_cycles(500)
        assert _store_state(filled) == _store_state(looped)
