"""Flash translation layer: the block store both mappers share, and the block FTL.

The FTL maps logical page numbers (LPNs) onto physical pages spread across
every plane of the SSD (channel-first striping, so consecutive writes go to
different dies and can proceed in parallel).  Each plane keeps one append
block per write stream; when it fills, the wear-leveling allocator opens the
free block with the lowest P/E-cycle count.

Both mappers keep their flash state in one :class:`BlockStore`: flat
sequences per device rather than an object per block.  Per block, indexed
by its retry-grid corner ``packed // pages_per_block``, the store holds the
P/E-cycle count, the next free page, the valid-page count, the time of the
last program and the owning write stream; per page, indexed by the packed
page index, typed arrays hold the out-of-band (OOB) LPN, the valid bit and
the retention age of the stored data (pages written during preconditioning carry
the experiment's cold-data retention age; pages rewritten at run time are
fresh).  The LPN-to-page map is one more flat array, so preconditioning
writes the map and the page state with a few numpy slice assignments per
plane.  A :class:`Plane` over the store holds a plane's free pool, its
append blocks, the blocks in service and its retired blocks, and opens,
allocates, erases and retires blocks; it keeps the store's set of planes
below the GC trigger in step whenever its free pool changes, so
``collect_if_needed`` on a device with free space to spare returns without
visiting a plane.

This module's :class:`FlashTranslationLayer` (``mapping="block"``) is that
store written through one stream, plus its greedy GC victim rule and the
bookkeeping of never-written LPNs a read maps as cold data.  The DFTL of
:mod:`repro.ssd.dftl` (``mapping="page"``) is the same store with a cached
mapping table, translation pages and three streams.  Each mapper keeps its
own tie rules: which least-worn free block opens, and which of the
emptiest full blocks is the GC victim.

A packed page index (:class:`PageAddressing`) is the one address the
simulator core handles: its die, its block's retry-grid corner and its page
type are each one integer division or remainder away.  Both mappers serve
reads by packed index (``read_target_packed``, ``read_condition_packed``)
and hand out writes the same way: :meth:`Plane.allocate` returns the packed
index of the page it programs, ``Mapper.program`` returns it, and every page
of a :class:`~repro.ssd.gc.GcOperation` is one.  No mapper, retry-grid or
fault method takes a :class:`PhysicalPage`; it is only the tuple
:meth:`PageAddressing.unpack` returns, for tests and for reading an address.

:class:`Mapper` is the contract the controller drives an FTL through; both
mappers implement it, so the simulator picks one at construction and never
asks which it got.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro.ssd.config import SsdConfig
from repro.ssd.gc import GcOperation

if TYPE_CHECKING:
    from repro.ssd.dftl import TranslationOp


class PhysicalPage(NamedTuple):
    """Physical location of one page, as :meth:`PageAddressing.unpack` gives it."""

    channel: int
    die: int
    plane: int
    block: int
    page: int


class PageAddressing:
    """The packed page index of one SSD geometry, and what it encodes.

    ``packed = plane_index * pages_per_plane + block * pages_per_block + page``
    with ``plane_index = (channel * dies_per_channel + die) * planes_per_die +
    plane``: pages are numbered die by die, plane by plane, block by block.
    So, with integer division,

    * ``packed // pages_per_die`` is the die number ``channel *
      dies_per_channel + die``, which indexes the controller's schedulers;
    * ``packed // pages_per_block`` is the block's variation corner in the
      retry grid, ``chip * blocks_per_chip + plane * blocks_per_plane +
      block`` (:meth:`~repro.ssd.retry_grid.RetryStepGrid.corner_index`);
    * ``packed % pages_per_block % 3`` is the page type's index in
      ``PAGE_TYPE_ORDER`` (LSB, CSB, MSB in turn within a block).

    The hot paths inline these expressions over the radices below;
    :meth:`pack` and :meth:`unpack` define the format.
    """

    def __init__(self, config: SsdConfig):
        self.dies_per_channel = config.dies_per_channel
        self.planes_per_die = config.planes_per_die
        self.pages_per_block = config.pages_per_block
        self.pages_per_plane = config.blocks_per_plane * config.pages_per_block
        self.pages_per_die = config.planes_per_die * self.pages_per_plane

    def pack(self, physical: PhysicalPage) -> int:
        die_number = physical.channel * self.dies_per_channel + physical.die
        plane_index = die_number * self.planes_per_die + physical.plane
        slot = physical.block * self.pages_per_block + physical.page
        return plane_index * self.pages_per_plane + slot

    def unpack(self, packed: int) -> PhysicalPage:
        plane_index, slot = divmod(packed, self.pages_per_plane)
        block, page = divmod(slot, self.pages_per_block)
        die_number, plane = divmod(plane_index, self.planes_per_die)
        channel, die = divmod(die_number, self.dies_per_channel)
        return PhysicalPage(channel, die, plane, block, page)


def check_lpn(lpn: int, logical_pages: int) -> None:
    """Raise ``ValueError`` unless ``0 <= lpn < logical_pages``.

    Both mappers index per-LPN tables, where a negative LPN would silently
    address the table's tail, so every mapper entry point that takes an LPN
    checks it.  The controller folds host LPNs into range before calling.
    """
    if not 0 <= lpn < logical_pages:
        raise ValueError(f"LPN {lpn} outside the logical space [0, {logical_pages})")


class Mapper(Protocol):
    """What the controller needs from an FTL, whichever mapping it uses.

    Every method that takes an LPN raises ``ValueError`` for one outside
    ``[0, logical_pages)`` (:func:`check_lpn`).  Mapping state changes
    eagerly; every call that causes flash work returns it for the
    controller to schedule: translation-page operations (always empty in
    block mode) or :class:`GcOperation` records.  Only
    :class:`~repro.ssd.dftl.DftlMapper` retires grown bad blocks
    (``retire_block``), so ``SsdSimulator.install_faults`` admits that fault
    in page mode alone.
    """

    #: Per-plane state (``channel``/``die``/``plane``), indexed like
    #: :attr:`GcOperation.plane_index`.
    planes: Sequence
    #: Planes found below their GC trigger; mapping-cache hits and misses.
    gc_invocations: int
    cmt_hits: int
    cmt_misses: int

    def precondition_fill(
        self, pages: int, retention_months: float = 0.0, pe_cycles: int = 0
    ) -> None:
        """Fill LPNs ``0..pages-1`` with cold data and age every block."""

    def read_target_packed(self, lpn: int, now_us: float) -> Tuple[int, Sequence[TranslationOp]]:
        """The packed page a host read goes to; a never-written LPN is mapped as cold data."""

    def program(self, lpn: int, now_us: float) -> Tuple[int, Sequence[TranslationOp]]:
        """Map a host write of ``lpn`` to a freshly allocated page; its packed index."""

    def is_mapped(self, lpn: int) -> bool:
        """Whether ``lpn`` currently maps to a page."""

    def trim(self, lpn: int, now_us: float = 0.0) -> Sequence[TranslationOp]:
        """Unmap ``lpn`` (host TRIM/discard); unmapped LPNs are a no-op."""

    def read_condition_packed(self, packed: int, now_us: float) -> Tuple[int, float]:
        """``(pe_cycles, retention_months)`` a read of packed page ``packed`` sees at ``now_us``."""

    def collect_if_needed(self, now_us: float = 0.0) -> List[GcOperation]:
        """Collect victim blocks on every plane below its GC trigger."""


#: Map entry of an LPN that holds no data, and OOB LPN of a page holding none.
_UNMAPPED = -1

#: Write streams.  Each plane keeps one append block per stream, so host
#: writes, GC relocations and translation pages never share a block (the
#: block FTL writes through ``HOST_STREAM`` alone).  A free block has none.
HOST_STREAM = 0
GC_STREAM = 1
TRANS_STREAM = 2
NO_STREAM = -1
_STREAMS = 3


class Plane:
    """Free pool, append blocks and blocks in service of one plane.

    Blocks are numbered within the plane; block ``b``'s state lives at
    corner ``first + b`` of the store's per-block sequences and its pages at
    packed indices ``base + b * pages_per_block + page``.  The plane keeps
    references to the store's sequences and to its set of planes below the
    GC trigger, not to the store itself, so a dropped mapper holds no
    reference cycle and is freed at once.

    ``free`` is the free pool in the order blocks joined it (an erased block
    joins at the end); ``opened`` lists the blocks holding data in the order
    they were opened; ``retired`` holds grown-bad blocks, which never return
    to the pool.  Every change to the pool re-tests the GC trigger.
    """

    def __init__(self, store: "BlockStore", index: int, channel: int, die: int, plane: int):
        config = store.config
        self.channel = channel
        self.die = die
        self.plane = plane
        self.index = index
        #: Corner of the plane's block 0, and packed index of its first page.
        self.first = index * config.blocks_per_plane
        self.base = self.first * config.pages_per_block
        self._pages_per_block = config.pages_per_block
        self._threshold = config.gc_free_block_threshold
        #: The mapper's wear-levelling rule, a plain function (no reference
        #: back to the mapper).
        self._least_worn = store._least_worn
        self._pe_cycles = store.pe_cycles
        self._next_free_page = store.next_free_page
        self._valid_count = store.valid_count
        self._last_write_us = store.last_write_us
        self._stream = store.stream
        self._page_lpn = store.page_lpn
        self._page_valid = store.page_valid
        self._page_retention = store.page_retention
        self._below_trigger = store.planes_below_trigger
        #: What an erase writes over a block's pages.
        self._erased_lpns = array("q", [_UNMAPPED]) * config.pages_per_block
        self._erased_retention = array("d", [0.0]) * config.pages_per_block
        self.free: List[int] = list(range(config.blocks_per_plane))
        self.opened: List[int] = []
        self.retired: Set[int] = set()
        #: Each stream's append block, or None.
        self.active: List[Optional[int]] = [None] * _STREAMS
        self.free_changed()

    # -- free pool ---------------------------------------------------------------------
    @property
    def free_block_count(self) -> int:
        """Closed free blocks (open append blocks are not counted)."""
        return len(self.free)

    def needs_gc(self) -> bool:
        return len(self.free) < self._threshold

    def free_changed(self) -> None:
        """Re-test the GC trigger after the free pool changed."""
        if self.needs_gc():
            self._below_trigger.add(self.index)
        else:
            self._below_trigger.discard(self.index)

    def _open(self, stream: int) -> int:
        """Open the free block the mapper's ``_least_worn`` rule picks as
        ``stream``'s append block."""
        free = self.free
        if not free:
            raise RuntimeError(
                f"plane ({self.channel},{self.die},{self.plane}) ran out of "
                "free blocks; garbage collection fell behind"
            )
        block = self._least_worn(free, self._pe_cycles, self.first)
        free.remove(block)
        self.free_changed()
        self._stream[self.first + block] = stream
        self.active[stream] = block
        self.opened.append(block)
        return block

    # -- page allocation -----------------------------------------------------------------
    def allocate(self, stream: int, lpn: int, retention_months: float, now_us: float) -> int:
        """Program ``lpn`` on the next free page of ``stream``'s append block; its packed index."""
        block = self.active[stream]
        next_free_page = self._next_free_page
        if block is None or next_free_page[self.first + block] >= self._pages_per_block:
            block = self._open(stream)
        corner = self.first + block
        page = next_free_page[corner]
        next_free_page[corner] = page + 1
        self._valid_count[corner] += 1
        self._last_write_us[corner] = now_us
        packed = corner * self._pages_per_block + page
        self._page_lpn[packed] = lpn
        self._page_valid[packed] = 1
        self._page_retention[packed] = retention_months
        return packed

    def erase(self, block: int) -> None:
        """Erase a block and return it to the free pool, unless it is retired.

        Every per-block and per-page value returns to its unwritten state: a
        GC read of the victim's pages is priced after this erase, and sees
        the erased block's condition.
        """
        corner = self.first + block
        pages_per_block = self._pages_per_block
        start = corner * pages_per_block
        self._pe_cycles[corner] += 1
        self._next_free_page[corner] = 0
        self._valid_count[corner] = 0
        self._last_write_us[corner] = 0.0
        self._stream[corner] = NO_STREAM
        self._page_lpn[start : start + pages_per_block] = self._erased_lpns
        self._page_valid[start : start + pages_per_block] = bytes(pages_per_block)
        self._page_retention[start : start + pages_per_block] = self._erased_retention
        if block in self.opened:
            self.opened.remove(block)
        self._close(block)
        if block not in self.free and block not in self.retired:
            self.free.append(block)
            self.free_changed()

    def retire(self, block: int) -> None:
        """Take a block out of service for good (a grown bad block).

        The block leaves the free pool and any append point open on it; a
        later :meth:`erase` will not return it.  Relocating the valid data
        it still holds is the mapper's job
        (:meth:`~repro.ssd.dftl.DftlMapper.retire_block`).
        """
        if block in self.retired:
            raise ValueError(f"block {block} is already retired")
        self.retired.add(block)
        if block in self.free:
            self.free.remove(block)
            self.free_changed()
        self._close(block)

    def is_retired(self, block: int) -> bool:
        return block in self.retired

    def _close(self, block: int) -> None:
        """Close every append point open on ``block``."""
        active = self.active
        for stream in range(_STREAMS):
            if active[stream] == block:
                active[stream] = None


class BlockStore:
    """Flat per-device block and page state, and the LPN map over it.

    Both mappers are a block store: this class holds the sequences, the planes
    and the map, writes host data through :meth:`_write`, fills a fresh
    device in closed form (:meth:`precondition_fill`) and checks that the
    map and the OOB state agree (:meth:`check_consistency`).  A mapper
    subclass adds its lookups and its GC, and its two tie rules: a static
    ``_least_worn(free, pe_cycles, first)`` that picks the free block to
    open, and ``gc_victim``.
    """

    def __init__(self, config: SsdConfig):
        self.config = config
        blocks = config.num_planes * config.blocks_per_plane
        pages = config.physical_pages
        # Per block, indexed by corner (``packed // pages_per_block``): plain
        # lists, whose element loads and stores the interpreter specializes
        # (a page allocation takes about half the time it takes on typed
        # arrays), at a few bytes per block.
        self.pe_cycles = [0] * blocks
        self.next_free_page = [0] * blocks
        self.valid_count = [0] * blocks
        self.last_write_us = [0.0] * blocks
        self.stream = [NO_STREAM] * blocks
        # Per page, indexed by packed page index: typed arrays, a few bytes
        # per page.
        self.page_lpn = array("q", [_UNMAPPED]) * pages
        self.page_valid = bytearray(pages)
        self.page_retention = array("d", [0.0]) * pages
        #: Indices of the planes whose free pool is below the GC trigger;
        #: each plane keeps its own in step.
        self.planes_below_trigger: Set[int] = set()
        self.planes: List[Plane] = []
        for channel in range(config.channels):
            for die in range(config.dies_per_channel):
                for plane in range(config.planes_per_die):
                    self.planes.append(Plane(self, len(self.planes), channel, die, plane))
        self._logical_pages = config.logical_pages
        self._pages_per_block = config.pages_per_block
        #: LPN -> packed physical page (:class:`PageAddressing`), or ``_UNMAPPED``.
        self._mapping = array("q", [_UNMAPPED]) * config.logical_pages
        self._mapped_pages = 0
        self._next_plane = 0
        #: Preconditioned retention age of never-written LPNs a read maps.
        self._cold_retention_months = 0.0
        self.gc_invocations = 0

    # -- lookups -----------------------------------------------------------------------
    def is_mapped(self, lpn: int) -> bool:
        check_lpn(lpn, self._logical_pages)
        return self._mapping[lpn] != _UNMAPPED

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    # -- updates -------------------------------------------------------------------------
    def _invalidate(self, packed: int) -> None:
        """Clear the valid bit of the page at packed index ``packed``, if set."""
        if self.page_valid[packed]:
            self.page_valid[packed] = 0
            self.valid_count[packed // self._pages_per_block] -= 1

    def _write(
        self,
        lpn: int,
        retention_months: float = 0.0,
        now_us: float = 0.0,
        plane_index: Optional[int] = None,
    ) -> int:
        """Map ``lpn`` (checked by the caller) to a newly allocated host-stream
        page, on the next plane in turn unless ``plane_index`` names one; its
        packed index."""
        old = self._mapping[lpn]
        if old == _UNMAPPED:
            self._mapped_pages += 1
        else:
            self._invalidate(old)
        if plane_index is None:
            plane_index = self._next_plane
            self._next_plane = (plane_index + 1) % len(self.planes)
        packed = self.planes[plane_index].allocate(HOST_STREAM, lpn, retention_months, now_us)
        self._mapping[lpn] = packed
        return packed

    def _unmap(self, lpn: int) -> bool:
        """Unmap ``lpn`` and invalidate its page; whether it was mapped."""
        packed = self._mapping[lpn]
        if packed == _UNMAPPED:
            return False
        self._mapping[lpn] = _UNMAPPED
        self._mapped_pages -= 1
        self._invalidate(packed)
        return True

    def set_uniform_pe_cycles(self, pe_cycles: int) -> None:
        """Install the experiment's P/E-cycle count on every block."""
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        self.pe_cycles[:] = [pe_cycles] * len(self.pe_cycles)

    def precondition_fill(
        self, pages: int, retention_months: float = 0.0, pe_cycles: int = 0
    ) -> None:
        """Bulk preconditioning: fill LPNs 0..pages-1 and set a uniform wear.

        Produces the *exact* state that :meth:`_write` of every LPN in order
        followed by :meth:`set_uniform_pe_cycles` would: round-robin plane
        striping (LPN ``n`` lands on plane ``n % planes`` as its ``n //
        planes``-th write), blocks opened in ascending number (every block
        starts at the same P/E count, so both mappers' tie rules open the
        next one), pages filled sequentially.  The closed form writes each
        plane's pages and map entries with a few slice assignments instead
        of ``pages`` allocator calls, which is what keeps simulator
        preconditioning off the hot-path profile.  A used store falls back to
        the per-page loop, whose allocator decisions depend on its state.
        """
        if pages < 0 or pages > self._logical_pages:
            raise ValueError(
                f"cannot precondition {pages} pages into a logical space of {self._logical_pages}"
            )
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        self._cold_retention_months = retention_months
        if self._mapped_pages or self._next_plane or any(plane.opened for plane in self.planes):
            for lpn in range(pages):
                self._write(lpn, retention_months)
        else:
            self._fill_fresh(pages, retention_months)
        self.set_uniform_pe_cycles(pe_cycles)

    def _fill_fresh(self, pages: int, retention_months: float) -> None:
        """The closed form of :meth:`precondition_fill` on a store never written."""
        plane_count = len(self.planes)
        pages_per_block = self._pages_per_block
        page_lpn = np.frombuffer(self.page_lpn, dtype=np.int64)
        page_valid = np.frombuffer(self.page_valid, dtype=np.uint8)
        page_retention = np.frombuffer(self.page_retention, dtype=np.float64)
        mapping = np.frombuffer(self._mapping, dtype=np.int64)
        for plane in self.planes:
            # The plane's k-th write is LPN index + k * planes, at packed
            # index base + k.
            count = len(range(plane.index, pages, plane_count))
            if not count:
                continue
            base = plane.base
            page_lpn[base : base + count] = np.arange(plane.index, pages, plane_count)
            page_valid[base : base + count] = 1
            page_retention[base : base + count] = retention_months
            mapping[plane.index : pages : plane_count] = np.arange(base, base + count)
            last = (count - 1) // pages_per_block
            fills = [pages_per_block] * last + [count - last * pages_per_block]
            first = plane.first
            self.next_free_page[first : first + last + 1] = fills
            self.valid_count[first : first + last + 1] = fills
            self.stream[first : first + last + 1] = [HOST_STREAM] * (last + 1)
            plane.opened = list(range(last + 1))
            plane.active[HOST_STREAM] = last
            plane.free = list(range(last + 1, self.config.blocks_per_plane))
            plane.free_changed()
        self._mapped_pages = pages
        self._next_plane = pages % plane_count

    # -- invariants ----------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert the map, the OOB state, the valid counts, the free pools and
        the trigger set agree; raises ``AssertionError`` on a violation."""
        self._check_store(self._mapped_pages)

    def _check_store(self, valid_pages: int) -> None:
        """The store's half of :meth:`check_consistency`: every mapped LPN's
        page is valid and holds that LPN, ``valid_pages`` pages are valid in
        all, and each block's valid count matches its valid bits."""
        page_lpn = self.page_lpn
        page_valid = self.page_valid
        mapped = 0
        for lpn, packed in enumerate(self._mapping):
            if packed == _UNMAPPED:
                continue
            mapped += 1
            if not page_valid[packed] or page_lpn[packed] != lpn:
                raise AssertionError(
                    f"mapping for LPN {lpn} points at packed page {packed}, whose OOB disagrees"
                )
        if mapped != self._mapped_pages:
            raise AssertionError(
                f"{mapped} LPNs are mapped, but the count says {self._mapped_pages}"
            )
        total_valid = sum(page_valid)
        if total_valid != valid_pages:
            raise AssertionError(
                f"{total_valid} valid pages on flash, but the maps hold {valid_pages} entries"
            )
        pages_per_block = self._pages_per_block
        for corner, count in enumerate(self.valid_count):
            start = corner * pages_per_block
            if sum(page_valid[start : start + pages_per_block]) != count:
                raise AssertionError(f"block {corner} valid_count disagrees with its valid bits")
        for plane in self.planes:
            held = sorted(plane.free + plane.opened + list(plane.retired))
            if held != list(range(self.config.blocks_per_plane)):
                raise AssertionError(
                    f"plane {plane.index}: free {plane.free}, opened {plane.opened} and "
                    f"retired {sorted(plane.retired)} do not partition its blocks"
                )
        below = {plane.index for plane in self.planes if plane.needs_gc()}
        if self.planes_below_trigger != below:
            raise AssertionError(
                f"planes_below_trigger is {sorted(self.planes_below_trigger)}, "
                f"but planes {sorted(below)} are below the GC trigger"
            )


class FlashTranslationLayer(BlockStore):
    """Page-level mapping FTL with channel-first striping (a :class:`Mapper`).

    The block store written through one stream, with greedy GC (one victim
    per plane below the trigger) and the preconditioned wear of cold data a
    read maps.
    """

    #: The whole table sits in controller DRAM: reads never cost translation
    #: traffic, and there is no mapping cache to hit or miss.
    cmt_hits = 0
    cmt_misses = 0

    def __init__(self, config: SsdConfig):
        super().__init__(config)
        #: Preconditioned wear of never-written LPNs a read maps.
        self._cold_pe_cycles = 0

    @staticmethod
    def _least_worn(free: List[int], pe_cycles: List[int], first: int) -> int:
        """The free block to open: the least worn; among equals, the one
        that joined the free pool first (an erased block joins at the end)."""
        return min(free, key=lambda block: pe_cycles[first + block])

    # -- lookups -----------------------------------------------------------------------
    def read_target_packed(self, lpn: int, now_us: float = 0.0) -> Tuple[int, tuple]:
        """Packed page a host read of ``lpn`` goes to; reads cost no translation traffic.

        A never-written LPN holds data written before the trace started: it
        is mapped now, as preconditioned cold data.
        """
        if not 0 <= lpn < self._logical_pages:
            check_lpn(lpn, self._logical_pages)  # raises, with the one message
        packed = self._mapping[lpn]
        if packed == _UNMAPPED:
            packed = self._write(lpn, self._cold_retention_months, now_us)
            self.pe_cycles[packed // self._pages_per_block] = self._cold_pe_cycles
        return packed, ()

    def read_condition_packed(self, packed: int, now_us: float = 0.0) -> Tuple[int, float]:
        """``(pe_cycles, retention_months)`` of a packed page; blocks never age in-run."""
        return self.pe_cycles[packed // self._pages_per_block], self.page_retention[packed]

    # -- updates -------------------------------------------------------------------------
    def program(self, lpn: int, now_us: float = 0.0) -> Tuple[int, tuple]:
        """Map a host write of ``lpn`` to a fresh page; its packed index and no
        translation traffic."""
        check_lpn(lpn, self._logical_pages)
        return self._write(lpn, 0.0, now_us), ()

    def trim(self, lpn: int, now_us: float = 0.0) -> tuple:
        """Unmap ``lpn`` (host TRIM/discard); unmapped LPNs are a no-op."""
        check_lpn(lpn, self._logical_pages)
        self._unmap(lpn)
        return ()

    def precondition_fill(
        self, pages: int, retention_months: float = 0.0, pe_cycles: int = 0
    ) -> None:
        super().precondition_fill(pages, retention_months, pe_cycles)
        self._cold_pe_cycles = pe_cycles

    # -- garbage collection --------------------------------------------------------------
    def gc_victim(self, plane_index: int) -> Optional[int]:
        """The full block with the most invalid pages (greedy); among equals,
        the one filled first.  A fully valid block can be chosen."""
        plane = self.planes[plane_index]
        first = plane.first
        pages_per_block = self._pages_per_block
        next_free_page = self.next_free_page
        valid_count = self.valid_count
        victim = None
        fewest = pages_per_block + 1
        for block in plane.opened:
            corner = first + block
            if next_free_page[corner] >= pages_per_block and valid_count[corner] < fewest:
                victim = block
                fewest = valid_count[corner]
        return victim

    def collect_if_needed(self, now_us: float = 0.0) -> List[GcOperation]:
        """Collect one greedy victim per plane below its free-block threshold;
        each such plane counts one invocation, victim or not."""
        if not self.planes_below_trigger:
            return []
        operations = []
        for plane_index, plane in enumerate(self.planes):
            if not plane.needs_gc():
                continue
            self.gc_invocations += 1
            victim = self.gc_victim(plane_index)
            if victim is not None:
                operations.append(self.collect_block(plane_index, victim, now_us))
        return operations

    def collect_block(self, plane_index: int, victim: int, now_us: float = 0.0) -> GcOperation:
        """Relocate ``victim``'s valid pages within its plane, then erase it."""
        plane = self.planes[plane_index]
        first = (plane.first + victim) * self._pages_per_block
        operation = GcOperation(plane_index=plane_index, victim_block=victim, erase_target=first)
        page_valid = self.page_valid
        for packed in range(first, first + self._pages_per_block):
            if not page_valid[packed]:
                continue
            # Relocated data keeps its retention age: copying a page does not
            # refresh the host's perception of the data, and the paper's cold
            # pages stay cold even if GC moves them.  (Strictly, a re-program
            # resets the physical retention clock; modelling it as retained
            # keeps cold pages cold, which is the conservative choice for
            # read-retry behaviour and matches the paper's per-page aging.)
            operation.relocations.append(packed)
            operation.destinations.append(
                self._write(self.page_lpn[packed], self.page_retention[packed], now_us, plane_index)
            )
        plane.erase(victim)
        return operation
