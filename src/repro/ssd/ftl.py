"""Flash translation layer: page-level mapping and block allocation.

The FTL maps logical page numbers (LPNs) onto physical pages spread across
every plane of the SSD (channel-first striping, so consecutive writes go to
different dies and can proceed in parallel).  Each plane keeps one *active*
block that absorbs new writes; when it fills, the wear-leveling allocator
opens the free block with the lowest P/E-cycle count.

The FTL also keeps the per-block metadata the read-retry study needs: the
block's P/E-cycle count and, per page, the retention age of the stored data
(pages written during preconditioning carry the experiment's cold-data
retention age; pages rewritten at run time are fresh), and it collects
garbage greedily (:meth:`FlashTranslationLayer.collect_if_needed`).  The
LPN-to-page map itself is one flat typed array of packed page indices, so
preconditioning writes it with a single numpy assignment.

A packed page index (:class:`PageAddressing`) is the one address the
simulator core handles: its die, its block's retry-grid corner and its page
type are each one integer division or remainder away.  Both mappers serve
reads by packed index (``read_target_packed``, ``read_condition_packed``)
and hand out writes the same way: each plane's allocator returns the packed
index of the page it programs (the plane's ``base`` plus the block and page
offset), ``Mapper.program`` returns it, and every page of a
:class:`~repro.ssd.gc.GcOperation` is one.  No mapper, retry-grid or fault
method takes a :class:`PhysicalPage`; it is only the tuple
:meth:`PageAddressing.unpack` returns, for tests and for reading an address.
Each mapper also keeps the set of its planes below the GC trigger, kept in
step by the planes whenever their free-block list changes, so
``collect_if_needed`` on a device with free space to spare returns without
visiting a plane.

:class:`Mapper` is the contract the controller drives an FTL through.  This
flat-table FTL (``mapping="block"``) and the DFTL of :mod:`repro.ssd.dftl`
(``mapping="page"``) both implement it, so the simulator picks one at
construction and never asks which it got.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
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


@dataclass
class BlockMetadata:
    """Mutable state of one physical block."""

    block_id: int
    pe_cycles: int = 0
    next_free_page: int = 0
    valid_count: int = 0
    #: LPN stored in each page (``None`` = free or invalidated).
    page_lpns: List[Optional[int]] = field(default_factory=list)
    #: Retention age (months) of the data in each page.
    page_retention_months: List[float] = field(default_factory=list)

    def initialize(self, pages_per_block: int) -> None:
        self.next_free_page = 0
        self.valid_count = 0
        self.page_lpns = [None] * pages_per_block
        self.page_retention_months = [0.0] * pages_per_block

    @property
    def is_full(self) -> bool:
        return self.next_free_page >= len(self.page_lpns)

    @property
    def invalid_count(self) -> int:
        return self.next_free_page - self.valid_count


class PlaneManager:
    """Free-block pool, active block and block metadata of one plane.

    ``below_trigger`` is the FTL's set of planes below the GC trigger
    (:attr:`FlashTranslationLayer.planes_below_trigger`); every change to the
    plane's free-block list re-tests the trigger and keeps its index there in
    step.  A shared set rather than a reference to the FTL, so a dropped FTL
    holds no reference cycle and is freed at once.
    """

    def __init__(
        self,
        config: SsdConfig,
        plane_index: int,
        channel: int,
        die: int,
        plane: int,
        below_trigger: Set[int],
    ):
        self.config = config
        self.channel = channel
        self.die = die
        self.plane = plane
        self._index = plane_index
        self._below_trigger = below_trigger
        self._pages_per_block = config.pages_per_block
        #: Packed index of the plane's first page (:class:`PageAddressing`).
        self.base = plane_index * config.blocks_per_plane * config.pages_per_block
        self.blocks: List[BlockMetadata] = []
        for block_id in range(config.blocks_per_plane):
            metadata = BlockMetadata(block_id=block_id)
            metadata.initialize(config.pages_per_block)
            self.blocks.append(metadata)
        self._free_blocks: List[int] = list(range(config.blocks_per_plane))
        self._active_block: Optional[int] = None
        self._filled_blocks: List[int] = []
        self._free_blocks_changed()

    # -- free-block pool ----------------------------------------------------------
    @property
    def free_block_count(self) -> int:
        count = len(self._free_blocks)
        if self._active_block is not None:
            count += 1
        return count

    def needs_gc(self) -> bool:
        return len(self._free_blocks) < self.config.gc_free_block_threshold

    def _free_blocks_changed(self) -> None:
        """Re-test the GC trigger after the free-block list changed."""
        if self.needs_gc():
            self._below_trigger.add(self._index)
        else:
            self._below_trigger.discard(self._index)

    def _open_new_active_block(self) -> None:
        if not self._free_blocks:
            raise RuntimeError(
                f"plane ({self.channel},{self.die},{self.plane}) ran out of "
                "free blocks; garbage collection fell behind"
            )
        # Wear leveling: pick the free block with the lowest P/E-cycle count.
        self._free_blocks.sort(key=lambda block_id: self.blocks[block_id].pe_cycles)
        self._active_block = self._free_blocks.pop(0)
        self._free_blocks_changed()

    # -- page allocation -----------------------------------------------------------
    def allocate_page(self, lpn: int, retention_months: float = 0.0) -> int:
        """Allocate the next free page of the active block for ``lpn``; its packed index."""
        active = self._active_block
        # ``is_full``, inlined: one allocation per page written.
        if active is None or self.blocks[active].next_free_page >= self._pages_per_block:
            if active is not None:
                self._filled_blocks.append(active)
            self._open_new_active_block()
            active = self._active_block
        block = self.blocks[active]
        page = block.next_free_page
        block.page_lpns[page] = lpn
        block.page_retention_months[page] = retention_months
        block.next_free_page += 1
        block.valid_count += 1
        return self.base + active * self._pages_per_block + page

    def erase(self, block_id: int) -> None:
        """Erase a block and return it to the free pool."""
        block = self.blocks[block_id]
        block.pe_cycles += 1
        block.initialize(self.config.pages_per_block)
        if block_id in self._filled_blocks:
            self._filled_blocks.remove(block_id)
        if block_id == self._active_block:
            self._active_block = None
        if block_id not in self._free_blocks:
            self._free_blocks.append(block_id)
            self._free_blocks_changed()

    # -- GC victim selection ------------------------------------------------------------
    def gc_victim(self) -> Optional[int]:
        """Block with the most invalid pages among the full blocks (greedy)."""
        candidates = [block_id for block_id in self._filled_blocks if self.blocks[block_id].is_full]
        if self._active_block is not None and self.blocks[self._active_block].is_full:
            candidates.append(self._active_block)
        if not candidates:
            return None
        return max(candidates, key=lambda block_id: self.blocks[block_id].invalid_count)

    def set_pe_cycles(self, pe_cycles: int) -> None:
        for block in self.blocks:
            block.pe_cycles = pe_cycles


#: Map entry of an LPN that holds no data.
_UNMAPPED = -1


class FlashTranslationLayer:
    """Page-level mapping FTL with channel-first striping (a :class:`Mapper`)."""

    #: The whole table sits in controller DRAM: reads never cost translation
    #: traffic, and there is no mapping cache to hit or miss.
    cmt_hits = 0
    cmt_misses = 0

    def __init__(self, config: SsdConfig):
        self.config = config
        #: Indices of the planes whose free pool is below the GC trigger;
        #: each plane keeps its own in step (:class:`PlaneManager`).
        self.planes_below_trigger: Set[int] = set()
        self.planes: List[PlaneManager] = []
        for channel in range(config.channels):
            for die in range(config.dies_per_channel):
                for plane in range(config.planes_per_die):
                    self.planes.append(
                        PlaneManager(
                            config, len(self.planes), channel, die, plane, self.planes_below_trigger
                        )
                    )
        #: Every block, indexed by its corner ``packed // pages_per_block``.
        self._blocks = [block for plane in self.planes for block in plane.blocks]
        self._logical_pages = config.logical_pages
        self._pages_per_block = config.pages_per_block
        self._pages_per_plane = config.blocks_per_plane * config.pages_per_block
        #: LPN -> packed physical page (:class:`PageAddressing`), or ``_UNMAPPED``.
        self._mapping = array("q", [_UNMAPPED]) * config.logical_pages
        self._mapped_pages = 0
        self._next_plane = 0
        #: Preconditioned condition of never-written LPNs a read maps.
        self._cold_retention_months = 0.0
        self._cold_pe_cycles = 0
        self.gc_invocations = 0

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
            packed = self._place(lpn, self._cold_retention_months)
            self._blocks[packed // self._pages_per_block].pe_cycles = self._cold_pe_cycles
        return packed, ()

    def is_mapped(self, lpn: int) -> bool:
        check_lpn(lpn, self._logical_pages)
        return self._mapping[lpn] != _UNMAPPED

    def read_condition_packed(self, packed: int, now_us: float = 0.0) -> Tuple[int, float]:
        """``(pe_cycles, retention_months)`` of a packed page; blocks never age in-run."""
        block = self._blocks[packed // self._pages_per_block]
        return block.pe_cycles, block.page_retention_months[packed % self._pages_per_block]

    # -- updates -------------------------------------------------------------------------
    def _invalidate(self, packed: int) -> None:
        """Drop the data of the page at packed index ``packed``, if it holds any."""
        block = self._blocks[packed // self._pages_per_block]
        page = packed % self._pages_per_block
        if block.page_lpns[page] is not None:
            block.page_lpns[page] = None
            block.valid_count -= 1

    def _place(self, lpn: int, retention_months: float = 0.0, plane_index: int = None) -> int:
        """Map ``lpn`` (checked by the caller) to a newly allocated page; its packed index."""
        old = self._mapping[lpn]
        if old == _UNMAPPED:
            self._mapped_pages += 1
        else:
            self._invalidate(old)
        if plane_index is None:
            plane_index = self._next_plane
            self._next_plane = (plane_index + 1) % len(self.planes)
        packed = self.planes[plane_index].allocate_page(lpn, retention_months)
        self._mapping[lpn] = packed
        return packed

    def program(self, lpn: int, now_us: float = 0.0) -> Tuple[int, tuple]:
        """Map a host write of ``lpn`` to a fresh page; its packed index and no
        translation traffic."""
        check_lpn(lpn, self._logical_pages)
        return self._place(lpn), ()

    def trim(self, lpn: int, now_us: float = 0.0) -> tuple:
        """Unmap ``lpn`` (host TRIM/discard); unmapped LPNs are a no-op."""
        check_lpn(lpn, self._logical_pages)
        packed = self._mapping[lpn]
        if packed != _UNMAPPED:
            self._mapping[lpn] = _UNMAPPED
            self._mapped_pages -= 1
            self._invalidate(packed)
        return ()

    def set_uniform_pe_cycles(self, pe_cycles: int) -> None:
        """Install the experiment's P/E-cycle count on every block."""
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        for plane in self.planes:
            plane.set_pe_cycles(pe_cycles)

    def precondition_fill(
        self, pages: int, retention_months: float = 0.0, pe_cycles: int = 0
    ) -> None:
        """Bulk preconditioning: fill LPNs 0..pages-1 and set a uniform wear.

        Produces the *exact* state that ``_place(lpn, retention_months)`` for
        every LPN in order followed by :meth:`set_uniform_pe_cycles` would:
        round-robin plane striping (LPN ``n`` lands on plane ``n % planes``
        as its ``n // planes``-th write), blocks opened in ascending id
        order (the wear-leveling sort is stable and every block starts at
        the same P/E count), pages filled sequentially.  The closed form
        slices each plane's LPN list into its blocks and writes the packed
        map with one numpy assignment instead of ``pages`` allocator calls,
        which is what keeps simulator preconditioning off the hot-path
        profile.  A non-fresh FTL falls back to the per-page loop, whose
        allocator decisions depend on the existing state.
        """
        if pages < 0 or pages > self._logical_pages:
            raise ValueError(
                f"cannot precondition {pages} pages into a logical space of {self._logical_pages}"
            )
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        self._cold_retention_months = retention_months
        self._cold_pe_cycles = pe_cycles
        fresh = (
            self._mapped_pages == 0
            and self._next_plane == 0
            and all(
                plane._active_block is None and not plane._filled_blocks for plane in self.planes
            )
        )
        if not fresh:
            for lpn in range(pages):
                self._place(lpn, retention_months)
            self.set_uniform_pe_cycles(pe_cycles)
            return
        plane_count = len(self.planes)
        pages_per_block = self._pages_per_block
        for plane_index, plane in enumerate(self.planes):
            plane_lpns = list(range(plane_index, pages, plane_count))
            if not plane_lpns:
                continue
            last_block = (len(plane_lpns) - 1) // pages_per_block
            for block_id in range(last_block + 1):
                block = plane.blocks[block_id]
                base = block_id * pages_per_block
                lpns = plane_lpns[base : base + pages_per_block]
                fill = len(lpns)
                block.page_lpns[:fill] = lpns
                block.page_retention_months[:fill] = [retention_months] * fill
                block.next_free_page = fill
                block.valid_count = fill
            plane._filled_blocks = list(range(last_block))
            plane._active_block = last_block
            plane._free_blocks = list(range(last_block + 1, self.config.blocks_per_plane))
            plane._free_blocks_changed()
        if pages:
            # LPN n is write n // planes of plane n % planes, and a plane's
            # k-th write lands at packed offset k within the plane.
            slots, plane_indices = np.divmod(np.arange(pages, dtype=np.int64), plane_count)
            mapping = np.frombuffer(self._mapping, dtype=np.int64)
            mapping[:pages] = plane_indices * self._pages_per_plane + slots
        self._mapped_pages = pages
        self._next_plane = pages % plane_count
        self.set_uniform_pe_cycles(pe_cycles)

    # -- garbage collection --------------------------------------------------------------
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
            victim = plane.gc_victim()
            if victim is not None:
                operations.append(self.collect_block(plane_index, victim))
        return operations

    def collect_block(self, plane_index: int, victim: int) -> GcOperation:
        """Relocate ``victim``'s valid pages within its plane, then erase it."""
        plane = self.planes[plane_index]
        block = plane.blocks[victim]
        first = plane.base + victim * self._pages_per_block
        operation = GcOperation(plane_index=plane_index, victim_block=victim, erase_target=first)
        for page, lpn in enumerate(block.page_lpns):
            if lpn is None:
                continue
            retention = block.page_retention_months[page]
            # Relocated data keeps its retention age: copying a page does not
            # refresh the host's perception of the data, and the paper's cold
            # pages stay cold even if GC moves them.  (Strictly, a re-program
            # resets the physical retention clock; modelling it as retained
            # keeps cold pages cold, which is the conservative choice for
            # read-retry behaviour and matches the paper's per-page aging.)
            operation.relocations.append(first + page)
            operation.destinations.append(self._place(lpn, retention, plane_index))
        plane.erase(victim)
        return operation

    # -- statistics ----------------------------------------------------------------------
    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages
