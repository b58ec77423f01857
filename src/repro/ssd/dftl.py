"""DFTL-class page-mapped flash translation layer with live GC/wear dynamics.

The block-mapping FTL (:mod:`repro.ssd.ftl`) keeps its whole page table in
controller DRAM and never ages a block at run time, which is exactly the
statically preconditioned world the paper evaluates in.  This module models
what a production device does instead, following the DFTL design:

* the full LPN-to-PPN table lives on flash in *translation pages*; a
  **cached mapping table** (CMT) of configurable capacity holds the hot
  entries with LRU replacement;
* a **global translation directory** (GTD) locates each translation page;
  a CMT miss reads one translation page, evicting a dirty entry writes one
  back (read-modify-write), and both are surfaced as
  :data:`TranslationOp` pairs the controller injects as real flash
  traffic on the same dies as host I/O;
* a **garbage collector** with its own append point per plane reclaims
  space greedily (victim = fewest valid pages), batching the translation
  updates of relocated data one translation page at a time, driven by
  trigger/stop free-block watermarks;
* every block carries **OOB state** — a valid bitmap, the written LPN per
  page, a P/E-cycle count and a last-write timestamp that feeds the
  retention age of its data — and free-block allocation is wear-leveled.

Like the block-mapped FTL, :class:`DftlMapper` implements the
:class:`~repro.ssd.ftl.Mapper` protocol the controller drives.  Mapping
state is updated eagerly (the simulator tracks placement and age, not data
contents) while the generated flash operations — translation traffic and
:class:`~repro.ssd.gc.GcOperation` records — are returned to the
controller, which schedules them for die time.  Retention ages stay on the
experiment's month-granular lattice: the aging a block accrues *during* a
simulated run (microseconds to seconds) rounds to zero whole months, so the
retry-step grid keeps serving discrete (P/E, retention) conditions.

Every address this module stores or returns is a packed page index
(:class:`~repro.ssd.ftl.PageAddressing`): the map and the GTD hold them,
each plane's allocator returns one (the plane's ``base`` plus its block and
page offset), and invalidation finds a page's block in the corner-ordered
block list at ``packed // pages_per_block``; no method takes any other
form of page address.  Two indexes keep per-event work off whole-table
scans: the CMT's dirty entries are indexed by translation page, so
persisting one clears just its entries, and the mapper keeps the set of
planes below their GC trigger, so :meth:`DftlMapper.collect_if_needed`
returns at once while it is empty.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ssd.config import SsdConfig
from repro.ssd.ftl import check_lpn
from repro.ssd.gc import GcOperation
from repro.ssd.request import TransactionKind

#: Append-point streams.  Each plane keeps one active block per stream so
#: host writes, GC relocations and translation pages never interleave
#: inside a block (translation blocks must be GC-able as a unit).
HOST_STREAM = "host"
GC_STREAM = "gc"
TRANS_STREAM = "trans"

#: Microseconds per retention month (30.44-day average month), used to turn
#: a block's last-write timestamp into whole months of in-run aging.
US_PER_MONTH = 30.44 * 24.0 * 3600.0 * 1e6

#: One translation-page flash operation: ``(TransactionKind.TRANS_READ or
#: TransactionKind.TRANS_PROGRAM, packed page index)``.
TranslationOp = Tuple[TransactionKind, int]
_TRANS_READ = TransactionKind.TRANS_READ
_TRANS_PROGRAM = TransactionKind.TRANS_PROGRAM


@dataclass
class DftlBlock:
    """Per-block OOB state: valid bitmap, stored LPNs, wear and write age."""

    block_id: int
    pe_cycles: int = 0
    next_free_page: int = 0
    valid_count: int = 0
    #: Which append stream owns the block (None while free).
    stream: Optional[str] = None
    #: Timestamp of the block's most recent program, feeding retention age.
    last_write_us: float = 0.0
    #: OOB per page: the LPN (or translation-page number) written there.
    page_lpns: List[Optional[int]] = field(default_factory=list)
    #: OOB valid bitmap (a page stays recorded in ``page_lpns`` after it is
    #: invalidated; only the bitmap flips, as on a real device).
    page_valid: List[bool] = field(default_factory=list)
    #: Retention age (months) the data in each page carried when written.
    page_retention_months: List[float] = field(default_factory=list)

    def initialize(self, pages_per_block: int) -> None:
        self.next_free_page = 0
        self.valid_count = 0
        self.stream = None
        self.last_write_us = 0.0
        self.page_lpns = [None] * pages_per_block
        self.page_valid = [False] * pages_per_block
        self.page_retention_months = [0.0] * pages_per_block

    @property
    def is_full(self) -> bool:
        return self.next_free_page >= len(self.page_lpns)

    @property
    def invalid_count(self) -> int:
        return self.next_free_page - self.valid_count


class DftlPlane:
    """Free-block pool, per-stream append points and OOB state of one plane.

    ``below_trigger`` is the mapper's set of planes below the GC trigger
    (:attr:`DftlMapper.planes_below_trigger`); every change to the plane's
    free-block list (opening an append block, an erase, a retirement)
    re-tests the trigger and keeps the plane's index there in step.
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
        #: Packed index of the plane's first page; its pages follow block
        #: by block (:class:`PageAddressing`).
        self.base = plane_index * config.blocks_per_plane * config.pages_per_block
        self.blocks: List[DftlBlock] = []
        for block_id in range(config.blocks_per_plane):
            block = DftlBlock(block_id=block_id)
            block.initialize(config.pages_per_block)
            self.blocks.append(block)
        self._free_blocks: List[int] = list(range(config.blocks_per_plane))
        self._active: Dict[str, Optional[int]] = {
            HOST_STREAM: None,
            GC_STREAM: None,
            TRANS_STREAM: None,
        }
        #: Grown-bad blocks: permanently out of service, never re-enter the
        #: free pool and are never opened as append blocks again.
        self._retired: set = set()
        self._free_blocks_changed()

    # -- free-block pool -----------------------------------------------------
    @property
    def free_block_count(self) -> int:
        """Closed free blocks (open append blocks are not counted)."""
        return len(self._free_blocks)

    def needs_gc(self) -> bool:
        return len(self._free_blocks) < self.config.gc_free_block_threshold

    def gc_satisfied(self) -> bool:
        return len(self._free_blocks) >= self.config.gc_stop_free_blocks

    def _free_blocks_changed(self) -> None:
        """Re-test the GC trigger after the free-block list changed."""
        if self.needs_gc():
            self._below_trigger.add(self._index)
        else:
            self._below_trigger.discard(self._index)

    def _open_active_block(self, stream: str) -> int:
        if not self._free_blocks:
            raise RuntimeError(
                f"plane ({self.channel},{self.die},{self.plane}) ran out of "
                "free blocks; garbage collection fell behind"
            )
        # Wear leveling: open the free block with the lowest P/E count.
        self._free_blocks.sort(key=lambda block_id: (self.blocks[block_id].pe_cycles, block_id))
        block_id = self._free_blocks.pop(0)
        self._free_blocks_changed()
        self.blocks[block_id].stream = stream
        self._active[stream] = block_id
        return block_id

    # -- page allocation -----------------------------------------------------
    def allocate(self, stream: str, lpn: int, retention_months: float, now_us: float) -> int:
        """Program the next free page of ``stream``'s append block; its packed index."""
        active = self._active[stream]
        # ``is_full``, inlined: one allocation per page written.
        if active is None or self.blocks[active].next_free_page >= self._pages_per_block:
            active = self._open_active_block(stream)
        block = self.blocks[active]
        page = block.next_free_page
        block.page_lpns[page] = lpn
        block.page_valid[page] = True
        block.page_retention_months[page] = retention_months
        block.next_free_page += 1
        block.valid_count += 1
        block.last_write_us = now_us
        return self.base + active * self._pages_per_block + page

    def erase(self, block_id: int) -> None:
        """Erase a block and return it to the free pool (unless retired)."""
        block = self.blocks[block_id]
        block.pe_cycles += 1
        block.initialize(self.config.pages_per_block)
        for stream, active in self._active.items():
            if active == block_id:
                self._active[stream] = None
        if block_id not in self._free_blocks and block_id not in self._retired:
            self._free_blocks.append(block_id)
            self._free_blocks_changed()

    def retire(self, block_id: int) -> None:
        """Take a block out of service permanently (grown bad block).

        The block leaves the free pool and any append point that was open
        on it; a later :meth:`erase` will not return it.  Relocating the
        valid data it still holds is the mapper's job
        (:meth:`DftlMapper.retire_block`).
        """
        if block_id in self._retired:
            raise ValueError(f"block {block_id} is already retired")
        self._retired.add(block_id)
        if block_id in self._free_blocks:
            self._free_blocks.remove(block_id)
            self._free_blocks_changed()
        for stream, active in self._active.items():
            if active == block_id:
                self._active[stream] = None

    def is_retired(self, block_id: int) -> bool:
        return block_id in self._retired

    # -- GC victim selection -------------------------------------------------
    def gc_victim(self) -> Optional[int]:
        """Greedy victim: the full block with the fewest valid pages.

        Blocks with no invalid pages are skipped — relocating a fully valid
        block consumes exactly the space it frees.  A full append block is
        eligible; choosing it simply closes that stream's append point.
        """
        best: Optional[int] = None
        best_key: Tuple[int, int] = (0, 0)
        for block in self.blocks:
            if not block.is_full or block.invalid_count <= 0:
                continue
            key = (block.valid_count, block.block_id)
            if best is None or key < best_key:
                best = block.block_id
                best_key = key
        return best

    def set_pe_cycles(self, pe_cycles: int) -> None:
        for block in self.blocks:
            block.pe_cycles = pe_cycles


class DftlMapper:
    """Demand-paged LPN mapping: CMT + GTD + watermark-driven GC.

    The authoritative LPN-to-PPN table (what the translation pages on flash
    collectively hold) is kept in ``_mapping``; the CMT on top of it decides
    *when* translation-page flash traffic happens.  Every public mutator
    returns the :data:`TranslationOp` list its caller must schedule.
    """

    def __init__(self, config: SsdConfig):
        self.config = config
        #: Indices of the planes whose free pool is below the GC trigger;
        #: each plane keeps its own in step (:class:`DftlPlane`).
        self.planes_below_trigger: Set[int] = set()
        self.planes: List[DftlPlane] = []
        for channel in range(config.channels):
            for die in range(config.dies_per_channel):
                for plane in range(config.planes_per_die):
                    self.planes.append(
                        DftlPlane(
                            config, len(self.planes), channel, die, plane, self.planes_below_trigger
                        )
                    )
        #: Every block, indexed by its corner ``packed // pages_per_block``.
        self._blocks = [block for plane in self.planes for block in plane.blocks]
        self._pages_per_block = config.pages_per_block
        self._entries_per_page = config.translation_entries_per_page
        #: Authoritative mapping: lpn -> packed page index.
        self._mapping: Dict[int, int] = {}
        #: Global translation directory: tvpn -> packed page index.
        self._gtd: Dict[int, int] = {}
        #: Cached mapping table: lpn -> dirty flag, in LRU order.
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        #: The CMT's dirty entries by translation page: tvpn -> LPNs.
        self._dirty: Dict[int, Set[int]] = defaultdict(set)
        self._next_plane = 0
        self._next_trans_plane = 0
        #: Preconditioned retention age of never-written LPNs a read maps.
        self._cold_retention_months = 0.0
        # Statistics the controller folds into SimulationMetrics.
        self.cmt_hits = 0
        self.cmt_misses = 0
        self.translation_reads = 0
        self.translation_writes = 0
        self.gc_invocations = 0

    # -- addressing helpers --------------------------------------------------
    def tvpn_of(self, lpn: int) -> int:
        """The translation page (virtual number) holding ``lpn``'s entry."""
        return lpn // self._entries_per_page

    def read_condition_packed(self, packed: int, now_us: float) -> Tuple[int, float]:
        """``(pe_cycles, retention_months)`` of a packed page; the stored
        retention age plus whole months elapsed since the block's last write
        — month-granular, so short runs keep the condition lattice discrete
        for the grid."""
        block = self._blocks[packed // self._pages_per_block]
        elapsed_months = int(max(0.0, now_us - block.last_write_us) / US_PER_MONTH)
        retention = block.page_retention_months[packed % self._pages_per_block]
        return block.pe_cycles, retention + elapsed_months

    def is_mapped(self, lpn: int) -> bool:
        check_lpn(lpn, self.config.logical_pages)
        return lpn in self._mapping

    @property
    def mapped_pages(self) -> int:
        return len(self._mapping)

    @property
    def cached_entries(self) -> int:
        return len(self._cmt)

    def _invalidate(self, packed: int) -> None:
        """Clear the valid bit of the page at packed index ``packed``."""
        block = self._blocks[packed // self._pages_per_block]
        page = packed % self._pages_per_block
        if block.page_valid[page]:
            block.page_valid[page] = False
            block.valid_count -= 1

    # -- CMT / GTD machinery -------------------------------------------------
    def _write_translation_page(self, tvpn: int, now_us: float) -> List[TranslationOp]:
        """Persist ``tvpn``'s entries: read-modify-write its translation page."""
        ops: List[TranslationOp] = []
        old = self._gtd.get(tvpn)
        if old is not None:
            self.translation_reads += 1
            ops.append((_TRANS_READ, old))
            self._invalidate(old)
        plane_index = self._next_trans_plane
        self._next_trans_plane = (plane_index + 1) % len(self.planes)
        destination = self.planes[plane_index].allocate(TRANS_STREAM, tvpn, 0.0, now_us)
        self._gtd[tvpn] = destination
        self.translation_writes += 1
        ops.append((_TRANS_PROGRAM, destination))
        self._mark_tvpn_clean(tvpn)
        return ops

    def _mark_tvpn_clean(self, tvpn: int) -> None:
        """Batch update: a freshly written translation page persists every
        cached entry it covers, not just the one that triggered it.  Only
        flags flip, so the CMT's LRU order stays as it is."""
        lpns = self._dirty.pop(tvpn, None)
        if lpns:
            cmt = self._cmt
            for lpn in lpns:
                cmt[lpn] = False

    def _ensure_cached(self, lpn: int, now_us: float) -> List[TranslationOp]:
        """Bring ``lpn``'s mapping entry into the CMT (LRU, demand-paged)."""
        cmt = self._cmt
        if lpn in cmt:
            self.cmt_hits += 1
            cmt.move_to_end(lpn)
            return []
        self.cmt_misses += 1
        ops: List[TranslationOp] = []
        while len(cmt) >= self.config.cmt_capacity_entries:
            victim_lpn, dirty = cmt.popitem(last=False)
            if dirty:
                victim_tvpn = victim_lpn // self._entries_per_page
                self._dirty[victim_tvpn].discard(victim_lpn)
                ops.extend(self._write_translation_page(victim_tvpn, now_us))
        entry = self._gtd.get(lpn // self._entries_per_page)
        if entry is not None:
            # The translation page exists on flash; fetch it.  An absent
            # directory entry means the region was never persisted, which
            # the directory itself answers without flash traffic.
            self.translation_reads += 1
            ops.append((_TRANS_READ, entry))
        cmt[lpn] = False
        return ops

    def _place(
        self, lpn: int, retention_months: float, now_us: float
    ) -> Tuple[int, List[TranslationOp]]:
        """Map ``lpn`` to a newly allocated host-stream page (LPN checked by
        the caller); its packed index and the translation traffic."""
        ops = self._ensure_cached(lpn, now_us)
        old = self._mapping.get(lpn)
        if old is not None:
            self._invalidate(old)
        plane_index = self._next_plane
        self._next_plane = (plane_index + 1) % len(self.planes)
        packed = self.planes[plane_index].allocate(HOST_STREAM, lpn, retention_months, now_us)
        self._mapping[lpn] = packed
        self._cmt[lpn] = True
        self._dirty[lpn // self._entries_per_page].add(lpn)
        return packed, ops

    # -- host-visible operations ---------------------------------------------
    def read_target_packed(self, lpn: int, now_us: float) -> Tuple[int, List[TranslationOp]]:
        """Translate a host read to a packed page; a never-written LPN is
        mapped now as cold data."""
        check_lpn(lpn, self.config.logical_pages)
        ops = self._ensure_cached(lpn, now_us)
        packed = self._mapping.get(lpn)
        if packed is None:
            packed, more = self._place(lpn, self._cold_retention_months, now_us)
            ops.extend(more)
        return packed, ops

    def program(self, lpn: int, now_us: float) -> Tuple[int, List[TranslationOp]]:
        """Map a host write of ``lpn`` to a fresh host-stream page; its packed index."""
        check_lpn(lpn, self.config.logical_pages)
        return self._place(lpn, 0.0, now_us)

    def trim(self, lpn: int, now_us: float = 0.0) -> List[TranslationOp]:
        """Unmap ``lpn``, invalidating its page and persisting the unmap."""
        check_lpn(lpn, self.config.logical_pages)
        packed = self._mapping.pop(lpn, None)
        tvpn = lpn // self._entries_per_page
        if self._cmt.pop(lpn, False):
            self._dirty[tvpn].discard(lpn)
        if packed is None:
            return []
        self._invalidate(packed)
        if tvpn in self._gtd:
            return self._write_translation_page(tvpn, now_us)
        return []

    # -- preconditioning -----------------------------------------------------
    def precondition_fill(
        self, pages: int, retention_months: float = 0.0, pe_cycles: int = 0
    ) -> None:
        """Install the experiment's starting state without counting traffic.

        LPNs ``0..pages-1`` are striped across the planes as cold data, the
        translation pages covering them are materialized into the GTD, every
        block receives the preconditioned P/E count, and the CMT starts cold
        (demand misses during the run generate the translation traffic the
        experiment measures).
        """
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        if pages > self.config.logical_pages:
            raise ValueError("cannot precondition beyond the logical space")
        self._cold_retention_months = retention_months
        for lpn in range(pages):
            plane_index = self._next_plane
            self._next_plane = (self._next_plane + 1) % len(self.planes)
            self._mapping[lpn] = self.planes[plane_index].allocate(
                HOST_STREAM, lpn, retention_months, 0.0
            )
        if pages > 0:
            for tvpn in range(self.tvpn_of(pages - 1) + 1):
                plane_index = self._next_trans_plane
                self._next_trans_plane = (self._next_trans_plane + 1) % len(self.planes)
                self._gtd[tvpn] = self.planes[plane_index].allocate(TRANS_STREAM, tvpn, 0.0, 0.0)
        self.set_uniform_pe_cycles(pe_cycles)

    def set_uniform_pe_cycles(self, pe_cycles: int) -> None:
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        for plane in self.planes:
            plane.set_pe_cycles(pe_cycles)

    # -- garbage collection --------------------------------------------------
    def collect_if_needed(self, now_us: float = 0.0) -> List[GcOperation]:
        """Collect every plane below its trigger watermark up to the stop one."""
        if not self.planes_below_trigger:
            return []
        operations: List[GcOperation] = []
        for plane_index, plane in enumerate(self.planes):
            if not plane.needs_gc():
                continue
            self.gc_invocations += 1
            while not plane.gc_satisfied():
                victim = plane.gc_victim()
                if victim is None:
                    break
                operations.append(self.collect_block(plane_index, victim, now_us))
        return operations

    def retire_block(self, plane_index: int, block_id: int, now_us: float = 0.0) -> GcOperation:
        """Retire a grown-bad block, relocating any valid data first.

        The block is taken out of service *before* the relocation so no
        relocated page (or freshly opened append block) can land back in
        it; the resulting :class:`GcOperation` carries the flash work
        (reads, programs, translation updates, final erase) the controller
        must schedule for die time.  Fault accounting is the caller's —
        this path leaves ``gc_invocations`` untouched.
        """
        plane = self.planes[plane_index]
        if plane.free_block_count == 0:
            raise RuntimeError(
                f"plane ({plane.channel},{plane.die},{plane.plane}) has no "
                "free blocks to absorb a retirement relocation"
            )
        plane.retire(block_id)
        return self.collect_block(plane_index, block_id, now_us)

    def collect_block(self, plane_index: int, victim: int, now_us: float) -> GcOperation:
        """Relocate ``victim``'s valid pages within its plane, then erase it."""
        plane = self.planes[plane_index]
        block = plane.blocks[victim]
        first = plane.base + victim * self._pages_per_block
        operation = GcOperation(plane_index=plane_index, victim_block=victim, erase_target=first)
        is_translation = block.stream == TRANS_STREAM
        touched_tvpns = set()
        for page, valid in enumerate(block.page_valid):
            if not valid:
                continue
            lpn = block.page_lpns[page]
            # Relocated data keeps its stored retention age — copying a page
            # does not refresh the host's perception of the data, so cold
            # pages stay cold across GC (same convention as the block FTL).
            retention = block.page_retention_months[page]
            if is_translation:
                destination = plane.allocate(TRANS_STREAM, lpn, retention, now_us)
                self._gtd[lpn] = destination
            else:
                destination = plane.allocate(GC_STREAM, lpn, retention, now_us)
                self._mapping[lpn] = destination
                touched_tvpns.add(lpn // self._entries_per_page)
            operation.relocations.append(first + page)
            operation.destinations.append(destination)
        # DFTL batch update: one translation-page read-modify-write per
        # distinct translation page covering the relocated LPNs, instead of
        # one per page; cached entries it covers become clean.
        for tvpn in sorted(touched_tvpns):
            operation.translation_ops.extend(self._write_translation_page(tvpn, now_us))
        plane.erase(victim)
        return operation

    # -- invariants (exercised by the property-based tests) ------------------
    def check_consistency(self) -> None:
        """Assert the mapping, GTD, OOB state and both indexes agree; raises
        on violation."""
        pages_per_block = self._pages_per_block
        for lpn, packed in self._mapping.items():
            block = self._blocks[packed // pages_per_block]
            page = packed % pages_per_block
            if not block.page_valid[page] or block.page_lpns[page] != lpn:
                raise AssertionError(
                    f"mapping for LPN {lpn} points at packed page {packed}, whose OOB disagrees"
                )
        for tvpn, packed in self._gtd.items():
            block = self._blocks[packed // pages_per_block]
            page = packed % pages_per_block
            if not block.page_valid[page] or block.page_lpns[page] != tvpn:
                raise AssertionError(f"GTD entry for translation page {tvpn} is stale")
        expected_valid = len(self._mapping) + len(self._gtd)
        total_valid = sum(block.valid_count for block in self._blocks)
        if total_valid != expected_valid:
            raise AssertionError(
                f"{total_valid} valid pages on flash, but mapping+GTD hold "
                f"{expected_valid} entries"
            )
        for block in self._blocks:
            if block.valid_count != sum(block.page_valid):
                raise AssertionError(
                    f"block {block.block_id} valid_count disagrees with its bitmap"
                )
        dirty = {lpn for lpn, flag in self._cmt.items() if flag}
        indexed = set()
        for tvpn, lpns in self._dirty.items():
            if any(lpn // self._entries_per_page != tvpn for lpn in lpns):
                raise AssertionError(f"dirty index of translation page {tvpn} holds another's LPN")
            indexed |= lpns
        if indexed != dirty:
            raise AssertionError(
                f"dirty index holds {sorted(indexed)}, the CMT's dirty entries are {sorted(dirty)}"
            )
        below = {index for index, plane in enumerate(self.planes) if plane.needs_gc()}
        if self.planes_below_trigger != below:
            raise AssertionError(
                f"planes_below_trigger is {sorted(self.planes_below_trigger)}, "
                f"but planes {sorted(below)} are below the GC trigger"
            )
