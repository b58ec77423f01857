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
* every block's P/E-cycle count and last-write timestamp feed the retention
  age of its data, and grown-bad blocks can be retired at run time.

:class:`DftlMapper` is a :class:`~repro.ssd.ftl.BlockStore`, like the block
FTL: the flat per-block and per-page state (OOB LPN, valid bit, retention
age), the flat LPN map, the wear-levelled planes and the closed-form
preconditioning fill are shared, and this module adds only the CMT, the
GTD and its dirty index, the three write streams (host, GC, translation),
the watermark GC, retirement and in-run ageing.  Mapping state is updated
eagerly (the simulator tracks placement and age, not data contents) while
the generated flash operations — translation traffic and
:class:`~repro.ssd.gc.GcOperation` records — are returned to the
controller, which schedules them for die time.  Retention ages stay on the
experiment's month-granular lattice: the aging a block accrues *during* a
simulated run (microseconds to seconds) rounds to zero whole months, so the
retry-step grid keeps serving discrete (P/E, retention) conditions.

Every address this module stores or returns is a packed page index
(:class:`~repro.ssd.ftl.PageAddressing`): the map and the GTD hold them,
and each plane's allocator returns one.  Two indexes keep per-event work
off whole-table scans: the CMT's dirty entries are indexed by translation
page, so persisting one clears just its entries, and the store keeps the
set of planes below their GC trigger, so :meth:`DftlMapper.collect_if_needed`
returns at once while it is empty.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.ssd.config import SsdConfig
from repro.ssd.ftl import GC_STREAM, TRANS_STREAM, BlockStore, check_lpn
from repro.ssd.gc import GcOperation
from repro.ssd.request import TransactionKind

#: Microseconds per retention month (30.44-day average month), used to turn
#: a block's last-write timestamp into whole months of in-run aging.
US_PER_MONTH = 30.44 * 24.0 * 3600.0 * 1e6

#: One translation-page flash operation: ``(TransactionKind.TRANS_READ or
#: TransactionKind.TRANS_PROGRAM, packed page index)``.
TranslationOp = Tuple[TransactionKind, int]
_TRANS_READ = TransactionKind.TRANS_READ
_TRANS_PROGRAM = TransactionKind.TRANS_PROGRAM


class DftlMapper(BlockStore):
    """Demand-paged LPN mapping: CMT + GTD + watermark-driven GC.

    The authoritative LPN-to-PPN table (what the translation pages on flash
    collectively hold) is the store's flat map; the CMT on top of it decides
    *when* translation-page flash traffic happens.  Every public mutator
    returns the :data:`TranslationOp` list its caller must schedule.
    """

    def __init__(self, config: SsdConfig):
        super().__init__(config)
        self._entries_per_page = config.translation_entries_per_page
        #: Global translation directory: tvpn -> packed page index.
        self._gtd: Dict[int, int] = {}
        #: Cached mapping table: lpn -> dirty flag, in LRU order.
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        #: The CMT's dirty entries by translation page: tvpn -> LPNs.
        self._dirty: Dict[int, Set[int]] = defaultdict(set)
        self._next_trans_plane = 0
        # Statistics the controller folds into SimulationMetrics.
        self.cmt_hits = 0
        self.cmt_misses = 0
        self.translation_reads = 0
        self.translation_writes = 0

    @staticmethod
    def _least_worn(free: List[int], pe_cycles: List[int], first: int) -> int:
        """The free block to open: the least worn; among equals, the
        lowest-numbered."""
        return min(free, key=lambda block: (pe_cycles[first + block], block))

    # -- addressing helpers --------------------------------------------------
    def tvpn_of(self, lpn: int) -> int:
        """The translation page (virtual number) holding ``lpn``'s entry."""
        return lpn // self._entries_per_page

    def read_condition_packed(self, packed: int, now_us: float) -> Tuple[int, float]:
        """``(pe_cycles, retention_months)`` of a packed page; the stored
        retention age plus whole months elapsed since the block's last write
        — month-granular, so short runs keep the condition lattice discrete
        for the grid."""
        corner = packed // self._pages_per_block
        elapsed_months = int(max(0.0, now_us - self.last_write_us[corner]) / US_PER_MONTH)
        return self.pe_cycles[corner], self.page_retention[packed] + elapsed_months

    @property
    def cached_entries(self) -> int:
        return len(self._cmt)

    # -- CMT / GTD machinery -------------------------------------------------
    def _write_translation_page(self, tvpn: int, now_us: float) -> List[TranslationOp]:
        """Persist ``tvpn``'s entries: read-modify-write its translation page."""
        ops: List[TranslationOp] = []
        old = self._gtd.get(tvpn)
        if old is not None:
            self.translation_reads += 1
            ops.append((_TRANS_READ, old))
            self._invalidate(old)
        ops.append((_TRANS_PROGRAM, self._program_translation_page(tvpn, now_us)))
        self.translation_writes += 1
        self._mark_tvpn_clean(tvpn)
        return ops

    def _program_translation_page(self, tvpn: int, now_us: float) -> int:
        """Write ``tvpn`` to the next plane's translation stream and point the
        GTD at it; its packed index."""
        plane_index = self._next_trans_plane
        self._next_trans_plane = (plane_index + 1) % len(self.planes)
        destination = self.planes[plane_index].allocate(TRANS_STREAM, tvpn, 0.0, now_us)
        self._gtd[tvpn] = destination
        return destination

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
        packed = self._write(lpn, retention_months, now_us)
        self._cmt[lpn] = True
        self._dirty[lpn // self._entries_per_page].add(lpn)
        return packed, ops

    # -- host-visible operations ---------------------------------------------
    def read_target_packed(self, lpn: int, now_us: float) -> Tuple[int, List[TranslationOp]]:
        """Translate a host read to a packed page; a never-written LPN is
        mapped now as cold data."""
        check_lpn(lpn, self._logical_pages)
        ops = self._ensure_cached(lpn, now_us)
        packed = self._mapping[lpn]
        if packed < 0:
            packed, more = self._place(lpn, self._cold_retention_months, now_us)
            ops.extend(more)
        return packed, ops

    def program(self, lpn: int, now_us: float) -> Tuple[int, List[TranslationOp]]:
        """Map a host write of ``lpn`` to a fresh host-stream page; its packed index."""
        check_lpn(lpn, self._logical_pages)
        return self._place(lpn, 0.0, now_us)

    def trim(self, lpn: int, now_us: float = 0.0) -> List[TranslationOp]:
        """Unmap ``lpn``, invalidating its page and persisting the unmap."""
        check_lpn(lpn, self._logical_pages)
        tvpn = lpn // self._entries_per_page
        if self._cmt.pop(lpn, False):
            self._dirty[tvpn].discard(lpn)
        if self._unmap(lpn) and tvpn in self._gtd:
            return self._write_translation_page(tvpn, now_us)
        return []

    # -- preconditioning -----------------------------------------------------
    def precondition_fill(
        self, pages: int, retention_months: float = 0.0, pe_cycles: int = 0
    ) -> None:
        """Install the experiment's starting state without counting traffic.

        LPNs ``0..pages-1`` are striped across the planes as cold data
        (:meth:`BlockStore.precondition_fill`), the translation pages
        covering them are written and entered in the GTD, and the CMT starts
        cold (demand misses during the run generate the translation traffic
        the experiment measures).
        """
        super().precondition_fill(pages, retention_months, pe_cycles)
        for tvpn in range(-(-pages // self._entries_per_page)):
            self._program_translation_page(tvpn, 0.0)

    # -- garbage collection --------------------------------------------------
    def gc_victim(self, plane_index: int) -> Optional[int]:
        """Greedy victim: the full block with the fewest valid pages, the
        lowest-numbered among equals.

        Blocks with no invalid pages are skipped — relocating a fully valid
        block consumes exactly the space it frees.  A full append block is
        eligible; choosing it simply closes that stream's append point.
        """
        plane = self.planes[plane_index]
        first = plane.first
        pages_per_block = self._pages_per_block
        next_free_page = self.next_free_page
        valid_count = self.valid_count
        victim = None
        fewest = pages_per_block
        for block in sorted(plane.opened):
            corner = first + block
            if next_free_page[corner] >= pages_per_block and valid_count[corner] < fewest:
                victim = block
                fewest = valid_count[corner]
        return victim

    def collect_if_needed(self, now_us: float = 0.0) -> List[GcOperation]:
        """Collect every plane below its trigger watermark up to the stop one."""
        if not self.planes_below_trigger:
            return []
        stop = self.config.gc_stop_free_blocks
        operations: List[GcOperation] = []
        for plane_index, plane in enumerate(self.planes):
            if not plane.needs_gc():
                continue
            self.gc_invocations += 1
            while len(plane.free) < stop:
                victim = self.gc_victim(plane_index)
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
        if not plane.free:
            raise RuntimeError(
                f"plane ({plane.channel},{plane.die},{plane.plane}) has no "
                "free blocks to absorb a retirement relocation"
            )
        plane.retire(block_id)
        return self.collect_block(plane_index, block_id, now_us)

    def collect_block(self, plane_index: int, victim: int, now_us: float) -> GcOperation:
        """Relocate ``victim``'s valid pages within its plane, then erase it."""
        plane = self.planes[plane_index]
        corner = plane.first + victim
        first = corner * self._pages_per_block
        operation = GcOperation(plane_index=plane_index, victim_block=victim, erase_target=first)
        is_translation = self.stream[corner] == TRANS_STREAM
        page_valid = self.page_valid
        touched_tvpns = set()
        for packed in range(first, first + self._pages_per_block):
            if not page_valid[packed]:
                continue
            lpn = self.page_lpn[packed]
            # Relocated data keeps its stored retention age — copying a page
            # does not refresh the host's perception of the data, so cold
            # pages stay cold across GC (same convention as the block FTL).
            retention = self.page_retention[packed]
            if is_translation:
                destination = plane.allocate(TRANS_STREAM, lpn, retention, now_us)
                self._gtd[lpn] = destination
            else:
                destination = plane.allocate(GC_STREAM, lpn, retention, now_us)
                self._mapping[lpn] = destination
                touched_tvpns.add(lpn // self._entries_per_page)
            operation.relocations.append(packed)
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
        """Assert the store's invariants (:meth:`BlockStore.check_consistency`),
        with the GTD's pages counted as valid, and that the GTD and the dirty
        index agree with the OOB state and the CMT; raises on violation."""
        self._check_store(self._mapped_pages + len(self._gtd))
        for tvpn, packed in self._gtd.items():
            if not self.page_valid[packed] or self.page_lpn[packed] != tvpn:
                raise AssertionError(f"GTD entry for translation page {tvpn} is stale")
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
