"""Precomputed retry-step grid backing the simulator's read hot path.

Every simulated read needs a :class:`~repro.ssd.flash_backend.ReadBehaviour`
for its (operating condition, page type, per-block variation corner).  The
seed implementation walked the retry table twice per novel key and memoized
into an unbounded dict that silently stopped caching at 500k entries.  This
module replaces that with a *grid*:

* the variation corners of an SSD are a fixed, enumerable lattice (one
  corner per physical block, derived deterministically from the config
  seed), so for any operating condition the behaviours of **all** corners
  and page types can be computed in one vectorized pass through
  :class:`repro.errors.batch.BatchErrorModel` — bit-for-bit equal to the
  scalar walks.  The pass costs what the reads need: like a read, each
  corner's walk stops at the first retry step the ECC decodes (rounded up
  to the walk's chunk of steps), so a fresh (P/E, 0) slab evaluates step 0
  alone and an aged one never reaches the end of the table;
* conditions are discovered at run time (the preconditioned condition, the
  fresh-write condition, and P/E levels GC creates), so the grid fills
  per-condition *slabs* lazily: the first few queries of a novel condition
  are served by exact scalar walks, and once a condition proves hot its
  whole slab is built vectorized;
* slabs and the scalar memo are bounded with **explicit** eviction policies
  (LRU slabs, FIFO scalar memo — no silent stop-caching cliff).

Grids are shared process-wide per (geometry, seed, temperature, RPT): every
simulator of one configuration and RPT holds the same grid
(:func:`shared_grid`), so repeated runs — benchmark rounds, per-policy runs
of one sweep cell, suite experiments — pay the precompute once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.rpt import ReadTimingParameterTable
from repro.errors.batch import BatchErrorModel, VariationArrays
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.errors.variation import ProcessVariation
from repro.nand.geometry import PAGE_TYPE_ORDER, PageType
from repro.nand.voltage import ReadRetryTable
from repro.ssd.config import SsdConfig
from repro.ssd.flash_backend import ReadBehaviour

#: A slab: behaviours of every (page type, corner) under one condition,
#: indexed ``slab[page_type][corner]`` by the page type's position in
#: ``PAGE_TYPE_ORDER``.
Slab = Tuple[List[ReadBehaviour], ...]


def rpt_fingerprint(rpt: ReadTimingParameterTable) -> tuple:
    """Hashable value identity of an RPT's behaviour-relevant content.

    Two RPTs with the same fingerprint produce identical read behaviours
    (only the per-bin ``pre_reduction`` enters the error model), so the
    fingerprint — not object identity — keys the process-wide grid cache.
    Object identity would go stale across pickling boundaries: sweep
    workers unpickle a fresh RPT object per payload.
    """
    return (
        rpt.pec_bin_edges,
        rpt.retention_bin_edges_months,
        tuple((key, entry.pre_reduction) for key, entry in rpt.iter_entries()),
    )


class RetryStepGrid:
    """Lazily filled (condition x page type x corner) behaviour lattice.

    :param promote_threshold: scalar queries a novel condition absorbs
        before its full slab is built vectorized.  ``None`` scales the
        threshold with the corner count so small configs build immediately
        and huge configs only vectorize conditions that are actually hot.
    :param max_conditions: bound on cached slabs (LRU eviction).
    :param max_scalar_entries: bound on the scalar memo (FIFO eviction) —
        the explicit replacement of the seed's silent 500k stop-caching cap.
    """

    def __init__(
        self,
        config: SsdConfig,
        rpt: ReadTimingParameterTable = None,
        error_model: CodewordErrorModel = None,
        retry_table: ReadRetryTable = None,
        promote_threshold: Optional[int] = None,
        max_conditions: int = 64,
        max_scalar_entries: int = 262_144,
    ):
        self.config = config
        self.error_model = error_model or CodewordErrorModel()
        self.retry_table = retry_table or ReadRetryTable()
        self._rpt = rpt
        self._batch = BatchErrorModel(self.error_model)
        self._variation = ProcessVariation(seed=config.seed)
        self._variation_arrays: Optional[VariationArrays] = None
        self.max_conditions = max_conditions
        self.max_scalar_entries = max_scalar_entries
        if promote_threshold is None:
            promote_threshold = max(1, self.corner_count // 160)
        self.promote_threshold = promote_threshold

        #: condition key -> slab (recency-ordered for LRU eviction).
        self._slabs: "OrderedDict[tuple, Slab]" = OrderedDict()
        #: scalar queries seen per not-yet-promoted condition key.
        self._pending_queries: Dict[tuple, int] = {}
        #: (condition key, page type index, corner) -> ReadBehaviour
        self._scalar_memo: "OrderedDict[tuple, ReadBehaviour]" = OrderedDict()
        #: (steps, reduced, fallback) -> the one shared ReadBehaviour object.
        self._interned: Dict[tuple, ReadBehaviour] = {}
        self.slab_builds = 0

    # -- geometry -------------------------------------------------------------
    @property
    def rpt(self) -> ReadTimingParameterTable:
        if self._rpt is None:
            self._rpt = ReadTimingParameterTable.default()
        return self._rpt

    @property
    def chips(self) -> int:
        return self.config.channels * self.config.dies_per_channel

    @property
    def blocks_per_chip(self) -> int:
        return self.config.planes_per_die * self.config.blocks_per_plane

    @property
    def corner_count(self) -> int:
        """One variation corner per physical block of the SSD."""
        return self.chips * self.blocks_per_chip

    def corner_index(self, chip: int, block: int) -> int:
        return chip * self.blocks_per_chip + block

    def variation_arrays(self) -> VariationArrays:
        """Per-corner variation multipliers, enumerated in corner order.

        The sample population is a pure function of (seed, chips, blocks),
        so the enumerated arrays are cached process-wide and shared by
        every grid over the same silicon.
        """
        if self._variation_arrays is None:
            key = (self.config.seed, self.chips, self.blocks_per_chip)
            arrays = _VARIATION_ARRAYS_CACHE.get(key)
            if arrays is None:
                samples = [
                    self._variation.block_sample(chip=chip, block=block)
                    for chip in range(self.chips)
                    for block in range(self.blocks_per_chip)
                ]
                arrays = VariationArrays.from_samples(samples)
                while len(_VARIATION_ARRAYS_CACHE) >= _MAX_SHARED_GRIDS:
                    _VARIATION_ARRAYS_CACHE.popitem(last=False)
                _VARIATION_ARRAYS_CACHE[key] = arrays
            self._variation_arrays = arrays
        return self._variation_arrays

    # -- statistics -----------------------------------------------------------
    @property
    def cached_conditions(self) -> int:
        return len(self._slabs)

    @property
    def scalar_memo_size(self) -> int:
        return len(self._scalar_memo)

    @property
    def cache_size(self) -> int:
        """Total cached behaviours (slab entries plus scalar memo)."""
        per_slab = self.corner_count * len(PageType)
        return len(self._slabs) * per_slab + len(self._scalar_memo)

    # -- main query -----------------------------------------------------------
    def behaviour_at(
        self,
        page_type: int,
        pe_cycles: int,
        retention_months: float,
        corner: int,
    ) -> Tuple[ReadBehaviour, bool]:
        """Behaviour of one read; the flag reports a grid (slab) hit.

        ``page_type`` indexes ``PAGE_TYPE_ORDER`` and ``corner`` is the
        block's variation corner (:meth:`corner_index`); the read path
        derives both from a packed page index.  Slab lookups and scalar
        fallbacks are computed from the *exact* per-block variation sample,
        so results are independent of query order (the seed's rounded-key
        memo could alias two nearby corners depending on which was read
        first).  The simulator calls this once per page read, when the die
        starts the read, so the query order, and with it promotion and
        eviction, follows service order.
        """
        key = (pe_cycles, retention_months)
        slab = self._slabs.get(key)
        if slab is not None:
            # LRU touch: long GC-heavy runs create a stream of (pe, 0.0)
            # conditions, and without recency the hot preconditioned slab
            # would be the first one evicted.
            self._slabs.move_to_end(key)
            return slab[page_type][corner], True

        queries = self._pending_queries.get(key, 0) + 1
        if queries >= self.promote_threshold:
            slab = self._build_slab(key)
            return slab[page_type][corner], True
        self._pending_queries[key] = queries

        memo_key = (key, page_type, corner)
        behaviour = self._scalar_memo.get(memo_key)
        if behaviour is None:
            behaviour = self._scalar_behaviour(key, page_type, corner)
            if len(self._scalar_memo) >= self.max_scalar_entries:
                self._scalar_memo.popitem(last=False)
            self._scalar_memo[memo_key] = behaviour
        return behaviour, False

    # -- slab construction ----------------------------------------------------
    def prefill(self, conditions: Iterable[Tuple[int, float]]) -> None:
        """Vectorize the slabs of known-upcoming conditions eagerly.

        The simulator calls this at precondition time with the aged-data
        condition, which serves nearly every read of a run; the fresh-write
        condition and GC-created P/E levels fill lazily.
        """
        for pe_cycles, retention_months in conditions:
            key = (int(pe_cycles), float(retention_months))
            if key not in self._slabs:
                self._build_slab(key)

    def _build_slab(self, key: tuple) -> Slab:
        pe_cycles, retention_months = key
        condition = OperatingCondition(
            pe_cycles=pe_cycles,
            retention_months=retention_months,
            temperature_c=self.config.temperature_c,
        )
        entry = self.rpt.entry_for(pe_cycles, retention_months)
        lattice = self._batch.read_behaviour_lattice(
            condition,
            self.variation_arrays(),
            pre_reduction=entry.pre_reduction,
            table=self.retry_table,
        )
        slab = tuple(self._intern_batch(lattice[page_type]) for page_type in PAGE_TYPE_ORDER)
        while len(self._slabs) >= self.max_conditions:
            self._slabs.popitem(last=False)
        self._slabs[key] = slab
        self._pending_queries.pop(key, None)
        self.slab_builds += 1
        return slab

    def _intern_batch(self, batch) -> List[ReadBehaviour]:
        """One page type's lattice pass as shared :class:`ReadBehaviour` objects."""
        interned = self._interned
        behaviours = []
        signatures = zip(
            batch.retry_steps.tolist(),
            batch.retry_steps_reduced.tolist(),
            batch.reduced_timing_fallback.tolist(),
        )
        for signature in signatures:
            behaviour = interned.get(signature)
            if behaviour is None:
                behaviour = ReadBehaviour(
                    retry_steps=signature[0],
                    retry_steps_reduced=signature[1],
                    reduced_timing_fallback=signature[2],
                )
                interned[signature] = behaviour
            behaviours.append(behaviour)
        return behaviours

    # -- scalar fallback ------------------------------------------------------
    def _scalar_behaviour(self, key: tuple, page_type: int, corner: int) -> ReadBehaviour:
        """One exact scalar evaluation (cold conditions, pre-promotion)."""
        pe_cycles, retention_months = key
        condition = OperatingCondition(
            pe_cycles=pe_cycles,
            retention_months=retention_months,
            temperature_c=self.config.temperature_c,
        )
        chip, block = divmod(corner, self.blocks_per_chip)
        variation = self._variation.block_sample(chip=chip, block=block)
        page_kind = PAGE_TYPE_ORDER[page_type]
        default_walk = self.error_model.walk_retry_table(
            condition,
            page_kind,
            table=self.retry_table,
            variation=variation,
        )
        if default_walk.retry_steps is None:
            default_steps = self.retry_table.num_entries
        else:
            default_steps = default_walk.retry_steps

        entry = self.rpt.entry_for(pe_cycles, retention_months)
        if entry.pre_reduction > 0.0 and default_steps > 0:
            reduction = TimingReduction(pre=entry.pre_reduction)
            reduced_walk = self.error_model.walk_retry_table(
                condition,
                page_kind,
                table=self.retry_table,
                variation=variation,
                retry_timing_reduction=reduction,
            )
            if reduced_walk.retry_steps is None:
                signature = (default_steps, default_steps, True)
            else:
                signature = (default_steps, reduced_walk.retry_steps, False)
        else:
            signature = (default_steps, default_steps, False)
        behaviour = self._interned.get(signature)
        if behaviour is None:
            behaviour = ReadBehaviour(*signature)
            self._interned[signature] = behaviour
        return behaviour


# -- process-wide sharing -----------------------------------------------------
_SHARED_GRIDS: "OrderedDict[tuple, RetryStepGrid]" = OrderedDict()
_VARIATION_ARRAYS_CACHE: "OrderedDict[tuple, VariationArrays]" = OrderedDict()
_MAX_SHARED_GRIDS = 16


def _config_key(config: SsdConfig) -> tuple:
    return (
        config.channels,
        config.dies_per_channel,
        config.planes_per_die,
        config.blocks_per_plane,
        config.temperature_c,
        config.seed,
    )


def shared_grid(config: SsdConfig, rpt: ReadTimingParameterTable) -> RetryStepGrid:
    """The process-wide grid for a (geometry, seed, temperature, RPT).

    Every simulator holds the grid of its configuration and RPT
    (``SsdSimulator.grid``), so per-policy runs, benchmark rounds and suite
    experiments reuse each other's slabs.  A grid over a custom error model
    or retry table is built directly (``RetryStepGrid(config,
    error_model=..., retry_table=...)``) and never shared.
    """
    key = (_config_key(config), rpt_fingerprint(rpt))
    grid = _SHARED_GRIDS.get(key)
    if grid is None:
        grid = RetryStepGrid(config, rpt=rpt)
        while len(_SHARED_GRIDS) >= _MAX_SHARED_GRIDS:
            _SHARED_GRIDS.popitem(last=False)
        _SHARED_GRIDS[key] = grid
    else:
        _SHARED_GRIDS.move_to_end(key)
    return grid


def clear_shared_grids() -> None:
    """Drop all process-wide grids (test isolation hook)."""
    _SHARED_GRIDS.clear()
    _VARIATION_ARRAYS_CACHE.clear()
