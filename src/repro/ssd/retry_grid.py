"""Retry-step grid behind the simulator's read hot path.

Every simulated read needs a :class:`~repro.ssd.flash_backend.ReadBehaviour`
for its (operating condition, page type, per-block variation corner): how
many retry steps the read takes with default and with RPT-reduced timings.
A *row* is one such (condition, page type, corner) triple, and the grid
computes each row the first time a read asks for it:

* a :class:`RowWalk` per condition walks one row at a time through the
  retry table in Python floats, with the operations of
  :meth:`repro.errors.batch.BatchErrorModel.read_behaviour_lattice` in the
  same order, so every row equals the lattice's entry bit for bit.  Like a
  read, the walk stops at the first retry step the ECC decodes: a fresh row
  evaluates step 0 alone, an aged one never reaches the end of the table.
  A corner's variation sample (one per physical block, derived
  deterministically from the config seed) is drawn when its block is first
  read, so no whole-device pass runs on the read path;
* conditions are discovered at run time (the preconditioned condition, the
  fresh-write condition, and P/E levels GC creates).  The grid keeps one
  store, an LRU of at most :data:`MAX_CONDITIONS` *slabs*: a slab holds one
  condition's walk and every row of it that reads have asked for.  A novel
  condition gets its slab on its ``promote_threshold``-th query; the
  queries before that walk their row with a walk that is not kept, and
  cache nothing.  Both paths compute a row alike, so the threshold decides
  only how a read is counted (a grid hit or a scalar fallback);
* consecutive reads mostly share a condition, so the grid keeps the slab
  it served last: a read of that condition takes it without a lookup, and
  since it is the newest slab in LRU order, skipping its LRU touch changes
  nothing.  Every slab build (promotion, :meth:`RetryStepGrid.prefill`,
  eviction) forgets it, so recency, eviction and the hit/fallback split are
  exactly those of a lookup per read.

Grids are shared process-wide per (geometry, seed, temperature, RPT): every
simulator of one configuration and RPT holds the same grid
(:func:`shared_grid`), so repeated runs — benchmark rounds, per-policy runs
of one sweep cell, suite experiments — compute each row once.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Tuple

from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.errors.variation import ProcessVariation, VariationSample
from repro.nand.geometry import PAGE_TYPE_ORDER
from repro.nand.voltage import (
    BOUNDARY_SHIFT_WEIGHTS,
    ReadRetryTable,
    default_read_references_mv,
    fresh_state_means_mv,
)
from repro.ssd.config import SsdConfig
from repro.ssd.flash_backend import ReadBehaviour

#: Conditions a grid keeps slabs for; the least recently read one is
#: evicted first.
MAX_CONDITIONS = 64

#: Per page type (by position in ``PAGE_TYPE_ORDER``), each sensed boundary
#: with its V_REF at every column of the retry walk.
SensedVoltages = Tuple[Tuple[Tuple[int, Tuple[float, ...]], ...], ...]

_SQRT2 = math.sqrt(2.0)


def rpt_fingerprint(rpt: ReadTimingParameterTable) -> tuple:
    """Hashable value identity of an RPT's behaviour-relevant content.

    Two RPTs with the same fingerprint produce identical read behaviours
    (only the bin edges and the per-bin ``pre_reduction`` enter the error
    model), so the fingerprint — not object identity — keys the
    process-wide grid cache.  Object identity would go stale across
    pickling boundaries: sweep workers unpickle a fresh RPT object per
    payload.  It is the table's :meth:`~ReadTimingParameterTable.identity`
    without the default timing, which read prices depend on and read
    behaviours do not.
    """
    return rpt.identity()[:3]


@functools.lru_cache(maxsize=16)
def _sensed_voltages(table: ReadRetryTable) -> SensedVoltages:
    """Each page type's sensed boundaries with their V_REF at every walk column.

    Column 0 is the default read and column ``s`` retry step ``s``; each
    voltage is the boundary's default reference plus the column's shift
    times the boundary's weight, as the lattice forms it.
    """
    shifts = [0.0] + [table.shift_for_step(step) for step in table.steps()]
    references = default_read_references_mv()

    def sensed(boundary: int) -> Tuple[int, Tuple[float, ...]]:
        weight = BOUNDARY_SHIFT_WEIGHTS[boundary]
        return boundary, tuple(references[boundary] + shift * weight for shift in shifts)

    return tuple(
        tuple(sensed(boundary) for boundary in page_type.sensed_boundaries)
        for page_type in PAGE_TYPE_ORDER
    )


class RowWalk:
    """One condition's retry walk, evaluated one (page type, corner) row at a time.

    :meth:`row` gives the entry of
    :meth:`~repro.errors.batch.BatchErrorModel.read_behaviour_lattice` for
    one page type and variation sample, bit for bit: it applies the
    lattice's float operations in the lattice's order to Python floats,
    which round like numpy's float64, and calls the same ``math.erfc``.
    The condition-only terms are computed once, here, by the same scalar
    model helpers the lattice calls.

    :param pre_reduction: the RPT's tPRE reduction for the condition; the
        reduced-timing walk runs only when it is positive.
    :param capability: ECC capability override (defaults to the model's).
    """

    __slots__ = (
        "_voltages",
        "_columns",
        "_num_entries",
        "_capability",
        "_cells",
        "_fresh",
        "_erased_fraction",
        "_sigma_erased",
        "_sigma_programmed",
        "_base_shift",
        "_base_multiplier",
        "_temperature_extra",
        "_timing",
    )

    def __init__(
        self,
        model: CodewordErrorModel,
        condition: OperatingCondition,
        pre_reduction: float,
        table: ReadRetryTable = None,
        capability: int = None,
    ):
        table = table or ReadRetryTable()
        vth = model.vth_model
        cal = vth.calibration
        self._voltages = _sensed_voltages(table)
        self._columns = table.num_entries + 1
        self._num_entries = table.num_entries
        self._capability = capability if capability is not None else model.ecc_capability
        self._cells = model.cells_per_state
        self._fresh = fresh_state_means_mv()
        self._erased_fraction = cal.erased_shift_fraction
        self._sigma_erased = cal.sigma_erased_fresh_mv
        self._sigma_programmed = cal.sigma_programmed_fresh_mv
        self._base_shift = vth.retention_shift_mv(condition)
        self._base_multiplier = vth.sigma_multiplier(condition)
        self._temperature_extra = vth.temperature_extra_errors_per_kib(condition)
        #: (severity, phase error sum, temperature fraction, capped extra)
        #: of the reduced-timing extra errors, or ``None`` without one.
        self._timing = None
        if pre_reduction > 0.0:
            timing = model.timing_model
            timing_cal = timing.calibration
            fraction = max(0.0, timing.temperature_amplification(condition) - 1.0)
            if timing_cal.temperature_amplification_at_30c > 0:
                share = fraction / timing_cal.temperature_amplification_at_30c
            else:
                share = 0.0
            self._timing = (
                timing.severity(condition),
                timing.phase_error_sum(TimingReduction(pre=pre_reduction)),
                fraction,
                timing_cal.temperature_extra_error_cap_at_30c * share,
            )

    def row(self, page_type: int, variation: VariationSample) -> Tuple[int, int, bool]:
        """``(retry_steps, retry_steps_reduced, reduced_timing_fallback)`` of one row.

        ``page_type`` indexes ``PAGE_TYPE_ORDER``.  A failed default walk
        charges the whole table; a failed reduced walk falls back to the
        default one.
        """
        # The corner's boundary means and sigmas, as _boundary_parameters
        # forms them: only the states either side of a sensed boundary.
        shift = self._base_shift * variation.shift_multiplier
        multiplier = self._base_multiplier * variation.sigma_multiplier
        sigma_programmed = self._sigma_programmed * multiplier
        fresh = self._fresh
        terms = []
        for boundary, voltages in self._voltages[page_type]:
            if boundary:
                low_mean = fresh[boundary] - shift
                low_sigma = sigma_programmed
            else:
                low_mean = fresh[0] - shift * self._erased_fraction
                low_sigma = self._sigma_erased * multiplier
            terms.append((voltages, low_mean, low_sigma, fresh[boundary + 1] - shift))
        extra = None
        if self._timing is not None:
            severity, phase_sum, fraction, cap = self._timing
            base = phase_sum * (severity * variation.timing_multiplier)
            extra = base + min(base * fraction, cap)

        erfc, sqrt2 = math.erfc, _SQRT2
        capability = self._capability
        cells = self._cells
        temperature_extra = self._temperature_extra
        default = reduced = -1
        for column in range(self._columns):
            errors = 0.0
            for voltages, low_mean, low_sigma, high_mean in terms:
                voltage = voltages[column]
                low = 0.5 * erfc((voltage - low_mean) / low_sigma / sqrt2)
                high = 0.5 * erfc((high_mean - voltage) / sigma_programmed / sqrt2)
                errors = errors + cells * (low + high)
            errors = errors + temperature_extra
            if not column:
                if errors <= capability:
                    return 0, 0, False
                continue
            if default < 0 and errors <= capability:
                default = column
            if extra is None:
                if default >= 0:
                    break
            else:
                # The reduced-timing walk starts at retry step 1.
                if reduced < 0 and errors + extra <= capability:
                    reduced = column
                if default >= 0 and reduced >= 0:
                    break
        steps = default if default >= 0 else self._num_entries
        if extra is None:
            return steps, steps, False
        if reduced >= 0:
            return steps, reduced, False
        return steps, steps, True


class Slab:
    """One condition's walk and the rows reads have asked for.

    ``rows[page_type][corner]`` is indexed by the page type's position in
    ``PAGE_TYPE_ORDER``; ``None`` marks a row no read has asked for yet.
    """

    __slots__ = ("walk", "rows")

    def __init__(self, walk: RowWalk, corners: int):
        self.walk = walk
        self.rows = tuple([None] * corners for _ in PAGE_TYPE_ORDER)


class RetryStepGrid:
    """(condition x page type x corner) read behaviours, computed row by row.

    A novel condition gets its slab on its ``promote_threshold``-th query.
    The threshold scales with the corner count, so a small config keeps a
    slab from the first query and a huge one only for conditions that are
    hot.
    """

    def __init__(
        self,
        config: SsdConfig,
        rpt: ReadTimingParameterTable = None,
        error_model: CodewordErrorModel = None,
        retry_table: ReadRetryTable = None,
    ):
        self.config = config
        self.error_model = error_model or CodewordErrorModel()
        self.retry_table = retry_table or ReadRetryTable()
        self._rpt = rpt
        self._variation = ProcessVariation(seed=config.seed)
        self.promote_threshold = max(1, self.corner_count // 160)

        #: condition key -> slab (recency-ordered for LRU eviction).
        self._slabs: "OrderedDict[tuple, Slab]" = OrderedDict()
        #: The slab ``behaviour_at`` served last and its condition: the
        #: newest in LRU order until :meth:`_build_slab` forgets it.
        self._last_slab: Optional[Slab] = None
        self._last_pe_cycles: Optional[int] = None
        self._last_retention: Optional[float] = None
        #: queries seen per condition key that has no slab yet.
        self._pending_queries: Dict[tuple, int] = {}
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

    # -- statistics -----------------------------------------------------------
    @property
    def cached_conditions(self) -> int:
        return len(self._slabs)

    @property
    def cache_size(self) -> int:
        """Cached behaviours: the slab rows filled so far."""
        return sum(len(row) - row.count(None) for slab in self._slabs.values() for row in slab.rows)

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
        derives both from a packed page index.  Rows are computed from the
        *exact* per-block variation sample, so results are independent of
        query order (the seed's rounded-key memo could alias two nearby
        corners depending on which was read first).  The simulator calls
        this once per page read, when the die starts the read, so the query
        order, and with it promotion and eviction, follows service order.

        Most reads repeat the condition of the slab served last, which is
        the newest in LRU order: such a read takes that slab without a
        lookup, since moving the newest key to the end changes nothing.
        """
        slab = self._last_slab
        if (
            slab is None
            or pe_cycles != self._last_pe_cycles
            or retention_months != self._last_retention
        ):
            key = (pe_cycles, retention_months)
            slab = self._slabs.get(key)
            if slab is None:
                queries = self._pending_queries.get(key, 0) + 1
                if queries < self.promote_threshold:
                    self._pending_queries[key] = queries
                    return self._row(self._walk(key), page_type, corner), False
                slab = self._build_slab(key)
            else:
                # LRU touch: long GC-heavy runs create a stream of (pe, 0.0)
                # conditions, and without recency the hot preconditioned
                # slab would be the first one evicted.
                self._slabs.move_to_end(key)
            self._last_slab = slab
            self._last_pe_cycles = pe_cycles
            self._last_retention = retention_months
        row = slab.rows[page_type]
        behaviour = row[corner]
        if behaviour is None:
            behaviour = row[corner] = self._row(slab.walk, page_type, corner)
        return behaviour, True

    # -- slabs ----------------------------------------------------------------
    def prefill(self, conditions: Iterable[Tuple[int, float]]) -> None:
        """Keep slabs for known-upcoming conditions, so their reads hit at once.

        The simulator calls this at precondition time with the aged-data
        condition, which serves nearly every read of a run.  A slab's rows
        still fill as reads first need them; the fresh-write condition and
        GC-created P/E levels get their slabs by promotion.
        """
        for pe_cycles, retention_months in conditions:
            key = (int(pe_cycles), float(retention_months))
            if key not in self._slabs:
                self._build_slab(key)

    def _build_slab(self, key: tuple) -> Slab:
        """Keep an empty slab for ``key``, evicting the least recent one when full.

        The new slab goes to the end of the LRU order, so the slab
        :meth:`behaviour_at` served last, if still kept, is no longer the
        newest: it is forgotten, and its next read looks it up and moves it.
        """
        self._last_slab = None
        slab = Slab(self._walk(key), self.corner_count)
        while len(self._slabs) >= MAX_CONDITIONS:
            self._slabs.popitem(last=False)
        self._slabs[key] = slab
        self._pending_queries.pop(key, None)
        self.slab_builds += 1
        return slab

    # -- rows -----------------------------------------------------------------
    def _walk(self, key: tuple) -> RowWalk:
        """The retry walk of the condition ``key``."""
        pe_cycles, retention_months = key
        condition = OperatingCondition(
            pe_cycles=pe_cycles,
            retention_months=retention_months,
            temperature_c=self.config.temperature_c,
        )
        entry = self.rpt.entry_for(pe_cycles, retention_months)
        return RowWalk(self.error_model, condition, entry.pre_reduction, self.retry_table)

    def _row(self, walk: RowWalk, page_type: int, corner: int) -> ReadBehaviour:
        """One row, walked exactly; the caller decides whether to cache it."""
        chip, block = divmod(corner, self.blocks_per_chip)
        signature = walk.row(page_type, self._variation.block_sample(chip=chip, block=block))
        behaviour = self._interned.get(signature)
        if behaviour is None:
            behaviour = self._interned[signature] = ReadBehaviour(*signature)
        return behaviour


# -- process-wide sharing -----------------------------------------------------
_SHARED_GRIDS: "OrderedDict[tuple, RetryStepGrid]" = OrderedDict()
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
