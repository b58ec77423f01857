"""Threshold-voltage states, read-reference voltages and read-retry tables.

TLC NAND flash stores three bits per cell using eight threshold-voltage
(V_TH) states — the erased state ``E`` and seven programmed states ``P1`` to
``P7`` — separated by seven read-reference voltages ``VREF0 .. VREF6``
(Figure 3(b) of the paper).  A read-retry operation re-reads a page with
*shifted* read-reference voltages taken from a manufacturer-provided table;
the entries of that table approach the optimal read voltages for
progressively larger amounts of retention-induced V_TH shift (Figure 4(a)).

All voltages in this module are expressed in millivolts on an arbitrary but
internally consistent scale: the fresh programmed states are centred
``STATE_SPACING_MV`` apart and the default read-reference voltages sit midway
between adjacent fresh states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.nand.geometry import PageType

#: Number of V_TH states of a TLC cell.
NUM_STATES = 8

#: Number of read-reference voltages (boundaries between adjacent states).
NUM_BOUNDARIES = NUM_STATES - 1

#: Distance between the centres of adjacent fresh programmed states (mV).
STATE_SPACING_MV = 600.0

#: Centre of the erased-state distribution (mV).  The erased state sits well
#: below P1; the gap is wider than between programmed states.
ERASED_STATE_MEAN_MV = -800.0

#: V_REF shift applied by each successive read-retry table entry (mV).
RETRY_STEP_MV = 30.0

#: Per-boundary weighting of a uniform V_REF shift.  Retention loss moves the
#: programmed states together but the erased state barely drifts, so the
#: optimal read voltage of boundary 0 (E vs P1) moves by only about 68% of
#: the programmed-state shift (the sigma-weighted combination of the two
#: adjacent states' drifts).  Manufacturer retry tables encode per-boundary
#: voltages; this weight vector captures that the boundary-0 entry tracks the
#: smaller drift of the erased state.
BOUNDARY_SHIFT_WEIGHTS = (0.68, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Default read voltage of boundary 0 (E vs P1), in mV.  Because the erased
#: distribution is much wider than the programmed ones, the error-minimizing
#: voltage sits closer to P1 than the arithmetic midpoint; manufacturers trim
#: the default V_REF0 accordingly.
BOUNDARY0_DEFAULT_MV = 98.0

#: Number of entries in the manufacturer read-retry table.  Enough to cover
#: the V_TH shift of the worst characterized condition (2K P/E cycles and a
#: one-year retention age) with margin.
DEFAULT_RETRY_TABLE_ENTRIES = 40


def fresh_state_means_mv() -> Tuple[float, ...]:
    """Centres of the eight V_TH states right after programming (mV)."""
    means = [ERASED_STATE_MEAN_MV]
    means.extend(STATE_SPACING_MV * level for level in range(1, NUM_STATES))
    return tuple(means)


def default_read_references_mv() -> Tuple[float, ...]:
    """Default (fresh-chip) read-reference voltages ``VREF0..VREF6`` (mV).

    Boundaries between programmed states sit midway between the adjacent
    state means; boundary 0 uses the trimmed :data:`BOUNDARY0_DEFAULT_MV`
    because the erased distribution is much wider than P1's.
    """
    means = fresh_state_means_mv()
    references = [(means[i] + means[i + 1]) / 2.0 for i in range(NUM_BOUNDARIES)]
    references[0] = BOUNDARY0_DEFAULT_MV
    return tuple(references)


#: Gray coding of TLC states to (LSB, CSB, MSB) bits.  The code is chosen so
#: that the LSB page is resolved by sensing boundaries {0, 4}, the CSB page by
#: boundaries {1, 3, 5} and the MSB page by boundaries {2, 6}, matching the
#: 2-3-2 sensing split of footnote 14 of the paper.
TLC_GRAY_CODE: Tuple[Tuple[int, int, int], ...] = (
    (1, 1, 1),  # E
    (0, 1, 1),  # P1
    (0, 0, 1),  # P2
    (0, 0, 0),  # P3
    (0, 1, 0),  # P4
    (1, 1, 0),  # P5
    (1, 0, 0),  # P6
    (1, 0, 1),  # P7
)


def bit_of_state(state: int, page_type: PageType) -> int:
    """Return the bit stored for ``page_type`` by a cell in ``state``."""
    if not 0 <= state < NUM_STATES:
        raise ValueError(f"state out of range: {state}")
    lsb, csb, msb = TLC_GRAY_CODE[state]
    if page_type is PageType.LSB:
        return lsb
    if page_type is PageType.CSB:
        return csb
    return msb


def boundaries_for(page_type: PageType) -> Tuple[int, ...]:
    """Boundary indices whose sensing resolves the given page type."""
    return page_type.sensed_boundaries


@dataclass(frozen=True)
class ReadReferenceSet:
    """A complete set of seven read-reference voltages.

    ``shift_mv`` records the uniform shift relative to the chip default; the
    read-retry table produces reference sets with increasingly negative
    shifts because retention loss moves every V_TH distribution downwards
    (Figure 4(a)).
    """

    voltages_mv: Tuple[float, ...]
    shift_mv: float = 0.0

    def __post_init__(self) -> None:
        if len(self.voltages_mv) != NUM_BOUNDARIES:
            raise ValueError(
                f"expected {NUM_BOUNDARIES} read-reference voltages, got "
                f"{len(self.voltages_mv)}")

    @classmethod
    def default(cls) -> "ReadReferenceSet":
        """The chip-default read-reference voltages (no shift)."""
        return cls(default_read_references_mv(), shift_mv=0.0)

    def shifted(self, shift_mv: float) -> "ReadReferenceSet":
        """Return a copy shifted by ``shift_mv`` (weighted per boundary).

        The shift is applied through :data:`BOUNDARY_SHIFT_WEIGHTS`, so the
        erased-state boundary moves less than the programmed-state
        boundaries, as manufacturer retry tables do.
        """
        return ReadReferenceSet(
            tuple(v + shift_mv * weight
                  for v, weight in zip(self.voltages_mv, BOUNDARY_SHIFT_WEIGHTS)),
            shift_mv=self.shift_mv + shift_mv,
        )

    def voltage_for_boundary(self, boundary: int) -> float:
        if not 0 <= boundary < NUM_BOUNDARIES:
            raise ValueError(f"boundary out of range: {boundary}")
        return self.voltages_mv[boundary]

    def voltages_for(self, page_type: PageType) -> Tuple[float, ...]:
        """Reference voltages actually sensed when reading ``page_type``."""
        return tuple(self.voltages_mv[b] for b in boundaries_for(page_type))


@dataclass(frozen=True)
class ReadRetryTable:
    """Manufacturer-provided sequence of read-retry reference sets.

    Entry ``k`` (0-based) shifts every read-reference voltage by
    ``-(k + 1) * step_mv`` relative to the default read.  A read-retry
    operation walks the table in order until the page decodes without
    uncorrectable errors or the table is exhausted (Section 2.4).
    """

    step_mv: float = RETRY_STEP_MV
    num_entries: int = DEFAULT_RETRY_TABLE_ENTRIES

    def __post_init__(self) -> None:
        if self.step_mv <= 0:
            raise ValueError("step_mv must be positive")
        if self.num_entries <= 0:
            raise ValueError("num_entries must be positive")

    def shift_for_step(self, retry_step: int) -> float:
        """V_REF shift (mV) applied by retry step ``retry_step`` (1-based)."""
        if retry_step < 1:
            raise ValueError("retry steps are numbered from 1")
        if retry_step > self.num_entries:
            raise ValueError(
                f"retry step {retry_step} exceeds table size {self.num_entries}")
        return -retry_step * self.step_mv

    def reference_set_for_step(self, retry_step: int) -> ReadReferenceSet:
        """Full reference set used by retry step ``retry_step`` (1-based)."""
        return ReadReferenceSet.default().shifted(self.shift_for_step(retry_step))

    def steps(self) -> Sequence[int]:
        """All retry-step numbers, in the order they are attempted."""
        return range(1, self.num_entries + 1)

    def closest_step(self, target_shift_mv: float) -> int:
        """The retry step whose shift is closest to ``target_shift_mv``.

        Useful for modelling techniques (such as PSO) that start the retry
        sequence from previously successful reference values.  Of equally
        close steps the lowest wins, a target past either end of the table
        gets that end's step, and a non-finite target gets step 1.
        """
        step_mv, entries = self.step_mv, self.num_entries
        position = -target_shift_mv / step_mv
        if not math.isfinite(target_shift_mv) or position <= 1:
            return 1
        if position >= entries:
            return entries
        # Only the neighbours of -target / step_mv can be closest; min()
        # keeps the first of equal distances, which is the lowest step.
        nearest = math.floor(position)
        candidates = range(max(nearest - 1, 1), min(nearest + 1, entries) + 1)
        return min(candidates, key=lambda step: abs(-step * step_mv - target_shift_mv))
