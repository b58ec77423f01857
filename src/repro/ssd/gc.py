"""Garbage-collection work records, shared by both mappers.

When a plane runs short of free blocks, its mapper picks a victim block
(greedy: the block that frees the most space), relocates the victim's
still-valid pages and erases it; a grown bad block leaves service the same
way.  Each such block yields one :class:`GcOperation`.  The mapping update
itself is performed eagerly — the simulator does not track data contents,
only timing — and the controller schedules the recorded flash work as
internal transactions that compete with host traffic for die time, which is
how GC pressure shows up in response times.

Every page in a record is a packed page index
(:class:`~repro.ssd.ftl.PageAddressing`), the one address the controller
enqueues flash work by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.ssd.dftl import TranslationOp


@dataclass
class GcOperation:
    """The flash work generated by collecting (or retiring) one block."""

    plane_index: int
    victim_block: int
    #: Packed index of the victim's first page, which its erase addresses.
    erase_target: int
    #: Packed indices of the valid pages read out of the victim, and of
    #: where each landed.
    relocations: List[int] = field(default_factory=list)
    destinations: List[int] = field(default_factory=list)
    #: Batched translation-page updates for the relocated data (page mode:
    #: one read-modify-write per distinct translation page; block mode keeps
    #: its table in DRAM and leaves this empty).
    translation_ops: List[TranslationOp] = field(default_factory=list)

    @property
    def relocated_pages(self) -> int:
        return len(self.relocations)
