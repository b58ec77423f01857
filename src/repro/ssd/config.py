"""SSD organization and simulation parameters.

The defaults follow the evaluated SSD of Section 7.1: 4 channels, 4 dies per
channel, 2 planes per die, 1,888 blocks per plane, 576 16-KiB pages per
block (a 512-GiB class device), a 72-bit/1-KiB ECC engine with a 20 us decode
latency, and a 16 us page transfer time.  Because a full-capacity device
would need tens of millions of mapping entries, experiments normally use a
proportionally scaled-down geometry (:meth:`SsdConfig.scaled`) — what matters
for the read-retry study is the per-die behaviour and the relative load, not
the absolute capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.nand.timing import TimingParameters


@dataclass(frozen=True)
class SsdConfig:
    """Static configuration of a simulated SSD."""

    channels: int = 4
    dies_per_channel: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 1888
    pages_per_block: int = 576
    page_size_kib: int = 16

    #: NAND and controller timing parameters (Table 1).
    timing: TimingParameters = field(default_factory=TimingParameters)

    #: Fraction of physical capacity hidden from the host (over-provisioning).
    overprovisioning: float = 0.07

    #: Number of 16-KiB entries in the controller's write buffer.
    write_buffer_pages: int = 256

    #: Garbage collection starts when a plane's free blocks drop below this.
    gc_free_block_threshold: int = 4

    #: Address-mapping scheme.  ``"block"`` (the default) is the original
    #: flat in-DRAM page table: no translation traffic, behaviour bitwise
    #: identical to the pre-DFTL simulator.  ``"page"`` enables the
    #: DFTL-class demand-paged mapping (:mod:`repro.ssd.dftl`): a cached
    #: mapping table backed by translation pages on flash, watermark-driven
    #: garbage collection and wear-created P/E-cycle diversity.
    mapping: str = "block"

    #: Cached-mapping-table capacity in LPN entries (``mapping="page"``).
    cmt_capacity_entries: int = 4096

    #: LPN-to-PPN entries per translation page (``mapping="page"``).
    translation_entries_per_page: int = 512

    #: ``mapping="page"`` garbage collection, once triggered (free blocks
    #: below ``gc_free_block_threshold``), keeps collecting victims until a
    #: plane's free pool recovers to this stop watermark.
    gc_stop_free_blocks: int = 6

    #: Whether the controller prioritizes reads over writes at each die
    #: (out-of-order I/O scheduling, [36, 86]).
    read_priority: bool = True

    #: Whether an ongoing program/erase is suspended when a read arrives
    #: (program/erase suspension, [50, 91]).
    suspension: bool = True

    #: Ambient temperature the SSD operates at.
    temperature_c: float = 30.0

    #: Seed of the per-block process variation of the retry grid.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("channels", "dies_per_channel", "planes_per_die",
                     "blocks_per_plane", "pages_per_block", "page_size_kib",
                     "write_buffer_pages"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.overprovisioning < 0.5:
            raise ValueError("overprovisioning must be in [0, 0.5)")
        if self.gc_free_block_threshold < 2:
            raise ValueError("gc_free_block_threshold must be at least 2")
        if self.mapping not in ("block", "page"):
            raise ValueError('mapping must be "block" or "page"')
        for name in ("cmt_capacity_entries", "translation_entries_per_page"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gc_stop_free_blocks < self.gc_free_block_threshold:
            raise ValueError(
                "gc_stop_free_blocks must be at least gc_free_block_threshold")

    # -- derived sizes ------------------------------------------------------------
    # cached_property works on a frozen dataclass (it writes to __dict__,
    # bypassing the frozen __setattr__), and every field below derives from
    # immutable fields — the FTL's bounds checks and the simulator's LPN
    # wrapping hit these on every page, so they must not recompute.
    @cached_property
    def num_dies(self) -> int:
        return self.channels * self.dies_per_channel

    @cached_property
    def num_planes(self) -> int:
        return self.num_dies * self.planes_per_die

    @cached_property
    def physical_pages(self) -> int:
        return self.num_planes * self.blocks_per_plane * self.pages_per_block

    @cached_property
    def logical_pages(self) -> int:
        """Host-visible pages after over-provisioning."""
        return int(self.physical_pages * (1.0 - self.overprovisioning))

    @property
    def capacity_gib(self) -> float:
        return self.logical_pages * self.page_size_kib / (1024.0 * 1024.0)

    @property
    def physical_capacity_gib(self) -> float:
        return self.physical_pages * self.page_size_kib / (1024.0 * 1024.0)

    # -- convenience constructors ---------------------------------------------------
    @classmethod
    def paper(cls, **overrides) -> "SsdConfig":
        """The full-size configuration of Section 7.1 (about 512 GiB)."""
        return cls(**overrides)

    @classmethod
    def scaled(cls, blocks_per_plane: int = 40, pages_per_block: int = 64,
               **overrides) -> "SsdConfig":
        """A proportionally scaled-down SSD for experiments and tests.

        The channel/die/plane organization (and therefore all parallelism
        and scheduling behaviour) is identical to the paper's device; only
        the per-plane block count and block size shrink so that the mapping
        tables stay small and full-trace simulations finish quickly.
        """
        return cls(blocks_per_plane=blocks_per_plane,
                   pages_per_block=pages_per_block, **overrides)

    @classmethod
    def tiny(cls, **overrides) -> "SsdConfig":
        """A minimal configuration for unit tests."""
        defaults = dict(channels=2, dies_per_channel=2, planes_per_die=1,
                        blocks_per_plane=16, pages_per_block=24,
                        write_buffer_pages=32)
        defaults.update(overrides)
        return cls(**defaults)

    def with_timing(self, timing: TimingParameters) -> "SsdConfig":
        return replace(self, timing=timing)

    # -- manifest round-trip --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able representation (inverse of :meth:`from_dict`).

        Used by run manifests and to ship configs to sweep worker processes,
        so the encoding must be lossless for every field.
        """
        return {
            "channels": self.channels,
            "dies_per_channel": self.dies_per_channel,
            "planes_per_die": self.planes_per_die,
            "blocks_per_plane": self.blocks_per_plane,
            "pages_per_block": self.pages_per_block,
            "page_size_kib": self.page_size_kib,
            "timing": self.timing.to_dict(),
            "overprovisioning": self.overprovisioning,
            "write_buffer_pages": self.write_buffer_pages,
            "gc_free_block_threshold": self.gc_free_block_threshold,
            "mapping": self.mapping,
            "cmt_capacity_entries": self.cmt_capacity_entries,
            "translation_entries_per_page": self.translation_entries_per_page,
            "gc_stop_free_blocks": self.gc_stop_free_blocks,
            "read_priority": self.read_priority,
            "suspension": self.suspension,
            "temperature_c": self.temperature_c,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SsdConfig":
        payload = dict(payload)
        timing = payload.pop("timing", None)
        if isinstance(timing, dict):
            timing = TimingParameters.from_dict(timing)
        if timing is not None:
            payload["timing"] = timing
        return cls(**payload)
