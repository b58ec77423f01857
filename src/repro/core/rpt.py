"""The Read-timing Parameter Table (RPT) used by AR2.

AR2 needs to know, for the current operating condition of the block being
read, how far tPRE can be reduced without pushing the final retry step's
error count beyond the ECC capability.  The paper proposes that SSD
manufacturers profile each chip offline and ship the result as a small
table indexed by P/E-cycle count and retention age (Section 6.2,
Figure 13); with 36 (PEC, retention) combinations the table costs only about
144 bytes per chip.

This module provides the table data structure and ships the default table
as data, :data:`DEFAULT_RPT_PROFILE`, the way a manufacturer ships the
table it profiled offline with the controller.  No simulation profiles it:
:func:`repro.characterization.rpt_builder.build_rpt` is the profiling step
(Figure 11), run against the calibrated error model, and
``scripts/generate_default_rpt.py`` prints its result in this module's
format (``--check`` exits 1 when the shipped table differs from a fresh
profile).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.errors.condition import OperatingCondition
from repro.nand.timing import ReadTimingParameters

#: Upper edges of the default P/E-cycle bins.  They cover the characterized
#: envelope (up to 2K P/E cycles, Section 4); blocks beyond the last edge are
#: clamped to the last bin, i.e. they use the most conservative profiled
#: reduction.
DEFAULT_PEC_BIN_EDGES = (250, 500, 1000, 1500, 2000)

#: Upper edges of the default retention-age bins, in months (up to the
#: one-year retention requirement of JESD218 the paper profiles against).
DEFAULT_RETENTION_BIN_EDGES_MONTHS = (0.25, 1.0, 2.0, 3.0, 6.0, 9.0, 12.0)

#: The shipped default table: ``(pre_reduction, margin_bits)`` of every
#: retention bin, one row per P/E-cycle bin, as
#: :func:`repro.characterization.rpt_builder.build_rpt` profiles it over the
#: default bin edges and read timing (each bin at its upper edges, 30 degC).
#: Generated by ``scripts/generate_default_rpt.py``; keep it in step with
#: the error model by regenerating it, never by hand.
DEFAULT_RPT_PROFILE = (
    # P/E cycles up to 250
    (
        (0.54, 17.886210177826484),  # retention up to 0.25 months
        (0.47, 37.13295236816614),  # 1 months
        (0.47, 34.29098525809526),  # 2 months
        (0.47, 31.19326438254388),  # 3 months
        (0.47, 27.71470765414385),  # 6 months
        (0.47, 23.851191037425167),  # 9 months
        (0.47, 20.778739593621843),  # 12 months
    ),
    # P/E cycles up to 500
    (
        (0.47, 37.250551426459005),  # retention up to 0.25 months
        (0.47, 33.747424443596444),  # 1 months
        (0.47, 30.795249438981063),  # 2 months
        (0.47, 28.96201502140621),  # 3 months
        (0.47, 23.984781915313725),  # 6 months
        (0.47, 20.257709619011433),  # 9 months
        (0.47, 17.73368399700193),  # 12 months
    ),
    # P/E cycles up to 1000
    (
        (0.47, 33.29133972965612),  # retention up to 0.25 months
        (0.47, 29.938831274285114),  # 1 months
        (0.47, 25.250861365485008),  # 2 months
        (0.47, 23.879327851977408),  # 3 months
        (0.47, 17.45022663090053),  # 6 months
        (0.47, 14.230467329728768),  # 9 months
        (0.4, 27.64307166043953),  # 12 months
    ),
    # P/E cycles up to 1500
    (
        (0.47, 29.5410164132513),  # retention up to 0.25 months
        (0.47, 24.621788750192543),  # 1 months
        (0.47, 20.46653987744024),  # 2 months
        (0.47, 18.33774515796339),  # 3 months
        (0.4, 28.496282353626214),  # 6 months
        (0.4, 26.088398673778638),  # 9 months
        (0.4, 22.07650074740085),  # 12 months
    ),
    # P/E cycles up to 2000
    (
        (0.47, 25.81682372424536),  # retention up to 0.25 months
        (0.47, 20.51784378073715),  # 1 months
        (0.47, 15.883952029927425),  # 2 months
        (0.4, 29.240362603834008),  # 3 months
        (0.4, 24.863571476707687),  # 6 months
        (0.4, 22.13497402074782),  # 9 months
        (0.4, 19.088955596368212),  # 12 months
    ),
)


@dataclass(frozen=True)
class RptEntry:
    """One row of the Read-timing Parameter Table.

    :param pre_reduction: fractional tPRE reduction deemed safe for the bin.
    :param t_pre_us: the resulting absolute tPRE value (what the SET FEATURE
        command installs, mirroring the "tPRE [us]" column of Figure 13).
    :param margin_bits: ECC-capability margin left after the reduction under
        the bin's worst condition (includes the 14-bit safety margin).
    """

    pre_reduction: float
    t_pre_us: float
    margin_bits: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.pre_reduction < 1.0:
            raise ValueError("pre_reduction must be in [0, 1)")
        if self.t_pre_us <= 0:
            raise ValueError("t_pre_us must be positive")


class ReadTimingParameterTable:
    """Lookup table mapping (P/E cycles, retention age) to a reduced tPRE."""

    def __init__(self,
                 entries: Dict[Tuple[int, int], RptEntry],
                 pec_bin_edges: Sequence[int] = DEFAULT_PEC_BIN_EDGES,
                 retention_bin_edges_months: Sequence[float] = DEFAULT_RETENTION_BIN_EDGES_MONTHS,
                 default_timing: ReadTimingParameters = None):
        self._pec_edges = tuple(pec_bin_edges)
        self._retention_edges = tuple(retention_bin_edges_months)
        self._default_timing = default_timing or ReadTimingParameters()
        self._entries = dict(entries)
        expected = (len(self._pec_edges)) * (len(self._retention_edges))
        if len(self._entries) != expected:
            raise ValueError(
                f"expected {expected} entries "
                f"({len(self._pec_edges)} PEC bins x "
                f"{len(self._retention_edges)} retention bins), "
                f"got {len(self._entries)}")
        timing = self._default_timing
        self._identity = (
            self._pec_edges,
            self._retention_edges,
            tuple((key, entry.pre_reduction) for key, entry in self.iter_entries()),
            (timing.t_pre_us, timing.t_eval_us, timing.t_disch_us),
        )

    # -- bin arithmetic -----------------------------------------------------------
    @property
    def pec_bin_edges(self) -> Tuple[int, ...]:
        return self._pec_edges

    @property
    def retention_bin_edges_months(self) -> Tuple[float, ...]:
        return self._retention_edges

    @property
    def default_timing(self) -> ReadTimingParameters:
        """The read timing the table's reductions apply to."""
        return self._default_timing

    def identity(self) -> tuple:
        """Hashable value identity of everything a read takes from the table.

        The bin edges, every bin's ``pre_reduction`` (in bin order) and the
        default timing's three phases, which :meth:`reduced_timing_for`
        reduces.  Two tables with the same identity price every read alike.
        It is nested tuples of numbers, so a checkpoint key can hold it as
        JSON.  The first three parts are all a retry-step grid depends on
        (:func:`repro.ssd.retry_grid.rpt_fingerprint`).
        """
        return self._identity

    def pec_bin(self, pe_cycles: int) -> int:
        """Index of the P/E-cycle bin containing ``pe_cycles``."""
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        index = bisect.bisect_left(self._pec_edges, pe_cycles + 1)
        return min(index, len(self._pec_edges) - 1)

    def retention_bin(self, retention_months: float) -> int:
        """Index of the retention-age bin containing ``retention_months``."""
        if retention_months < 0:
            raise ValueError("retention_months must be non-negative")
        index = bisect.bisect_left(self._retention_edges, retention_months)
        return min(index, len(self._retention_edges) - 1)

    def bin_condition(self, pec_bin: int, retention_bin: int,
                      temperature_c: float = 30.0) -> OperatingCondition:
        """Worst-case operating condition covered by a bin (its upper edges)."""
        return OperatingCondition(
            pe_cycles=self._pec_edges[pec_bin],
            retention_months=self._retention_edges[retention_bin],
            temperature_c=temperature_c)

    # -- lookups ------------------------------------------------------------------
    def entry_for(self, pe_cycles: int, retention_months: float) -> RptEntry:
        """The RPT entry AR2 uses for a block in the given condition."""
        key = (self.pec_bin(pe_cycles), self.retention_bin(retention_months))
        return self._entries[key]

    def entry_for_condition(self, condition: OperatingCondition) -> RptEntry:
        return self.entry_for(condition.pe_cycles, condition.retention_months)

    def reduced_timing_for(self, pe_cycles: int,
                           retention_months: float) -> ReadTimingParameters:
        """Reduced read-timing parameters for a block (what SET FEATURE gets)."""
        entry = self.entry_for(pe_cycles, retention_months)
        return self._default_timing.with_reduction(pre=entry.pre_reduction)

    def iter_entries(self) -> Iterable[Tuple[Tuple[int, int], RptEntry]]:
        return iter(sorted(self._entries.items()))

    # -- presentation ---------------------------------------------------------------
    def as_rows(self):
        """Render the table as Figure 13-style rows (for reports and tests)."""
        rows = []
        for (pec_bin, ret_bin), entry in self.iter_entries():
            rows.append({
                "pec_upper": self._pec_edges[pec_bin],
                "retention_upper_months": self._retention_edges[ret_bin],
                "t_pre_us": round(entry.t_pre_us, 2),
                "pre_reduction_pct": round(entry.pre_reduction * 100.0, 1),
                "margin_bits": round(entry.margin_bits, 1),
            })
        return rows

    def storage_bytes(self, bytes_per_entry: int = 4) -> int:
        """Approximate SRAM/DRAM footprint of the table (Section 6.2)."""
        return len(self._entries) * bytes_per_entry

    # -- construction ----------------------------------------------------------------
    _default_cache = None

    @classmethod
    def default(cls) -> "ReadTimingParameterTable":
        """The shipped RPT, :data:`DEFAULT_RPT_PROFILE` (cached).

        The table the offline profiling step
        (:func:`repro.characterization.rpt_builder.build_rpt`) gives over
        the default bin edges and read timing, read from data: building it
        imports nothing and profiles nothing.  Each entry's ``t_pre_us`` is
        computed as the profiler computes it, so the table equals a fresh
        ``build_rpt()`` entry for entry (``tests/test_characterization.py``).
        """
        if cls._default_cache is None:
            timing = ReadTimingParameters()
            entries = {}
            for pec_bin, row in enumerate(DEFAULT_RPT_PROFILE):
                for retention_bin, (reduction, margin) in enumerate(row):
                    entries[(pec_bin, retention_bin)] = RptEntry(
                        pre_reduction=reduction,
                        t_pre_us=timing.t_pre_us * (1.0 - reduction),
                        margin_bits=margin)
            cls._default_cache = cls(entries, default_timing=timing)
        return cls._default_cache

    @classmethod
    def conservative(cls, pre_reduction: float = 0.40,
                     default_timing: ReadTimingParameters = None
                     ) -> "ReadTimingParameterTable":
        """A flat table applying the same reduction everywhere.

        The paper's characterization shows 40% is safe under every tested
        condition (Figure 11); this constructor is useful for tests and for
        ablating the benefit of condition-awareness.
        """
        default_timing = default_timing or ReadTimingParameters()
        entries = {}
        for pec_bin in range(len(DEFAULT_PEC_BIN_EDGES)):
            for ret_bin in range(len(DEFAULT_RETENTION_BIN_EDGES_MONTHS)):
                entries[(pec_bin, ret_bin)] = RptEntry(
                    pre_reduction=pre_reduction,
                    t_pre_us=default_timing.t_pre_us * (1.0 - pre_reduction))
        return cls(entries, default_timing=default_timing)
