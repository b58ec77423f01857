"""Tests for the Read-timing Parameter Table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.rpt import ReadTimingParameterTable, RptEntry
from repro.errors.condition import OperatingCondition
from repro.nand.timing import ReadTimingParameters

SRC = Path(__file__).resolve().parents[1] / "src"

#: A PnAR2 device, a two-cell sweep and a two-worker fleet on ``tiny()``;
#: prints the ``repro.characterization`` modules they imported.
RUNS_WITHOUT_PROFILING = """
import sys
from repro.sim.fleet import FleetRunner, FleetSpec
from repro.sim.spec import Condition, WorkloadSpec, preconditioned_simulator
from repro.sim.sweep import SweepRunner
from repro.ssd.config import SsdConfig

config = SsdConfig.tiny()
aged = Condition(1000, 6.0)
workload = WorkloadSpec(name="usr_1", num_requests=60, seed=1)
preconditioned_simulator(config, "PnAR2", aged).run(workload.build_requests(config))
SweepRunner(config=config).run(
    policies=("Baseline", "PnAR2"), workloads=(workload,), conditions=((0, 0.0), (1000, 6.0)))
fleet = FleetSpec(devices=4, config=config, condition=aged)
FleetRunner(fleet, processes=2, shard_devices=2).run(workload, policies="PnAR2")
print(sorted(name for name in sys.modules if name.startswith("repro.characterization")))
"""


class TestRptEntry:
    def test_validation(self):
        with pytest.raises(ValueError):
            RptEntry(pre_reduction=1.0, t_pre_us=10.0)
        with pytest.raises(ValueError):
            RptEntry(pre_reduction=0.4, t_pre_us=0.0)


class TestConservativeTable:
    def test_flat_reduction(self):
        table = ReadTimingParameterTable.conservative(pre_reduction=0.40)
        for _, entry in table.iter_entries():
            assert entry.pre_reduction == pytest.approx(0.40)
            assert entry.t_pre_us == pytest.approx(14.4)

    def test_reduced_timing_lookup(self):
        table = ReadTimingParameterTable.conservative(pre_reduction=0.40)
        reduced = table.reduced_timing_for(1000, 6.0)
        assert reduced.t_pre_us == pytest.approx(14.4)
        assert reduced.t_eval_us == pytest.approx(5.0)


class TestBinning:
    @pytest.fixture(scope="class")
    def table(self):
        return ReadTimingParameterTable.conservative()

    def test_pec_bins_monotonic(self, table):
        bins = [table.pec_bin(pec) for pec in (0, 250, 251, 999, 1500, 5000)]
        assert bins == sorted(bins)
        assert table.pec_bin(0) == 0
        assert table.pec_bin(10 ** 6) == len(table.pec_bin_edges) - 1

    def test_retention_bins_monotonic(self, table):
        bins = [table.retention_bin(months)
                for months in (0.0, 0.25, 0.3, 3.0, 11.9, 12.0, 50.0)]
        assert bins == sorted(bins)
        assert table.retention_bin(0.0) == 0
        assert table.retention_bin(100.0) == len(table.retention_bin_edges_months) - 1

    def test_negative_inputs_rejected(self, table):
        with pytest.raises(ValueError):
            table.pec_bin(-1)
        with pytest.raises(ValueError):
            table.retention_bin(-0.1)

    def test_bin_condition_uses_upper_edges(self, table):
        condition = table.bin_condition(0, 0)
        assert condition.pe_cycles == table.pec_bin_edges[0]
        assert condition.retention_months == table.retention_bin_edges_months[0]


class TestDefaultTable:
    def test_default_is_cached(self):
        assert ReadTimingParameterTable.default() is ReadTimingParameterTable.default()

    def test_runs_never_import_the_profiler(self):
        """The default table is shipped data: no run profiles it."""
        completed = subprocess.run(
            [sys.executable, "-c", RUNS_WITHOUT_PROFILING],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120, check=True)
        assert completed.stdout.splitlines()[-1] == "[]"

    def test_entries_cover_all_bins(self, default_rpt):
        expected = (len(default_rpt.pec_bin_edges)
                    * len(default_rpt.retention_bin_edges_months))
        assert len(list(default_rpt.iter_entries())) == expected

    def test_reductions_decrease_with_aging(self, default_rpt):
        # A worn, long-retention block cannot be read as aggressively as a
        # fresh one.
        fresh = default_rpt.entry_for(100, 0.1)
        aged = default_rpt.entry_for(2000, 12.0)
        assert fresh.pre_reduction >= aged.pre_reduction
        assert aged.pre_reduction >= 0.40 - 1e-9

    def test_entry_for_condition(self, default_rpt):
        condition = OperatingCondition(1000, 6.0, 30.0)
        assert (default_rpt.entry_for_condition(condition)
                == default_rpt.entry_for(1000, 6.0))

    def test_storage_footprint_is_small(self, default_rpt):
        # Section 6.2 estimates ~144 bytes for 36 combinations; our table has
        # a few more bins but stays well under a kilobyte.
        assert default_rpt.storage_bytes() <= 1024

    def test_as_rows_render(self, default_rpt):
        rows = default_rpt.as_rows()
        assert len(rows) == len(list(default_rpt.iter_entries()))
        assert {"pec_upper", "retention_upper_months", "t_pre_us",
                "pre_reduction_pct", "margin_bits"} <= set(rows[0])


class TestValidation:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            ReadTimingParameterTable({(0, 0): RptEntry(0.4, 14.4)})


class TestIdentity:
    def test_equal_content_gives_equal_identity(self, default_rpt):
        rebuilt = ReadTimingParameterTable(
            dict(default_rpt.iter_entries()),
            default_timing=ReadTimingParameters())
        assert rebuilt.identity() == default_rpt.identity()
        assert hash(rebuilt.identity()) == hash(default_rpt.identity())

    def test_default_timing_and_reductions_are_part_of_it(self):
        flat = ReadTimingParameterTable.conservative(0.40)
        assert flat.identity() != ReadTimingParameterTable.conservative(0.47).identity()
        slower = ReadTimingParameterTable.conservative(
            0.40, default_timing=ReadTimingParameters(t_pre_us=30.0))
        assert slower.identity() != flat.identity()
        assert slower.identity()[:3] == flat.identity()[:3]
