"""The retry-grid slabs a simulated device reads, built where it runs.

Every read of a device preconditioned at (P/E, retention) is priced from one
of two :class:`~repro.ssd.retry_grid.RetryStepGrid` slabs: its cold data at
that pair, and data rewritten during the run at (P/E, 0).  The sweep and
fleet runners call :func:`prefill_device_slabs` in two places.  The parent
calls it for every condition before the pool forks, so fork-started workers
inherit the slabs.  Each worker function calls it first thing for its own
condition: after a fork it finds the slabs and does nothing, and it builds
them where the worker started empty (spawn-only platforms build the slabs
in each worker) or after the grid's LRU bound evicted them.
"""

from __future__ import annotations

from repro.core.rpt import ReadTimingParameterTable
from repro.ssd.config import SsdConfig
from repro.ssd.retry_grid import shared_grid


def prefill_device_slabs(
    config: SsdConfig,
    rpt: ReadTimingParameterTable,
    pe_cycles: int,
    retention_months: float,
) -> None:
    """Build, in this process, the slabs a device at (P/E, retention) reads."""
    shared_grid(config, rpt).prefill([(pe_cycles, retention_months), (pe_cycles, 0.0)])
