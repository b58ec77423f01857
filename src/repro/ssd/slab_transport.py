"""The retry-grid slabs a simulated device reads, kept where it runs.

Every read of a device preconditioned at (P/E, retention) is priced from one
of two :class:`~repro.ssd.retry_grid.RetryStepGrid` slabs: its cold data at
that pair, and data rewritten during the run at (P/E, 0).  A slab's rows
fill as reads first need them, in the process that runs the reads.  The
sweep and fleet runners call :func:`prefill_device_slabs` in two places: the
parent for every condition before the pool forks, and each worker function
first thing for its own condition, which keeps the two slabs where the
worker started without them (spawn-only platforms) or after the grid's LRU
bound evicted them.  Either way the device's reads count as grid hits from
the first.
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
    """Keep, in this process, the slabs a device at (P/E, retention) reads."""
    shared_grid(config, rpt).prefill([(pe_cycles, retention_months), (pe_cycles, 0.0)])
