"""Per-block read-retry behaviour of the simulated flash.

The paper extends MQSim so that "each simulated block operates exactly the
same as one of the real blocks that we test", via a per-block lookup table of
the number of read-retry steps at a given P/E-cycle count and retention age
(Section 7.1).  This repository plays that role against the calibrated error
model:

* every simulated block gets a process-variation sample (as if it were a
  randomly drawn real block),
* the number of retry steps a read needs — with the default timing
  parameters and with the AR2-reduced ones — is served from a
  :class:`repro.ssd.retry_grid.RetryStepGrid`, which walks each
  (condition, page type, variation corner) row exactly the first time a
  read needs it and caches it in its condition's slab,
* AR2's rare fallback case (a page that no longer decodes with reduced
  timings) surfaces naturally: the reduced-timing walk may need one more
  step than the default-timing walk, or may fail entirely, in which case the
  controller re-runs the read-retry operation with default timings
  (Section 6.2, "Overhead").

This module holds the grid's answer for one read, :class:`ReadBehaviour`.
The simulator holds one grid, ``SsdSimulator.grid``, and queries it
(:meth:`~repro.ssd.retry_grid.RetryStepGrid.behaviour_at`) once per page
read with the page type and corner its packed page index encodes, counting
how each query was served straight into
:class:`repro.ssd.metrics.SimulationMetrics`: ``grid_hits`` from a slab,
``scalar_fallbacks`` before the condition's promotion to one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReadBehaviour:
    """What the flash does for one read."""

    retry_steps: int
    #: Retry steps if the retry operation runs with the RPT-reduced tPRE.
    retry_steps_reduced: int
    #: True when the reduced-timing retry operation fails and AR2 must fall
    #: back to a full default-timing retry operation (never observed in the
    #: paper's characterization, but the mechanism handles it).
    reduced_timing_fallback: bool

    def degraded(self, extra_steps: int) -> "ReadBehaviour":
        """This behaviour with ``extra_steps`` more retry steps on both
        timing variants — how fault injection (read-disturb storms,
        degraded dies) worsens a read without touching the error model."""
        if extra_steps < 0:
            raise ValueError("extra_steps must be non-negative")
        if extra_steps == 0:
            return self
        return ReadBehaviour(
            retry_steps=self.retry_steps + extra_steps,
            retry_steps_reduced=self.retry_steps_reduced + extra_steps,
            reduced_timing_fallback=self.reduced_timing_fallback,
        )
