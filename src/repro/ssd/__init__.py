"""Event-driven multi-queue SSD simulator (MQSim-like).

The paper evaluates PR2/AR2 by extending MQSim so that every simulated block
reproduces the read-retry behaviour of a real characterized block
(Section 7.1).  This subpackage implements the same methodology in Python:

* :mod:`repro.ssd.config` — SSD organization and simulation parameters
  (4 channels x 4 dies x 2 planes, 512-GiB class device by default, plus a
  scaled-down configuration for tests).
* :mod:`repro.ssd.engine` — the discrete-event core (event queue, clock).
* :mod:`repro.ssd.request` — host requests and flash transactions.
* :mod:`repro.ssd.ftl` — the ``Mapper`` protocol the controller drives; the
  ``BlockStore`` both mappers are, whose flat per-device sequences hold every
  block's and page's state, and its ``Plane`` (free pool, append blocks,
  wear-aware open, erase and retire); and the block-mode FTL
  (``mapping="block"``): that store written through one stream, with greedy
  garbage collection.
* :mod:`repro.ssd.gc` — ``GcOperation``, the flash work of one collected or
  retired block, shared by both mappers.
* :mod:`repro.ssd.dftl` — DFTL-class page-mapped FTL (``mapping="page"``):
  the same block store with a cached mapping table, on-flash translation
  pages and watermark-driven GC with real wear dynamics.
* :mod:`repro.ssd.write_buffer` — the controller's write cache.
* :mod:`repro.ssd.flash_backend` — ``ReadBehaviour``, the retry steps one
  read needs, and the description of the per-block device model ("each
  simulated block behaves like a real characterized block").
* :mod:`repro.ssd.retry_grid` — the process-shared
  (condition x page type x corner) retry-step grid serving the read hot
  path: the per-block read-retry profiles derived from the calibrated error
  model, computed row by row as ``SsdSimulator.grid`` queries them once
  per page read.
* :mod:`repro.ssd.scheduler` — per-die transaction scheduling with read
  priority (out-of-order I/O scheduling) and program/erase suspension.
* :mod:`repro.ssd.controller` — the simulator that ties everything together.
* :mod:`repro.ssd.metrics` — response-time and utilization statistics.
"""

from repro.ssd.config import SsdConfig
from repro.ssd.dftl import DftlMapper
from repro.ssd.request import HostRequest, RequestKind
from repro.ssd.metrics import SimulationMetrics
from repro.ssd.controller import SsdSimulator, SimulationResult
from repro.ssd.retry_grid import RetryStepGrid

__all__ = [
    "SsdConfig",
    "DftlMapper",
    "HostRequest",
    "RequestKind",
    "SimulationMetrics",
    "SsdSimulator",
    "SimulationResult",
    "RetryStepGrid",
]
