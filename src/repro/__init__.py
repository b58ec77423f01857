"""repro — reproduction of "Reducing SSD Read Latency by Optimizing Read-Retry".

This package reimplements, in pure Python, the full system stack evaluated in
the ASPLOS 2021 paper by Park et al.:

* :mod:`repro.nand` — behavioural 3D TLC NAND flash model (organization,
  timing parameters, command set, read-retry tables, per-chip state).
* :mod:`repro.errors` — threshold-voltage and raw-bit-error-rate models,
  including the effect of retention loss, program/erase cycling, operating
  temperature, and reduced read-timing parameters.
* :mod:`repro.ecc` — a real BCH codec that shows the simulator's ECC rule
  (a codeword decodes iff its raw bit errors are within a fixed capability)
  is faithful to bounded-distance decoding.
* :mod:`repro.characterization` — the virtual 160-chip characterization
  platform that regenerates the paper's Figures 4(b), 5, 7, 8, 9, 10 and 11
  and builds the Read-timing Parameter Table (RPT).
* :mod:`repro.ssd` — an event-driven, multi-queue SSD simulator (MQSim-like)
  with a page-mapping FTL, garbage collection, out-of-order transaction
  scheduling and program/erase suspension.
* :mod:`repro.core` — the paper's contributions: Pipelined Read-Retry (PR2),
  Adaptive Read-Retry (AR2), their combination (PnAR2), and the evaluated
  baselines (regular read-retry, PSO, and the ideal NoRR).
* :mod:`repro.workloads` — trace format and synthetic generators for the
  twelve MSRC/YCSB workloads of Table 2.
* :mod:`repro.sim` — **the session API**: policy registry, fluent
  :class:`~repro.sim.Simulation` builder, and the parallel
  :class:`~repro.sim.SweepRunner`.
* :mod:`repro.experiments` — the declarative experiment registry: one
  registered harness per table/figure with ``full``/``fast``/``smoke``
  parameter profiles, a content-addressed artifact store, and the
  ``repro-experiment`` CLI (``list`` / ``run`` / ``export`` / ``show``).

Quickstart
----------
Run one simulation cell with the fluent builder — pick policies from the
registry by name, a Table 2 workload, and an operating condition:

>>> from repro.sim import Simulation
>>> run = (Simulation()
...        .policies("Baseline", "PnAR2", "NoRR")
...        .workload("ycsb-c", n=200, seed=7)
...        .condition(pec=1000, months=6)
...        .run())
>>> sorted(run.policies)
['Baseline', 'NoRR', 'PnAR2']
>>> run.normalized()["NoRR"] < 1.0
True

Grids of (workload x condition x policy) cells go through
:class:`repro.sim.SweepRunner`, which fans cells out over a multiprocessing
pool and returns tidy rows:

>>> from repro.sim import SweepRunner  # doctest: +SKIP
>>> sweep = SweepRunner(processes=4).run(
...     policies=("Baseline", "PnAR2", "NoRR"),
...     workloads=("usr_1", "YCSB-C"),
...     conditions=((1000, 6.0), (2000, 12.0)),
...     num_requests=400)  # doctest: +SKIP
>>> print(sweep.table())  # doctest: +SKIP

``python -m repro`` runs a tiny sweep and prints its table, as a smoke test.
"""

from repro.version import __version__

__all__ = [
    "__version__",
    "quick_ssd_comparison",
]


def quick_ssd_comparison(
    num_requests=1000,
    read_ratio=0.9,
    pe_cycles=1000,
    retention_months=6.0,
    seed=0,
):
    """Run a tiny end-to-end comparison of the read-retry policies.

    This convenience helper builds a small SSD, generates a synthetic
    workload through the :class:`repro.sim.Simulation` builder and returns
    the mean response time (in microseconds) of each Figure 14 policy.  It
    is intentionally small so it can be used in documentation examples and
    smoke tests; the full evaluation lives in :mod:`repro.experiments`.

    :param num_requests: number of host requests to simulate.
    :param read_ratio: fraction of requests that are reads.
    :param pe_cycles: program/erase-cycle count applied to every block.
    :param retention_months: retention age of cold data, in months.
    :param seed: seed for the workload generator and the flash backend.
    :return: mapping from policy name to mean response time in microseconds.
    """
    # Imported lazily so that ``import repro`` stays cheap.
    from repro.sim.registry import default_registry
    from repro.sim.session import Simulation
    from repro.ssd.config import SsdConfig
    from repro.workloads.synthetic import WorkloadShape

    config = SsdConfig.scaled(blocks_per_plane=24, pages_per_block=48)
    shape = WorkloadShape(read_ratio=read_ratio, cold_ratio=0.7, mean_interarrival_us=300.0)
    sim = Simulation(config)
    sim.policies(default_registry().names(tag="fig14"))
    sim.synthetic(shape, n=num_requests, seed=seed)
    sim.condition(pec=pe_cycles, months=retention_months)
    run = sim.run()
    return {name: result.mean_response_time_us for name, result in run}
