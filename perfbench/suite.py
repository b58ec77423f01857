"""The benchmark's three workloads, driven through the simulator's public API.

Each workload is built in two steps: the constructor is set-up (configs,
specs, runners), and :meth:`run` is the timed body.  :meth:`outcome` then
checks the simulated outputs from outside and reduces them to a digest, a
conservation verdict and the counters the per-layer report needs.
Simulated arrivals are open-loop at a fixed mean interarrival, below the
device's saturation, and every stream is seeded by the benchmark's seed.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.store import CheckpointStore
from repro.sim.fleet import FleetRunner, FleetSpec
from repro.sim.spec import Condition, WorkloadSpec
from repro.sim.sweep import SweepRunner
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.metrics import SimulationMetrics


def served(metrics: SimulationMetrics) -> int:
    return metrics.host_reads + metrics.host_writes


def digest(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one timed body produced, as checked from outside."""

    #: Simulated host requests completed (device sub-requests for a fleet).
    requests: int
    #: Requests generated == requests completed, per stream or device.
    conserved: bool
    #: Digest of every simulated output the run reports.
    digest: str
    #: Per-layer counters derived from the simulated statistics.
    counters: Dict[str, float] = field(default_factory=dict)


def simulated_counters(results: List[SimulationMetrics]) -> Dict[str, float]:
    """Modelled statistics of a run; identical under any simulator speed-up."""

    def total(name: str) -> int:
        return sum(getattr(metrics, name) for metrics in results)

    grid_lookups = total("grid_hits") + total("scalar_fallbacks")
    cmt_lookups = total("mapping_cache_hits") + total("mapping_cache_misses")
    steps = sum(
        step * count for metrics in results for step, count in metrics.retry_step_counts.items()
    )
    host_programs = total("host_programs")
    internal_programs = total("gc_programs") + total("translation_writes")
    return {
        "controller.host_requests": sum(served(metrics) for metrics in results),
        "scheduler.die_utilization": (
            sum(metrics.die_utilization() for metrics in results) / len(results)
        ),
        "retry.grid_hit_rate": total("grid_hits") / grid_lookups if grid_lookups else 1.0,
        "retry.scalar_fallbacks": total("scalar_fallbacks"),
        "retry.mean_steps": steps / total("pages_read") if total("pages_read") else 0.0,
        "dftl.gc_invocations": total("gc_invocations"),
        "dftl.write_amplification": (
            (host_programs + internal_programs) / host_programs if host_programs else 1.0
        ),
        "dftl.cmt_hit_rate": total("mapping_cache_hits") / cmt_lookups if cmt_lookups else 1.0,
        "dftl.translation_ops": total("translation_reads") + total("translation_writes"),
    }


class AgedReadSweep:
    """A fig14-shaped grid on aged block-mode devices: the paper's own path.

    Read-dominant small random reads (``usr_1``) and scans (``YCSB-E``) at
    two aged conditions under the four retry policies: 16 simulations, each
    with its own block-FTL preconditioning fill.  The sweep's stream cache
    generates each stream once for its two conditions, so host time goes to
    the read-retry hot path, not to generation; no router, no DFTL.
    """

    name = "aged_read_sweep"
    POLICIES = ("Baseline", "PR2", "AR2", "PnAR2")
    CONDITIONS = ((1000, 6.0), (2000, 12.0))
    REQUESTS_PER_STREAM = 2500
    MEAN_INTERARRIVAL_US = 700.0

    def __init__(self, seed: int, serial: bool, devices: int = 0):
        self.key = self.name
        self.config = SsdConfig.scaled()
        self.specs = [
            WorkloadSpec(
                name=workload,
                num_requests=self.REQUESTS_PER_STREAM,
                seed=seed,
                mean_interarrival_us=self.MEAN_INTERARRIVAL_US,
            )
            for workload in ("usr_1", "YCSB-E")
        ]
        self.runner = SweepRunner(config=self.config, processes=1)

    def run(self):
        return self.runner.run(
            policies=self.POLICIES, workloads=self.specs, conditions=self.CONDITIONS
        )

    def outcome(self, sweep) -> Outcome:
        items = []
        results = []
        for key in sorted(sweep.cells):
            for policy in self.POLICIES:
                result = sweep.cells[key][policy]
                items.append([list(key), result.summary()])
                results.append(result.metrics)
        items.append(sweep.rows)
        generated = {spec.label: len(spec.build_requests(self.config)) for spec in self.specs}
        conserved = len(sweep.cells) == len(self.specs) * len(self.CONDITIONS) and all(
            served(result.metrics) == generated[key[0]]
            for key, cell in sweep.cells.items()
            for result in cell.values()
        )
        return Outcome(
            requests=sum(served(metrics) for metrics in results),
            conserved=conserved,
            digest=digest(items),
            counters=simulated_counters(results),
        )

    def close(self) -> None:
        pass


class GcWriteChurn:
    """Write-dominant ``stg_0`` on a small page-mapped (DFTL) device.

    A small cached mapping table and a device sized so that garbage
    collection cycles every block several times: the run goes on until
    write amplification has levelled off.  Writes, GC relocations and
    translation-page traffic share the controller, scheduler and engine
    with the reads, which see the condition diversity GC creates.
    """

    name = "gc_write_churn"
    REQUESTS = 12000
    MEAN_INTERARRIVAL_US = 800.0
    POLICY = "PnAR2"

    def __init__(self, seed: int, serial: bool, devices: int = 0):
        self.key = self.name
        self.config = SsdConfig(
            channels=2,
            dies_per_channel=2,
            planes_per_die=1,
            blocks_per_plane=16,
            pages_per_block=24,
            write_buffer_pages=32,
            mapping="page",
            cmt_capacity_entries=128,
            translation_entries_per_page=64,
            gc_free_block_threshold=3,
            gc_stop_free_blocks=5,
        )
        self.spec = WorkloadSpec(
            name="stg_0",
            num_requests=self.REQUESTS,
            seed=seed,
            mean_interarrival_us=self.MEAN_INTERARRIVAL_US,
            footprint_fraction=0.5,
        )
        self.simulator = None
        self.generated = 0

    def run(self):
        requests = self.spec.build_requests(self.config)
        self.generated = len(requests)
        self.simulator = SsdSimulator(config=self.config, policy=self.POLICY)
        self.simulator.precondition(pe_cycles=1000, retention_months=6.0, fill_fraction=0.6)
        return self.simulator.run(requests)

    def outcome(self, result) -> Outcome:
        metrics = result.metrics
        items = [result.summary(), self.simulator.distinct_read_conditions]
        return Outcome(
            requests=served(metrics),
            conserved=served(metrics) == self.generated == self.REQUESTS,
            digest=digest(items),
            counters=simulated_counters([metrics]),
        )

    def close(self) -> None:
        pass


class FleetFanout:
    """A striped fleet of tiny devices with a few requests each.

    Every device worker regenerates the whole array-level stream and
    filters its own shard out of it with ``StripeRouter``, so host time
    goes to generation and routing and grows with the device count.  The
    run also exercises the worker pool, the shared-memory slab transport,
    per-shard checkpointing into a fresh ``CheckpointStore`` and the
    histogram merge.  Devices are preconditioned half full, so the
    per-device simulation stays cheap and GC-free.
    """

    name = "fleet_fanout"
    SHARD_DEVICES = 16
    REQUESTS_PER_DEVICE = 100
    PROCESSES = 2
    POLICY = "PnAR2"

    def __init__(self, seed: int, serial: bool, devices: int):
        self.devices = devices
        self.key = f"{self.name}@{devices}"
        self.fleet = FleetSpec(
            devices=self.devices,
            config=SsdConfig.tiny(),
            condition=Condition(pe_cycles=1000, retention_months=6.0, fill_fraction=0.5),
        )
        self.workload = WorkloadSpec(
            name="usr_1", num_requests=self.REQUESTS_PER_DEVICE * self.devices, seed=seed
        )
        self._store_dir = tempfile.TemporaryDirectory(prefix="perfbench-store-")
        self.store = CheckpointStore(self._store_dir.name)
        self.runner = FleetRunner(
            self.fleet,
            processes=1 if serial else self.PROCESSES,
            shard_devices=self.SHARD_DEVICES,
            checkpoint=self.store,
        )

    def run(self):
        return self.runner.run(self.workload, policies=self.POLICY)

    def outcome(self, run) -> Outcome:
        result = run.result
        rows = result.device_rows()
        stored = len(self.store.entries())
        shards = len(result.shard_timings)
        checkpoints = run.manifest.get("checkpoints", {})
        items = [result.summary(), rows, checkpoints, stored]

        router = self.fleet.router()
        expected = [0] * self.devices
        stream = self.workload.iter_requests(
            self.fleet.config, footprint_pages=self.fleet.array_logical_pages
        )
        for request in stream:
            for device, _ in router.split(request):
                expected[device] += 1
        completed = [0] * self.devices
        for row in rows:
            completed[row["device"]] += row["host_reads"] + row["host_writes"]
        expected_shards = -(-self.devices // self.SHARD_DEVICES)
        conserved = (
            completed == expected
            and shards == expected_shards
            and stored == checkpoints.get("stored") == expected_shards
        )
        counters = simulated_counters([result.merged])
        counters.update(
            {
                "sim.shards": shards,
                "sim.shard_max_s": max(timing.elapsed_s for timing in result.shard_timings),
                "store.checkpoints_stored": stored,
            }
        )
        return Outcome(
            requests=served(result.merged),
            conserved=conserved,
            digest=digest(items),
            counters=counters,
        )

    def close(self) -> None:
        self._store_dir.cleanup()


WORKLOADS = {cls.name: cls for cls in (AgedReadSweep, GcWriteChurn, FleetFanout)}
