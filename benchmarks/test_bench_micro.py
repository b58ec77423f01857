"""Micro-benchmarks of the performance-critical building blocks.

These are not paper artifacts; they track the cost of the hot paths that the
figure-level benchmarks depend on (error-model evaluation, retry-table walks,
BCH decoding, the event engine and the end-to-end simulator throughput).
"""

import numpy as np
import pytest

from repro.ecc.bch import BchCode
from repro.errors import CodewordErrorModel, OperatingCondition
from repro.experiments.store import CheckpointStore
from repro.errors.batch import BatchErrorModel, VariationArrays
from repro.errors.variation import ProcessVariation
from repro.nand.geometry import PageType
from repro.sim.fleet import FleetRunner, FleetSpec
from repro.sim.spec import Condition
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.engine import EventQueue
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.request import HostRequest, RequestKind
from repro.ssd.retry_grid import RetryStepGrid
from repro.workloads import catalog_workload


@pytest.fixture(scope="module")
def model():
    return CodewordErrorModel()


def test_bench_expected_errors(benchmark, model):
    condition = OperatingCondition(1000, 6.0, 30.0)
    result = benchmark(model.expected_errors, condition, PageType.CSB, -300.0)
    assert result >= 0.0


def test_bench_retry_table_walk(benchmark, model):
    condition = OperatingCondition(2000, 12.0, 30.0)
    outcome = benchmark(model.walk_retry_table, condition, PageType.CSB)
    assert outcome.succeeded


def test_bench_bch_decode_8_errors(benchmark):
    code = BchCode(m=8, t=8)
    rng = np.random.default_rng(0)
    message = rng.integers(0, 2, code.k)
    codeword = code.encode(message)
    corrupted = codeword.copy()
    positions = rng.choice(code.n, size=8, replace=False)
    corrupted[positions] ^= 1

    result = benchmark(code.decode, corrupted)
    assert result.success


def _corner_variation(config):
    """Every block's variation sample of ``config``'s device, in corner order."""
    grid = RetryStepGrid(config)
    variation = ProcessVariation(seed=config.seed)
    return VariationArrays.from_samples(
        variation.block_sample(chip=chip, block=block)
        for chip in range(grid.chips) for block in range(grid.blocks_per_chip))


def test_bench_batch_walk_lattice(benchmark, model):
    """One vectorized behaviour pass over a tiny SSD's full corner lattice."""
    batch = BatchErrorModel(model)
    variation = _corner_variation(SsdConfig.tiny())
    condition = OperatingCondition(1000, 6.0, 30.0)

    lattice = benchmark(batch.read_behaviour_lattice, condition, variation,
                        0.4)
    assert len(lattice) == len(PageType)


def test_bench_batch_walk_lattice_fresh(benchmark, model):
    """The lattice of freshly written data: every walk stops at step 0."""
    batch = BatchErrorModel(model)
    variation = _corner_variation(SsdConfig.tiny())
    condition = OperatingCondition(1000, 0.0, 30.0)

    lattice = benchmark(batch.read_behaviour_lattice, condition, variation,
                        0.4)
    assert all((behaviour.retry_steps == 0).all()
               for behaviour in lattice.values())


def test_bench_block_precondition_fill(benchmark):
    """Closed-form 85% fill of a fresh block-mode FTL at the scaled size."""
    config = SsdConfig.scaled()
    pages = int(config.logical_pages * 0.85)

    def fresh_ftl():
        return (FlashTranslationLayer(config),), {}

    def fill(ftl):
        ftl.precondition_fill(pages, retention_months=6.0, pe_cycles=1000)
        return ftl

    ftl = benchmark.pedantic(fill, setup=fresh_ftl, iterations=1, rounds=20)
    assert ftl.mapped_pages == pages


def test_bench_grid_cold_build(benchmark, bench_rpt):
    """Grid construction plus keeping the first slab, with its condition's walk.

    Rows fill as reads first need them, so the slab starts empty and this
    times no row: it is the cost a device pays for its grid before its
    first read.  The lattice micro-benchmarks above time the vectorized
    whole-slab pass this once measured.
    """
    config = SsdConfig.tiny()

    def build():
        grid = RetryStepGrid(config, rpt=bench_rpt)
        grid.prefill([(1000, 6.0)])
        return grid

    grid = benchmark(build)
    assert grid.cached_conditions == 1


def test_bench_event_queue_throughput(benchmark):
    def run_queue():
        queue = EventQueue()
        for i in range(2000):
            queue.schedule(float(i % 97), lambda: None)
        return queue.run()

    assert benchmark(run_queue) == 2000


def test_bench_simulator_throughput(benchmark, bench_rpt):
    """Host requests simulated per call on an aged, read-dominant workload."""
    config = SsdConfig.tiny()
    footprint = int(config.logical_pages * 0.5)

    def run_simulation():
        simulator = SsdSimulator(config, policy="PnAR2", rpt=bench_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        requests = list(catalog_workload("YCSB-C", footprint, seed=1,
                                         mean_interarrival_us=500.0)
                        .iter_requests(200))
        return simulator.run(requests)

    # One warmup round: the first simulation of a process pays one-time
    # costs (numpy ufunc dispatch, lazily built model tables) that belong
    # to cold-start, not to the steady-state throughput tracked here.
    result = benchmark.pedantic(run_simulation, iterations=1, rounds=5,
                                warmup_rounds=1)
    assert result.metrics.host_reads > 150


def _block_reads(config):
    """1000 multi-page reads spread over the preconditioned range."""
    filled = int(config.logical_pages * 0.85)
    return [HostRequest(arrival_us=index * 300.0, kind=RequestKind.READ,
                        start_lpn=(index * 7919) % (filled - 8),
                        page_count=2 + index % 7)
            for index in range(1000)]


def test_bench_block_read_path(benchmark, bench_rpt):
    """Multi-page reads of aged data on a block-mode ``scaled()`` device.

    Times only ``SsdSimulator.run``: each page resolves to its packed index
    and condition, is scheduled on its die and priced from the retry grid.
    Building and preconditioning the device is per-round set-up.
    """
    config = SsdConfig.scaled()
    requests = _block_reads(config)

    def aged_device():
        simulator = SsdSimulator(config, policy="PnAR2", rpt=bench_rpt)
        simulator.precondition(pe_cycles=2000, retention_months=12.0)
        return (simulator,), {}

    def run(simulator):
        return simulator.run(requests)

    result = benchmark.pedantic(run, setup=aged_device, iterations=1,
                                rounds=5, warmup_rounds=1)
    assert result.metrics.host_reads == len(requests)
    assert result.metrics.scalar_fallbacks == 0


def test_bench_block_read_path_mixed(benchmark, bench_rpt):
    """The reads of ``test_bench_block_read_path``, alternating conditions.

    The untimed set-up rewrites every other LPN the reads cover (rewriting
    half the whole filled range would need garbage collection) and keeps a
    slab for the rewritten data's fresh condition.  Page reads then mix the
    aged and the fresh condition in service order: about half of them
    follow a read of the other condition, where the read path's
    last-condition shortcuts miss (1 in 5000 on the aged-only reads), and
    every read is still a grid hit.
    """
    config = SsdConfig.scaled()
    requests = _block_reads(config)
    covered = sorted({lpn for request in requests
                      for lpn in range(request.start_lpn,
                                       request.start_lpn + request.page_count)})
    fresh = (2000, 0.0)

    def mixed_device():
        simulator = SsdSimulator(config, policy="PnAR2", rpt=bench_rpt)
        simulator.precondition(pe_cycles=2000, retention_months=12.0)
        for lpn in covered[::2]:
            simulator.mapper.program(lpn, 0.0)
        simulator.grid.prefill([fresh])
        return (simulator,), {}

    def run(simulator):
        return simulator.run(requests)

    result = benchmark.pedantic(run, setup=mixed_device, iterations=1,
                                rounds=5, warmup_rounds=1)
    assert result.metrics.host_reads == len(requests)
    assert result.metrics.scalar_fallbacks == 0
    assert result.distinct_read_conditions == 2


def test_bench_dftl_steady_state(benchmark, bench_rpt):
    """Write-heavy page-mapped run that drives the DFTL into GC steady state.

    Tracks the cost of the full wear-dynamics path: CMT misses with
    translation-page traffic, GC victim selection/relocation and the
    per-read condition lookups against GC-diversified blocks.
    """
    config = SsdConfig(channels=2, dies_per_channel=1, planes_per_die=1,
                       blocks_per_plane=12, pages_per_block=24,
                       write_buffer_pages=16, mapping="page",
                       cmt_capacity_entries=64,
                       translation_entries_per_page=32,
                       gc_free_block_threshold=3, gc_stop_free_blocks=5)
    footprint = int(config.logical_pages * 0.5)

    def run_simulation():
        simulator = SsdSimulator(config, policy="PnAR2", rpt=bench_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0,
                               fill_fraction=0.6)
        requests = list(catalog_workload("stg_0", footprint, seed=1,
                                         mean_interarrival_us=500.0)
                        .iter_requests(300))
        return simulator.run(requests)

    result = benchmark.pedantic(run_simulation, iterations=1, rounds=5,
                                warmup_rounds=1)
    assert result.metrics.gc_invocations > 0
    assert result.metrics.translation_writes > 0


def test_bench_fleet_throughput(benchmark, bench_rpt):
    """Serial 8-device fleet run: the multi-device hot path end to end.

    Covers what the single-device micro cannot: the striping router's
    shard filtering, per-device stream regeneration, and the histogram
    merge across devices.  Serial (``processes=1``) so the number tracks
    simulator cost, not pool spin-up.
    """
    spec = FleetSpec(devices=8, stripe_unit_pages=4, replication=1,
                     config=SsdConfig.tiny(),
                     condition=Condition(pe_cycles=1000,
                                         retention_months=6.0))
    runner = FleetRunner(spec, processes=1, rpt=bench_rpt)

    def run_fleet():
        return runner.run("YCSB-C", policies="PnAR2", num_requests=400,
                          seed=7).result

    result = benchmark.pedantic(run_fleet, iterations=1, rounds=5,
                                warmup_rounds=1)
    merged = result.merged
    assert merged.host_reads > 300
    assert result.device_count == 8


def test_bench_fleet_multishard(benchmark, bench_rpt):
    """Serial 32-device fleet in 8-device shards under two policies.

    Four shards times two policies: a fleet run that generated and routed
    its array stream per shard would do so eight times, so this number
    tracks the routing a run shares across its shards and policies.  The
    devices are half full, as in the fleet scaling curve, which keeps each
    device's simulation cheap next to the routing.
    """
    spec = FleetSpec(devices=32, config=SsdConfig.tiny(),
                     condition=Condition(pe_cycles=1000,
                                         retention_months=6.0,
                                         fill_fraction=0.5))
    runner = FleetRunner(spec, processes=1, rpt=bench_rpt, shard_devices=8)

    def run_fleet():
        return runner.run("usr_1", policies=("Baseline", "PnAR2"),
                          num_requests=50 * 32, seed=0)

    run = benchmark.pedantic(run_fleet, iterations=1, rounds=5,
                             warmup_rounds=1)
    assert run.policies == ["Baseline", "PnAR2"]
    for _, result in run:
        assert result.device_count == 32
        assert len(result.shard_timings) == 4


def test_bench_fleet_sharded_resume(benchmark, bench_rpt, tmp_path):
    """Resume of a fully checkpointed sharded fleet run.

    Every shard is served from the checkpoint store, so the number tracks
    the resume overhead itself: checkpoint key hashing, JSON load + digest
    verification, and the streaming histogram fold — the fixed cost a
    rack-scale rerun pays before any new simulation work starts.
    """
    spec = FleetSpec(devices=16, stripe_unit_pages=4, replication=1,
                     config=SsdConfig.tiny(),
                     condition=Condition(pe_cycles=1000,
                                         retention_months=6.0))
    store = CheckpointStore(tmp_path)
    # Populate every shard checkpoint once, outside the timed region.
    FleetRunner(spec, processes=1, rpt=bench_rpt, shard_devices=4,
                checkpoint=store).run("YCSB-C", policies="PnAR2",
                                      num_requests=400, seed=7)

    def resume_fleet():
        runner = FleetRunner(spec, processes=1, rpt=bench_rpt,
                             shard_devices=4, checkpoint=store)
        return runner.run("YCSB-C", policies="PnAR2", num_requests=400,
                          seed=7)

    run = benchmark.pedantic(resume_fleet, iterations=1, rounds=5,
                             warmup_rounds=1)
    assert run.manifest["checkpoints"] == {"hits": 4, "stored": 0}
    assert run.result.device_count == 16
