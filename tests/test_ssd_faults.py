"""Fault injection: specs, plans, injector effects and session plumbing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.session import Simulation
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    die_failure,
    grown_bad_blocks,
    plane_failure,
    read_disturb,
)
from repro.ssd.ftl import PageAddressing, PhysicalPage
from repro.ssd.metrics import SimulationMetrics
from repro.workloads.scenarios import HotColdZone, make_pattern

PAGE_CONFIG = SsdConfig(channels=2, dies_per_channel=2, planes_per_die=1,
                        blocks_per_plane=24, pages_per_block=24,
                        write_buffer_pages=32, mapping="page",
                        cmt_capacity_entries=128,
                        translation_entries_per_page=64,
                        gc_free_block_threshold=3, gc_stop_free_blocks=5)


def _page_simulator(fill_fraction=0.70):
    simulator = SsdSimulator(PAGE_CONFIG)
    simulator.precondition(pe_cycles=1000, retention_months=6.0,
                           fill_fraction=fill_fraction)
    return simulator


def _pattern(n=300, seed=0):
    return make_pattern("hot_cold", num_requests=n, seed=seed,
                        mean_interarrival_us=400.0, footprint_fraction=0.5)


# -- FaultSpec / FaultPlan -----------------------------------------------------
class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gremlin", at_us=0.0)

    def test_scope_requirements(self):
        with pytest.raises(ValueError, match="channel and die"):
            FaultSpec(kind="die_failure", at_us=0.0, latency_factor=2.0)
        with pytest.raises(ValueError, match="channel, die and plane"):
            FaultSpec(kind="plane_failure", at_us=0.0, channel=0,
                      latency_factor=2.0)

    def test_read_disturb_needs_duration_and_effect(self):
        with pytest.raises(ValueError, match="duration_us"):
            FaultSpec(kind="read_disturb", at_us=0.0, extra_retry_steps=2)
        with pytest.raises(ValueError, match="extra_retry_steps"):
            FaultSpec(kind="read_disturb", at_us=0.0, duration_us=10.0)

    def test_failures_need_an_effect(self):
        with pytest.raises(ValueError, match="have any effect"):
            FaultSpec(kind="die_failure", at_us=0.0, channel=0, die=0)

    @pytest.mark.parametrize("spec", [
        die_failure(at_us=5.0, channel=1, die=0, duration_us=100.0,
                    latency_factor=3.0),
        plane_failure(at_us=5.0, channel=0, die=1, plane=0,
                      extra_retry_steps=2, latency_factor=1.0),
        read_disturb(at_us=9.0, duration_us=50.0, blocks=3,
                     extra_retry_steps=4),
        grown_bad_blocks(at_us=12.0, blocks=5),
    ])
    def test_round_trip(self, spec):
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert spec.kind in FAULT_KINDS


class TestFaultPlan:
    def test_round_trip_and_label(self):
        plan = FaultPlan(faults=(grown_bad_blocks(at_us=1.0),
                                 read_disturb(at_us=2.0, duration_us=3.0)),
                         seed=7)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.label == "grown_bad_blocks+read_disturb"
        assert len(plan) == 2 and bool(plan)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().label == "no-faults"

    def test_coerce(self):
        spec = grown_bad_blocks(at_us=1.0)
        assert FaultPlan.coerce(None) == FaultPlan()
        assert FaultPlan.coerce(spec).faults == (spec,)
        assert FaultPlan.coerce([spec], seed=9).seed == 9
        plan = FaultPlan(faults=(spec,), seed=3)
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            FaultPlan(faults=("die_failure",))


# -- injector effects on a live device -----------------------------------------
class TestFaultInjector:
    def test_die_failure_slows_reads_and_counts_them(self):
        baseline = _page_simulator()
        baseline.run(_pattern().iter_requests(PAGE_CONFIG))
        faulted = _page_simulator()
        faulted.install_faults(FaultPlan(faults=(
            die_failure(at_us=0.0, channel=0, die=0, latency_factor=8.0),)))
        faulted.run(_pattern().iter_requests(PAGE_CONFIG))
        assert faulted.metrics.fault_injections == 1
        assert faulted.metrics.faulted_reads > 0
        assert (faulted.metrics.mean_response_time_us("read")
                > baseline.metrics.mean_response_time_us("read"))

    def test_read_disturb_penalizes_hot_blocks(self):
        simulator = _page_simulator()
        simulator.install_faults(FaultPlan(faults=(
            read_disturb(at_us=30_000.0, duration_us=60_000.0, blocks=4,
                         extra_retry_steps=5),)))
        simulator.run(_pattern().iter_requests(PAGE_CONFIG))
        assert simulator.metrics.fault_injections == 1
        assert simulator.metrics.faulted_reads > 0

    def test_grown_bad_blocks_retire_and_remap(self):
        simulator = _page_simulator()
        simulator.install_faults(FaultPlan(faults=(
            grown_bad_blocks(at_us=60_000.0, blocks=2),), seed=0))
        simulator.run(_pattern().iter_requests(PAGE_CONFIG))
        assert simulator.metrics.grown_bad_blocks == 2
        assert simulator.metrics.fault_remapped_pages > 0
        simulator.mapper.check_consistency()

    def test_grown_bad_blocks_skip_on_starved_planes(self):
        # A 0.85 fill parks the free pool at the retirement guard; the
        # fault must degrade to a no-op rather than starve GC.
        simulator = _page_simulator(fill_fraction=0.85)
        simulator.install_faults(FaultPlan(faults=(
            grown_bad_blocks(at_us=60_000.0, blocks=2),), seed=0))
        simulator.run(_pattern().iter_requests(PAGE_CONFIG))
        assert simulator.metrics.grown_bad_blocks == 0
        simulator.mapper.check_consistency()

    def test_grown_bad_blocks_require_page_mapping(self):
        simulator = SsdSimulator(SsdConfig.tiny())
        with pytest.raises(ValueError, match="page-mapped"):
            simulator.install_faults(FaultPlan(faults=(
                grown_bad_blocks(at_us=0.0),)))

    def test_empty_plan_is_bitwise_identical_to_no_plan(self):
        plain = _page_simulator()
        plain.run(_pattern().iter_requests(PAGE_CONFIG))
        armed = _page_simulator()
        armed.install_faults(FaultPlan())
        armed.run(_pattern().iter_requests(PAGE_CONFIG))
        assert armed.metrics.summary() == plain.metrics.summary()
        assert armed.metrics.latency("all").to_dict() == (
            plain.metrics.latency("all").to_dict())

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           blocks=st.integers(min_value=1, max_value=4))
    def test_remap_never_loses_a_valid_page(self, seed, blocks):
        """No LPN mapped before a grown-bad retirement loses its data."""
        simulator = _page_simulator()
        dftl = simulator.mapper

        def mapped():
            return {lpn for lpn, packed in enumerate(dftl._mapping)
                    if packed >= 0}
        mapped_before = mapped()
        simulator.install_faults(FaultPlan(faults=(
            grown_bad_blocks(at_us=0.0, blocks=blocks),), seed=seed))
        simulator._fault_injector.poll(simulator, 0.0)
        assert mapped() == mapped_before
        dftl.check_consistency()
        assert simulator.metrics.grown_bad_blocks == blocks


# -- fault scopes over packed page indices -------------------------------------
#: Two of everything above the block, so no scope number coincides with
#: another scope's number by accident.
SCOPE_CONFIG = SsdConfig(channels=2, dies_per_channel=2, planes_per_die=2,
                         blocks_per_plane=3, pages_per_block=4,
                         write_buffer_pages=4)
SCOPE_ADDRESSING = PageAddressing(SCOPE_CONFIG)


def _armed(spec, reads=()):
    """An injector whose ``spec`` is active, after ``reads`` (packed pages)."""
    injector = FaultInjector(FaultPlan(faults=(spec,)), SCOPE_CONFIG)
    for packed in reads:
        injector.record_read(packed)
    injector.poll(SsdSimulator(SCOPE_CONFIG), spec.at_us)
    return injector


def _penalised(injector):
    """The ``(channel, die, plane, block)`` of every penalised block, read
    through the unpacked view of each page."""
    hit = set()
    for packed in range(SCOPE_CONFIG.physical_pages):
        extra, factor = injector.read_penalty(packed, 1.0)
        if extra or factor != 1.0:
            hit.add(SCOPE_ADDRESSING.unpack(packed)[:4])
    return hit


def _blocks(channel=None, die=None, plane=None):
    """Every block inside the given scope, as ``(channel, die, plane, block)``."""
    return {physical[:4] for physical in map(SCOPE_ADDRESSING.unpack,
                                             range(SCOPE_CONFIG.physical_pages))
            if channel in (None, physical.channel)
            and die in (None, physical.die)
            and plane in (None, physical.plane)}


def _page_of(channel, die, plane, block):
    return SCOPE_ADDRESSING.pack(PhysicalPage(channel, die, plane, block, 1))


class TestFaultScopes:
    """Each fault penalises a read exactly when ``unpack(packed)`` lies in
    its scope, although the injector only ever divides packed indices."""

    def test_die_failures_cover_their_die(self):
        for channel in range(SCOPE_CONFIG.channels):
            for die in range(SCOPE_CONFIG.dies_per_channel):
                injector = _armed(die_failure(0.0, channel, die))
                assert _penalised(injector) == _blocks(channel, die)

    def test_plane_failures_cover_their_plane(self):
        for channel in range(SCOPE_CONFIG.channels):
            for die in range(SCOPE_CONFIG.dies_per_channel):
                for plane in range(SCOPE_CONFIG.planes_per_die):
                    injector = _armed(plane_failure(0.0, channel, die, plane))
                    assert _penalised(injector) == _blocks(channel, die, plane)

    @pytest.mark.parametrize("spec", [
        die_failure(0.0, 2, 0), die_failure(0.0, 0, 2),
        plane_failure(0.0, 0, 0, 2), plane_failure(0.0, 0, -1, 0)])
    def test_a_scope_outside_the_device_is_refused(self, spec):
        # No read could reach such a scope, so installing it would run a
        # fault-free experiment without a word.
        simulator = SsdSimulator(SCOPE_CONFIG)
        with pytest.raises(ValueError, match=rf"{spec.kind} .*outside the device "
                           r"\(2 channels x 2 dies x 2 planes\)"):
            simulator.install_faults(FaultPlan(faults=(spec,)))
        assert simulator._fault_injector is None

    def test_a_storm_covers_the_hottest_blocks_ties_by_address(self):
        # The last block of the device is the hottest; four blocks tie
        # behind it, and the storm takes the two lowest-addressed of them.
        hottest = (1, 1, 1, 2)
        tied = [(1, 0, 1, 0), (0, 1, 0, 2), (1, 1, 0, 0), (0, 0, 1, 1)]
        reads = [_page_of(*hottest)] * 3 + [_page_of(*block) for block in tied] * 2
        injector = _armed(read_disturb(0.0, 10.0, blocks=3), reads)
        assert _penalised(injector) == {hottest, (0, 0, 1, 1), (0, 1, 0, 2)}

    def test_a_storm_before_any_read_lands_on_the_lowest_numbered_blocks(self):
        # Block numbers run block by block within a plane, then plane by
        # plane: the first five are plane 0's three and two of plane 1.
        injector = _armed(read_disturb(0.0, 10.0, blocks=5))
        assert _penalised(injector) == {(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2),
                                        (0, 0, 1, 0), (0, 0, 1, 1)}
        # Blocks already read come first; the lowest-numbered others fill up.
        injector = _armed(read_disturb(0.0, 10.0, blocks=3), [_page_of(1, 0, 0, 2)])
        assert _penalised(injector) == {(1, 0, 0, 2), (0, 0, 0, 0), (0, 0, 0, 1)}

    def test_overlapping_scopes_stack_until_each_ends(self):
        # A permanent die failure, a plane failure inside it that ends at
        # 50 us and a storm that ends at 20 us on one block inside that
        # plane and one elsewhere: a read pays the sum of the extra steps
        # and the product of the factors of every active fault whose scope
        # holds its page.
        die = die_failure(0.0, 1, 0, latency_factor=2.0, extra_retry_steps=1)
        plane = plane_failure(0.0, 1, 0, 1, duration_us=50.0,
                              latency_factor=3.0, extra_retry_steps=2)
        storm = read_disturb(0.0, 20.0, blocks=2, extra_retry_steps=4)
        stormed = {(1, 0, 1, 2), (0, 0, 0, 1)}
        injector = FaultInjector(FaultPlan(faults=(die, plane, storm)),
                                 SCOPE_CONFIG)
        for block in sorted(stormed):
            injector.record_read(_page_of(*block))
        injector.poll(SsdSimulator(SCOPE_CONFIG), 0.0)
        for now_us in (10.0, 35.0, 80.0):
            for packed in range(SCOPE_CONFIG.physical_pages):
                physical = SCOPE_ADDRESSING.unpack(packed)
                covering = []
                if physical[:2] == (1, 0):
                    covering.append(die)
                if physical[:3] == (1, 0, 1) and now_us <= 50.0:
                    covering.append(plane)
                if physical[:4] in stormed and now_us <= 20.0:
                    covering.append(storm)
                factor = 1.0
                for spec in covering:
                    factor *= spec.latency_factor
                expected = (sum(spec.extra_retry_steps for spec in covering),
                            factor)
                assert injector.read_penalty(packed, now_us) == expected, (
                    now_us, physical)


def test_every_fast_adversarial_device_run_completes_every_request(
        monkeypatch):
    # A block retired while a die started a read once let the relocation
    # start a second transaction on that die, which the read then
    # displaced: its host read never completed.
    from repro.experiments import adversarial_scenarios
    from repro.experiments.api import default_experiment_registry

    left_over = []
    finalize = SsdSimulator._finalize_run

    def recording(self):
        left_over.append((self._outstanding_requests, self._reads_in_flight))
        return finalize(self)

    monkeypatch.setattr(SsdSimulator, "_finalize_run", recording)
    registration = default_experiment_registry().entry("adversarial_scenarios")
    adversarial_scenarios.run(**registration.resolve_params("fast"))
    assert len(left_over) == 20
    assert left_over == [(0, 0)] * len(left_over)


# -- metrics merge across shards -----------------------------------------------
class TestFaultCounterMerge:
    FAULT_COUNTERS = ("fault_injections", "faulted_reads",
                      "grown_bad_blocks", "fault_remapped_pages")

    def test_fault_counters_are_registered(self):
        for name in self.FAULT_COUNTERS:
            assert name in SimulationMetrics.COUNTER_FIELDS

    @settings(max_examples=20, deadline=None)
    @given(shards=st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=1000)
                    for _ in range(4))),
        min_size=1, max_size=5))
    def test_merge_sums_fault_counters_across_shards(self, shards):
        merged = SimulationMetrics()
        for values in shards:
            shard = SimulationMetrics()
            for name, value in zip(self.FAULT_COUNTERS, values):
                setattr(shard, name, value)
            merged.merge(shard)
        for index, name in enumerate(self.FAULT_COUNTERS):
            assert getattr(merged, name) == sum(
                values[index] for values in shards)


# -- session and fleet plumbing ------------------------------------------------
class TestSessionFaults:
    def _base(self):
        return (Simulation(PAGE_CONFIG).policy("PnAR2")
                .condition(pec=1000, months=6.0, fill=0.70))

    def test_pattern_by_name_and_faults_run(self):
        run = (self._base()
               .pattern("hot_cold", num_requests=200, seed=1,
                        mean_interarrival_us=400.0)
               .faults(die_failure(at_us=0.0, channel=0, die=0,
                                   latency_factor=4.0),
                       grown_bad_blocks(at_us=40_000.0, blocks=1))
               .run())
        metrics = run.result.metrics
        assert metrics.fault_injections == 2
        assert metrics.grown_bad_blocks == 1

    def test_pattern_accepts_ready_source_but_not_with_kwargs(self):
        source = HotColdZone(num_requests=50)
        simulation = Simulation(PAGE_CONFIG).pattern(source)
        assert simulation._source is source
        with pytest.raises(ValueError):
            Simulation(PAGE_CONFIG).pattern(source, num_requests=10)

    def test_manifest_records_pattern_and_faults(self):
        plan = FaultPlan(faults=(grown_bad_blocks(at_us=1.0),), seed=2)
        manifest = (self._base()
                    .pattern("snake", num_requests=100)
                    .faults(plan)
                    .manifest())
        assert manifest["workload"]["kind"] == "snake"
        assert manifest["faults"] == plan.to_dict()
        assert manifest["condition"]["fill_fraction"] == 0.70

    def test_zero_fault_scenario_is_bitwise_identical_to_plain(self):
        pattern = _pattern(n=200)
        plain = self._base().workload(pattern).run()
        armed = self._base().workload(pattern).faults(FaultPlan()).run()
        assert (armed.result.metrics.summary()
                == plain.result.metrics.summary())
        assert (armed.result.metrics.latency("all").to_dict()
                == plain.result.metrics.latency("all").to_dict())

    def test_faults_with_slo_search_rejected(self):
        simulation = (self._base()
                      .workload("usr_1", n=50)
                      .faults(grown_bad_blocks(at_us=1.0))
                      .slo(p99_us=5_000.0))
        with pytest.raises(ValueError, match="slo"):
            simulation.run()

    def test_fleet_carries_fault_counters_and_stays_deterministic(self):
        def build(processes):
            return (Simulation(PAGE_CONFIG).policy("PnAR2")
                    .condition(pec=1000, months=6.0, fill=0.70)
                    .pattern("hot_cold", num_requests=200, seed=1,
                             mean_interarrival_us=400.0)
                    .faults(die_failure(at_us=0.0, channel=0, die=0,
                                        latency_factor=4.0))
                    .fleet(2, processes=processes)
                    .run())
        serial = build(1)
        merged = serial.result.merged
        assert merged.fault_injections == 2  # one per device
        assert merged.faulted_reads > 0
        assert serial.manifest["faults"]["faults"][0]["kind"] == "die_failure"
        parallel = build(2)
        assert (parallel.result.merged.latency("all").to_dict()
                == merged.latency("all").to_dict())
        assert parallel.result.merged.faulted_reads == merged.faulted_reads
