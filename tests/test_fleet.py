"""Fleet layer: router, tenant mix, fleet runs, SLO capacity search."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulation
from repro.sim.fleet import (
    CapacityResult,
    FleetRunner,
    FleetSpec,
    SloCapacitySearch,
    _requests_digest,
)
from repro.sim.spec import Condition, WorkloadSpec
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.request import HostRequest, RequestKind
from repro.workloads.router import RequestSpool, StripeRouter
from repro.workloads.tenants import TenantMix

CONFIG = SsdConfig.tiny()
AGED = Condition(1000, 6.0)


def _spec(n=120, seed=3, **kwargs):
    return WorkloadSpec(name="usr_1", num_requests=n, seed=seed,
                        mean_interarrival_us=700.0, **kwargs)


# -- StripeRouter --------------------------------------------------------------
def _scan_split(router, request):
    """Reference split: place page by page, scanning every run for each page.

    ``StripeRouter.split`` places a stripe-unit segment at a time through an
    index of open runs; it must return these runs in this order.
    """
    runs = []  # [device, local_start, page_count]
    for lpn in range(request.start_lpn, request.start_lpn + request.page_count):
        if request.kind is RequestKind.READ:
            targets = (router.read_placement(lpn),)
        else:
            targets = router.replicas(lpn)
        for device, local in targets:
            for run in runs:
                if run[0] == device and local == run[1] + run[2]:
                    run[2] += 1
                    break
            else:
                runs.append([device, local, 1])
    return [tuple(run) for run in runs]


@st.composite
def _routed_streams(draw):
    """A router, an array-level stream for it, and the devices to route.

    Half the routers are unmirrored and requests are often a few pages
    against units of up to 16, so requests that fit in one stripe unit
    (``route``'s direct path) are common next to multi-unit and mirrored
    ones.
    """
    devices = draw(st.integers(min_value=1, max_value=5))
    router = StripeRouter(
        devices=devices,
        stripe_unit_pages=draw(st.integers(min_value=1, max_value=16)),
        replication=draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=devices))),
    )
    # Arrivals are arbitrary doubles, not short decimals, so the float64
    # column has to keep every bit.
    arrivals = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
        max_size=24))
    stream = [
        HostRequest(arrival_us=arrival,
                    kind=draw(st.sampled_from(list(RequestKind))),
                    start_lpn=draw(st.integers(min_value=0, max_value=600)),
                    page_count=draw(st.one_of(st.integers(min_value=1, max_value=4),
                                              st.integers(min_value=1, max_value=64))),
                    queue_id=draw(st.integers(min_value=0, max_value=1 << 40)))
        for arrival in arrivals
    ]
    routed = draw(st.lists(st.integers(min_value=0, max_value=devices - 1), unique=True))
    return router, stream, routed


class TestStripeRouter:
    def test_validation(self):
        with pytest.raises(ValueError):
            StripeRouter(devices=0)
        with pytest.raises(ValueError):
            StripeRouter(devices=2, stripe_unit_pages=0)
        with pytest.raises(ValueError):
            StripeRouter(devices=2, replication=3)

    def test_placement_round_robin(self):
        router = StripeRouter(devices=3, stripe_unit_pages=4)
        # Pages 0..3 on device 0, 4..7 on device 1, 8..11 on device 2,
        # 12..15 wrap to device 0 at local 4.
        assert router.placement(0) == (0, 0)
        assert router.placement(5) == (1, 1)
        assert router.placement(8) == (2, 0)
        assert router.placement(12) == (0, 4)

    def test_identity_when_single_device(self):
        router = StripeRouter(devices=1, stripe_unit_pages=8)
        for lpn in (0, 7, 8, 123):
            assert router.placement(lpn) == (0, lpn)

    def test_replica_locals_never_collide_with_primaries(self):
        router = StripeRouter(devices=4, stripe_unit_pages=2, replication=2)
        seen = {}
        for lpn in range(256):
            for device, local in router.replicas(lpn):
                key = (device, local)
                assert key not in seen, f"page {lpn} collides with {seen[key]}"
                seen[key] = lpn

    def test_read_rotates_across_replicas(self):
        router = StripeRouter(devices=4, stripe_unit_pages=1, replication=2)
        devices = {router.read_placement(lpn)[0] for lpn in range(0, 64, 4)}
        # Stripe groups alternate copy 0 / copy 1 for the same primary.
        assert len(devices) == 2

    def test_split_coalesces_contiguous_runs(self):
        router = StripeRouter(devices=2, stripe_unit_pages=2)
        request = HostRequest(arrival_us=5.0, kind=RequestKind.READ,
                              start_lpn=0, page_count=8, queue_id=7)
        parts = router.split(request)
        # A full stripe-group-aligned read becomes one run per device.
        assert sorted(device for device, _ in parts) == [0, 1]
        for device, sub in parts:
            assert sub.page_count == 4
            assert sub.arrival_us == 5.0
            assert sub.queue_id == 7
            assert sub.start_lpn == 0

    def test_write_fans_out_to_replicas(self):
        router = StripeRouter(devices=3, stripe_unit_pages=4, replication=2)
        request = HostRequest(arrival_us=0.0, kind=RequestKind.WRITE,
                              start_lpn=0, page_count=4)
        parts = router.split(request)
        assert sorted(device for device, _ in parts) == [0, 1]
        read = HostRequest(arrival_us=0.0, kind=RequestKind.READ,
                           start_lpn=0, page_count=4)
        assert len(router.split(read)) == 1

    def test_shard_preserves_arrival_order(self):
        router = StripeRouter(devices=2, stripe_unit_pages=4)
        stream = [HostRequest(arrival_us=float(i), kind=RequestKind.READ,
                              start_lpn=(i * 3) % 64, page_count=2)
                  for i in range(50)]
        for device in range(2):
            arrivals = [sub.arrival_us
                        for sub in router.shard(iter(stream), device)]
            assert arrivals == sorted(arrivals)

    def test_shard_rejects_unknown_device(self):
        router = StripeRouter(devices=2)
        with pytest.raises(ValueError):
            list(router.shard([], 2))
        with pytest.raises(ValueError):
            router.route([], range(1, 3))

    @settings(max_examples=150, deadline=None)
    @given(_routed_streams())
    def test_route_equals_shard_for_every_device(self, case):
        router, stream, devices = case
        routed = router.route(iter(stream), devices)
        assert list(routed) == devices
        for device, spool in routed.items():
            expected = _requests_digest(list(router.shard(stream, device)))
            assert _requests_digest(list(spool)) == expected
            clone = pickle.loads(pickle.dumps(spool))
            assert len(clone) == len(spool)
            assert _requests_digest(list(clone)) == expected

    @settings(max_examples=150, deadline=None)
    @given(_routed_streams())
    def test_split_matches_the_page_by_page_scan(self, case):
        router, stream, _ = case
        for request in stream:
            parts = router.split(request)
            assert [(device, sub.start_lpn, sub.page_count)
                    for device, sub in parts] == _scan_split(router, request)
            for _, sub in parts:
                assert (sub.arrival_us, sub.kind, sub.queue_id) == (
                    request.arrival_us, request.kind, request.queue_id)

    def test_spool_rows_survive_pickling_in_order(self):
        spool = pickle.loads(pickle.dumps(RequestSpool()))
        assert len(spool) == 0 and list(spool) == []
        rows = [(0.1 + 0.2, RequestKind.DISCARD, 7, 3, 9),
                (2.5, RequestKind.READ, 1 << 40, 64, 0)]
        for row in rows:
            spool.append(*row)
        clone = pickle.loads(pickle.dumps(spool))
        assert [(request.arrival_us, request.kind, request.start_lpn,
                 request.page_count, request.queue_id)
                for request in clone] == rows

    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_array_lpn_inverts_every_copy(self, replication):
        router = StripeRouter(devices=3, stripe_unit_pages=4,
                              replication=replication)
        for lpn in range(200):
            for device, local in router.replicas(lpn):
                assert router.array_lpn(device, local) == lpn


# -- TenantMix -----------------------------------------------------------------
class TestTenantMix:
    def test_merge_is_arrival_ordered_and_tagged(self):
        mix = TenantMix(tenants=(_spec(40, seed=1), _spec(40, seed=2)))
        requests = list(mix.iter_requests(CONFIG))
        assert len(requests) == 80
        arrivals = [request.arrival_us for request in requests]
        assert arrivals == sorted(arrivals)
        assert {request.queue_id for request in requests} == {0, 1}

    def test_namespaces_are_disjoint(self):
        mix = TenantMix(tenants=(_spec(60, seed=1), _spec(60, seed=2)))
        half = CONFIG.logical_pages // 2
        for request in mix.iter_requests(CONFIG):
            if request.queue_id == 0:
                assert request.start_lpn + request.page_count <= half
            else:
                assert request.start_lpn >= half

    def test_round_trip(self):
        mix = TenantMix(tenants=(_spec(30), _spec(30, seed=9)),
                        names=("kv", "log"))
        clone = TenantMix.from_dict(mix.to_dict())
        assert clone == mix
        assert clone.tenant_names() == ("kv", "log")

    def test_rate_scaling_preserves_composition(self):
        mix = TenantMix(tenants=(
            WorkloadSpec(name="usr_1", num_requests=10,
                         mean_interarrival_us=500.0),
            WorkloadSpec(name="stg_0", num_requests=10,
                         mean_interarrival_us=1000.0)))
        base = mix.total_arrival_rate_rps(700.0)
        scaled = mix.with_arrival_rate(2 * base, 700.0)
        assert scaled.total_arrival_rate_rps(700.0) == pytest.approx(2 * base)
        ratio = (scaled.tenants[0].mean_interarrival_us
                 / scaled.tenants[1].mean_interarrival_us)
        assert ratio == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantMix(tenants=())
        with pytest.raises(ValueError):
            TenantMix(tenants=(_spec(10),), names=("a", "b"))

    def test_coerce_seeds_tenants_independently(self):
        # One shared seed would make same-name tenants emit lockstep,
        # bitwise-identical streams; coerce derives seed + index instead.
        mix = TenantMix.coerce(["usr_1", "usr_1"], num_requests=30, seed=7)
        assert mix.tenants[0].seed == 7
        assert mix.tenants[1].seed == 8
        arrivals = {0: [], 1: []}
        for request in mix.iter_requests(CONFIG):
            arrivals[request.queue_id].append(request.arrival_us)
        assert arrivals[0] != arrivals[1]
        # Ready-made specs keep their own seeds untouched.
        explicit = TenantMix.coerce([_spec(10, seed=3), _spec(10, seed=3)],
                                    seed=99)
        assert [spec.seed for spec in explicit.tenants] == [3, 3]


# -- FleetRunner ---------------------------------------------------------------
class TestFleetRunner:
    def test_single_device_fleet_matches_plain_run(self):
        spec = _spec(150)
        plain = (Simulation(CONFIG).policy("PnAR2").workload(spec)
                 .condition(AGED).run())
        fleet = (Simulation(CONFIG).policy("PnAR2").workload(spec)
                 .condition(AGED).fleet(1).run())
        plain_metrics = plain.result.metrics
        merged = fleet.result.merged
        assert merged.p99_response_time_us() == (
            plain_metrics.p99_response_time_us())
        assert merged.p999_response_time_us() == (
            plain_metrics.p999_response_time_us())
        assert merged.mean_response_time_us() == (
            plain_metrics.mean_response_time_us())
        assert merged.host_reads == plain_metrics.host_reads
        assert merged.host_writes == plain_metrics.host_writes

    def test_serial_and_parallel_fleets_are_bitwise_identical(self):
        fleet_spec = FleetSpec(devices=3, config=CONFIG, condition=AGED)
        serial = FleetRunner(fleet_spec, processes=1).run(
            _spec(), policies=("Baseline", "PnAR2"))
        parallel = FleetRunner(fleet_spec, processes=3).run(
            _spec(), policies=("Baseline", "PnAR2"))
        assert serial.rows() == parallel.rows()
        for policy in ("Baseline", "PnAR2"):
            assert (serial[policy].merged.latency("all").to_dict()
                    == parallel[policy].merged.latency("all").to_dict())

    def test_devices_see_disjoint_shards_covering_the_stream(self):
        fleet_spec = FleetSpec(devices=2, stripe_unit_pages=4,
                               config=CONFIG, condition=AGED)
        result = FleetRunner(fleet_spec).run(_spec(100), policies="Baseline")
        merged = result.result.merged
        # Striping splits some requests, so sub-request totals can exceed
        # the stream length but every request must land somewhere.
        assert merged.host_reads + merged.host_writes >= 100
        rows = result.result.device_rows()
        assert [row["device"] for row in rows] == [0, 1]
        for row in rows:
            assert row["host_reads"] + row["host_writes"] > 0

    def test_tenant_tails_and_device_rows(self):
        mix = TenantMix(tenants=(_spec(60, seed=1), _spec(60, seed=2)),
                        names=("kv", "log"))
        fleet_spec = FleetSpec(devices=2, config=CONFIG, condition=AGED)
        result = FleetRunner(fleet_spec).run(mix, policies="PnAR2").result
        tails = result.tenant_tails()
        assert set(tails) == {"kv", "log"}
        for tail in tails.values():
            assert tail["p50_us"] <= tail["p99_us"] <= tail["p999_us"]
        rows = result.device_rows()
        assert [row["device"] for row in rows] == [0, 1]
        assert result.utilization_skew() >= 1.0

    def test_heterogeneous_device_conditions(self):
        fleet_spec = FleetSpec(
            devices=2, config=CONFIG,
            device_conditions=(Condition(0, 0.0), Condition(3000, 12.0)))
        result = FleetRunner(fleet_spec).run(_spec(), policies="Baseline")
        assert fleet_spec.device_condition(0).pe_cycles == 0
        assert fleet_spec.device_condition(1).pe_cycles == 3000
        fresh, aged = result.result.device_rows()
        assert aged["mean_response_us"] > fresh["mean_response_us"]

    def test_explicit_request_list_source(self):
        requests = [HostRequest(arrival_us=i * 500.0, kind=RequestKind.READ,
                                start_lpn=i * 8, page_count=1)
                    for i in range(40)]
        fleet_spec = FleetSpec(devices=2, config=CONFIG)
        result = FleetRunner(fleet_spec).run(requests, policies="Baseline")
        merged = result.result.merged
        assert merged.host_reads == 40

    def test_placement_past_the_device_end_fails_loudly(self):
        # 3 devices x 1428 pages at replication 2 expose 2142 array pages,
        # but the last stripe group overhangs the devices' ends: array LPN
        # 2139 is copy 1 of stripe group 89, device 1's local LPN 1435.
        fleet_spec = FleetSpec(devices=3, replication=2, config=CONFIG)
        read = HostRequest(arrival_us=0.0, kind=RequestKind.READ,
                           start_lpn=2139, page_count=1)
        with pytest.raises(ValueError, match=(
                r"array LPN 2139 routes to device 1 at local LPN 1435, "
                r"outside its local range \[0, 1428\)")):
            FleetRunner(fleet_spec).run([read], policies="Baseline")
        # A generated stream spanning the whole array reaches it as well.
        with pytest.raises(ValueError, match="stripe unit 8 pages, replication 2"):
            FleetRunner(fleet_spec).run(
                WorkloadSpec(name="stg_0", num_requests=1500, seed=0,
                             footprint_fraction=1.0),
                policies="Baseline")

    def test_an_overhang_fails_before_any_device_is_simulated(self, monkeypatch):
        # Device 0's shard comes first and routes cleanly; the run must
        # still fail on device 1's overhang before simulating anything.
        simulated = []
        run = SsdSimulator.run

        def recording_run(self, *args, **kwargs):
            simulated.append(self.device_id)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SsdSimulator, "run", recording_run)
        fleet_spec = FleetSpec(devices=3, replication=2, config=CONFIG)
        read = HostRequest(arrival_us=0.0, kind=RequestKind.READ,
                           start_lpn=2139, page_count=1)
        with pytest.raises(ValueError, match="array LPN 2139 routes to device 1"):
            FleetRunner(fleet_spec, shard_devices=1).run([read], policies="Baseline")
        assert simulated == []

    def test_a_repeated_policy_is_refused(self):
        # Both names canonicalize to PnAR2; folding it twice would absorb
        # every device twice into one result.
        fleet_spec = FleetSpec(devices=2, config=CONFIG)
        with pytest.raises(ValueError, match="policy 'PnAR2' is given more than once"):
            FleetRunner(fleet_spec).run(_spec(40), policies=("PnAR2", "pnar2"))

    def test_explicit_request_list_is_sorted_like_single_device(self):
        # The single-device contract sorts pre-materialized sequences up
        # front; the fleet path must honor it for unsorted lists too.
        requests = [HostRequest(arrival_us=float(t), kind=RequestKind.READ,
                                start_lpn=t % 64, page_count=1)
                    for t in (5000, 0, 2500, 7500, 1000)]
        fleet_spec = FleetSpec(devices=2, config=CONFIG)
        result = FleetRunner(fleet_spec).run(requests, policies="Baseline")
        assert result.result.merged.host_reads == 5

    def test_plain_runs_keep_tenant_latency_empty(self):
        plain = (Simulation(CONFIG).policy("Baseline")
                 .workload("usr_1", n=40).run())
        assert plain.result.metrics.tenant_latency == {}
        fleet = (Simulation(CONFIG).policy("Baseline")
                 .workload("usr_1", n=40).fleet(2).run())
        assert fleet.result.merged.tenant_latency == {}

    def test_fleet_rejects_policy_instances(self):
        from repro.sim.registry import default_registry

        policy = default_registry().create("Baseline",
                                           timing=CONFIG.timing, rpt=None)
        simulation = (Simulation(CONFIG).policy(policy)
                      .workload("usr_1", n=20).fleet(2))
        with pytest.raises(ValueError, match="registry names"):
            simulation.run()

    def test_spec_validation_and_round_trip(self):
        with pytest.raises(ValueError):
            FleetSpec(devices=0)
        with pytest.raises(ValueError):
            FleetSpec(devices=2, replication=3)
        with pytest.raises(ValueError):
            FleetSpec(devices=2,
                      device_conditions=(Condition(0, 0.0),))
        spec = FleetSpec(devices=3, replication=2, config=CONFIG,
                         condition=AGED)
        assert FleetSpec.from_dict(spec.to_dict()) == spec
        assert spec.array_logical_pages == 3 * CONFIG.logical_pages // 2


# -- SLO capacity search -------------------------------------------------------
class TestCapacitySearch:
    def _runner(self):
        return FleetRunner(FleetSpec(devices=2, config=CONFIG,
                                     condition=AGED))

    def test_converges_within_tolerance(self):
        search = SloCapacitySearch(self._runner(), target_p99_us=20_000.0,
                                   tolerance=0.15, max_probes=10)
        result = search.find(_spec(150), policy="PnAR2")
        assert isinstance(result, CapacityResult)
        assert result.converged
        assert result.max_rate_rps is not None
        assert result.min_violating_rate_rps is not None
        assert (result.min_violating_rate_rps / result.max_rate_rps
                <= 1.0 + result.tolerance + 1e-9)
        assert result.fleet is not None
        assert result.fleet.p99() <= 20_000.0

    def test_probes_are_monotone_in_verdict(self):
        search = SloCapacitySearch(self._runner(), target_p99_us=20_000.0,
                                   tolerance=0.15, max_probes=10)
        result = search.find(_spec(150), policy="PnAR2")
        meeting = [probe.rate_rps for probe in result.probes
                   if probe.meets_slo]
        violating = [probe.rate_rps for probe in result.probes
                     if not probe.meets_slo]
        assert meeting and violating
        assert max(meeting) == pytest.approx(result.max_rate_rps)
        assert max(meeting) < min(violating)

    def test_unreachable_target_does_not_converge(self):
        search = SloCapacitySearch(self._runner(), target_p99_us=1.0,
                                   max_probes=3)
        result = search.find(_spec(60), policy="Baseline")
        assert not result.converged
        assert result.max_rate_rps is None
        assert result.fleet is None

    def test_session_builder_slo_path(self):
        result = (Simulation(CONFIG).policy("PnAR2")
                  .workload("usr_1", n=120, seed=3,
                            mean_interarrival_us=700.0)
                  .condition(AGED)
                  .fleet(2)
                  .slo(p99_us=20_000.0, tolerance=0.15, max_probes=8)
                  .run())
        assert isinstance(result, CapacityResult)
        assert result.policy == "PnAR2"

    def test_slo_requires_single_policy(self):
        simulation = (Simulation(CONFIG).policies("Baseline", "PnAR2")
                      .workload("usr_1", n=40).slo(p99_us=1000.0))
        with pytest.raises(ValueError, match="exactly one"):
            simulation.run()

    def test_validation(self):
        runner = self._runner()
        with pytest.raises(ValueError):
            SloCapacitySearch(runner, target_p99_us=0.0)
        with pytest.raises(ValueError):
            SloCapacitySearch(runner, target_p99_us=10.0, tolerance=0.0)
        with pytest.raises(ValueError):
            SloCapacitySearch(runner, target_p99_us=10.0, max_probes=1)


# -- session integration -------------------------------------------------------
class TestSessionFleet:
    def test_fleet_manifest_mentions_fleet_and_workload(self):
        import json

        simulation = (Simulation(CONFIG).policy("Baseline")
                      .workload("usr_1", n=50)
                      .fleet(2, replication=2,
                             device_conditions=(Condition(0, 0.0),
                                                Condition(1000, 6.0)))
                      .slo(p99_us=5000.0))
        manifest = simulation.manifest()
        assert manifest["fleet"]["devices"] == 2
        assert manifest["fleet"]["replication"] == 2
        assert "processes" not in manifest["fleet"]
        # The manifest contract: one json.dumps away, always.
        json.dumps(manifest)

    def test_tenants_names_apply_to_a_ready_mix(self):
        mix = TenantMix(tenants=(_spec(20, seed=1), _spec(20, seed=2)))
        simulation = (Simulation(CONFIG).policy("Baseline")
                      .tenants(mix, names=("kv", "log")))
        assert simulation._source.tenant_names() == ("kv", "log")

    def test_lookahead_reaches_fleet_devices(self):
        # .lookahead() must be honored on the fleet path like it is on the
        # single-device path (a window of 1 admits strictly one arrival at
        # a time, so any pump mis-plumbing would surface immediately).
        run = (Simulation(CONFIG).policy("Baseline")
               .workload("usr_1", n=60, seed=1).lookahead(1)
               .fleet(2).run())
        assert run.result.merged.host_reads + run.result.merged.host_writes > 0
        wide = (Simulation(CONFIG).policy("Baseline")
                .workload("usr_1", n=60, seed=1).lookahead(128)
                .fleet(2).run())
        assert (run.result.merged.latency("all").to_dict()
                == wide.result.merged.latency("all").to_dict())

    def test_fleet_rejects_stream_factories(self):
        simulation = (Simulation(CONFIG).policy("Baseline")
                      .stream(lambda: iter([])).fleet(2))
        with pytest.raises(ValueError, match="declarative"):
            simulation.run()

    def test_tenants_on_single_device(self):
        run = (Simulation(CONFIG).policy("Baseline")
               .tenants("usr_1", "stg_0", n=40, seed=1)
               .condition(AGED).run())
        metrics = run.result.metrics
        assert set(metrics.tenant_latency) == {0, 1}
        total = sum(histogram.count
                    for histogram in metrics.tenant_latency.values())
        assert total == metrics.host_reads + metrics.host_writes
