"""Adversarial scenarios and the WorkloadSource protocol."""

import warnings

import pytest

from repro.ssd.config import SsdConfig
from repro.ssd.request import RequestKind
from repro.workloads.catalog import catalog_workload
from repro.workloads.scenarios import (
    PATTERNS,
    BurstTrain,
    ControlEvents,
    DiurnalCycle,
    HotColdZone,
    SequentialThenRandomRead,
    SnakeSweep,
    StridedRead,
    make_pattern,
)
from repro.workloads.source import (
    as_workload_source,
    is_workload_source,
    source_from_dict,
    source_kinds,
    source_to_dict,
)

CONFIG = SsdConfig.tiny()


def _stream(source, n=None):
    requests = list(source.iter_requests(CONFIG))
    return requests if n is None else requests[:n]


def _key(request):
    return (request.arrival_us, request.kind, request.start_lpn,
            request.page_count)


# -- leaf patterns -------------------------------------------------------------
class TestPatterns:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_same_seed_replays_identically(self, name):
        a = _stream(make_pattern(name, num_requests=60, seed=7))
        b = _stream(make_pattern(name, num_requests=60, seed=7))
        assert [_key(r) for r in a] == [_key(r) for r in b]
        assert len(a) == 60

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_arrivals_are_increasing(self, name):
        stream = _stream(make_pattern(name, num_requests=60, seed=1))
        arrivals = [r.arrival_us for r in stream]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_seq_then_random_prefix_is_sequential(self):
        source = SequentialThenRandomRead(num_requests=40,
                                          sequential_fraction=0.5, seed=0)
        stream = _stream(source)
        footprint = source._footprint(CONFIG, None)
        assert [r.start_lpn for r in stream[:20]] == [
            i % footprint for i in range(20)]
        assert all(r.kind is RequestKind.READ for r in stream)

    def test_snake_reverses_at_edges(self):
        source = SnakeSweep(num_requests=50, seed=0)
        lpns = [r.start_lpn for r in
                source.iter_requests(CONFIG, footprint_pages=10)]
        deltas = {b - a for a, b in zip(lpns, lpns[1:])}
        assert deltas == {1, -1}
        assert min(lpns) == 0 and max(lpns) == 9

    def test_stride_wraps_the_footprint(self):
        source = StridedRead(num_requests=12, stride=7, seed=0)
        lpns = [r.start_lpn for r in
                source.iter_requests(CONFIG, footprint_pages=10)]
        assert lpns == [(i * 7) % 10 for i in range(12)]

    def test_hot_cold_confines_writes_to_the_hot_zone(self):
        source = HotColdZone(num_requests=400, hot_fraction=0.1,
                             read_ratio=0.5, seed=3)
        footprint = 100
        stream = list(source.iter_requests(CONFIG, footprint_pages=footprint))
        hot_pages = 10
        writes = [r for r in stream if r.kind is RequestKind.WRITE]
        assert writes and all(r.start_lpn < hot_pages for r in writes)
        assert any(r.start_lpn >= hot_pages for r in stream)

    def test_unknown_pattern_raises(self):
        with pytest.raises(KeyError):
            make_pattern("tsunami")

    def test_validation(self):
        with pytest.raises(ValueError):
            SnakeSweep(num_requests=0)
        with pytest.raises(ValueError):
            StridedRead(stride=0)
        with pytest.raises(ValueError):
            HotColdZone(hot_fraction=1.5)


# -- arrival modulators and control events -------------------------------------
class TestWrappers:
    BASE = dict(num_requests=90, seed=5)

    def test_burst_train_keeps_the_request_mix(self):
        base = HotColdZone(**self.BASE)
        wrapped = BurstTrain(base, burst_length=16, compression=8.0,
                             idle_factor=4.0)
        plain = _stream(HotColdZone(**self.BASE))
        bursty = _stream(wrapped)
        assert [(r.kind, r.start_lpn) for r in bursty] == [
            (r.kind, r.start_lpn) for r in plain]
        arrivals = [r.arrival_us for r in bursty]
        assert arrivals == sorted(arrivals)

    def test_burst_train_compresses_within_bursts(self):
        base = SnakeSweep(**self.BASE)
        plain = _stream(SnakeSweep(**self.BASE))
        bursty = _stream(BurstTrain(base, burst_length=16, compression=8.0,
                                    idle_factor=1.0))
        # Idle factor 1 means every non-boundary gap shrinks 8x, so the
        # whole stream finishes well ahead of the unwrapped one.
        assert bursty[-1].arrival_us < plain[-1].arrival_us / 4

    def test_diurnal_cycle_preserves_order_and_mix(self):
        base = SnakeSweep(**self.BASE)
        wrapped = DiurnalCycle(base, period_us=5_000.0, amplitude=0.8)
        stream = _stream(wrapped)
        arrivals = [r.arrival_us for r in stream]
        assert arrivals == sorted(arrivals)
        assert [r.start_lpn for r in stream] == [
            r.start_lpn for r in _stream(SnakeSweep(**self.BASE))]

    def test_control_events_cadence(self):
        base = SnakeSweep(num_requests=60, seed=2)
        wrapped = ControlEvents(base, barrier_every=20, mark_every=15,
                                discard_every=12, discard_pages=2)
        stream = _stream(wrapped)
        kinds = [r.kind for r in stream]
        assert kinds.count(RequestKind.BARRIER) == 3
        assert kinds.count(RequestKind.MARK) == 4
        assert kinds.count(RequestKind.DISCARD) == 5
        assert kinds.count(RequestKind.READ) == 60
        discards = [r for r in stream if r.kind is RequestKind.DISCARD]
        assert all(r.page_count == 2 for r in discards)

    def test_wrappers_compose(self):
        source = BurstTrain(DiurnalCycle(SnakeSweep(num_requests=30, seed=1)))
        stream = _stream(source)
        assert len(stream) == 30
        assert source.label == "burst_train(diurnal(snake))"

    def test_validation(self):
        base = SnakeSweep(num_requests=10)
        with pytest.raises(ValueError):
            BurstTrain(base, burst_length=1)
        with pytest.raises(ValueError):
            DiurnalCycle(base, amplitude=1.0)
        with pytest.raises(ValueError):
            ControlEvents(base, discard_pages=0)


# -- the WorkloadSource protocol -----------------------------------------------
class TestSourceProtocol:
    def test_registry_covers_the_scenario_vocabulary(self):
        kinds = source_kinds()
        for expected in ("seq_then_random", "snake", "stride", "hot_cold",
                         "burst_train", "diurnal", "control_events",
                         "workload", "tenant_mix", "closed_loop"):
            assert expected in kinds

    @pytest.mark.parametrize("source", [
        SequentialThenRandomRead(num_requests=50, seed=4),
        SnakeSweep(num_requests=50, seed=4),
        StridedRead(num_requests=50, stride=5, seed=4),
        HotColdZone(num_requests=50, seed=4),
        BurstTrain(SnakeSweep(num_requests=50, seed=4)),
        DiurnalCycle(HotColdZone(num_requests=50, seed=4)),
        ControlEvents(SnakeSweep(num_requests=50, seed=4), barrier_every=10),
    ])
    def test_round_trip_preserves_stream(self, source):
        payload = source_to_dict(source)
        assert payload["kind"] == source.source_kind
        rebuilt = source_from_dict(payload)
        assert source_to_dict(rebuilt) == payload
        assert [_key(r) for r in _stream(rebuilt)] == [
            _key(r) for r in _stream(source)]

    def test_is_workload_source(self):
        assert is_workload_source(SnakeSweep(num_requests=10))
        assert not is_workload_source(object())
        assert not is_workload_source("snake")

    def test_as_workload_source_passthrough_and_coercions(self):
        ready = SnakeSweep(num_requests=10)
        assert as_workload_source(ready) is ready
        from repro.sim.spec import WorkloadSpec
        by_name = as_workload_source("usr_1", num_requests=20, seed=1)
        assert isinstance(by_name, WorkloadSpec)
        assert by_name.name == "usr_1" and by_name.num_requests == 20
        tagged = as_workload_source({"kind": "snake", "num_requests": 10})
        assert isinstance(tagged, SnakeSweep)

    def test_as_workload_source_rejects_junk(self):
        with pytest.raises((TypeError, KeyError, ValueError)):
            as_workload_source(42)


# -- catalog entry point -------------------------------------------------------
class TestCatalogEntryPoint:
    def test_catalog_workload_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            catalog_workload("usr_1", footprint_pages=128, seed=0)
