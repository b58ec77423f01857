"""Fleet checkpoint/resume and sharded execution.

Covers the rack-scale execution path: sharded runs checkpoint per-shard
device metrics and resume bitwise-identically; corrupted checkpoint entries
are detected (payload digest) and recomputed rather than trusted; a sharded
parallel run matches the serial run row for row, and a failing device
worker fails the run; every run routes its array stream once, handing
each device exactly the sub-stream the router's per-device filter yields,
while a run whose shards are all checkpointed builds no retry-grid slab;
a pooled run keeps exactly one shard in flight ahead of the fold, in one
message per worker, and still saves checkpoints byte for byte as a serial
run does; and shard timings never add up past the run's wall time.
"""

import hashlib
import json
import logging
import time

import pytest

from repro.core.rpt import ReadTimingParameterTable
from repro.experiments.reporting import jsonify
from repro.experiments.store import CheckpointStore
from repro.nand.timing import ReadTimingParameters
from repro.sim.fleet import (
    FLEET_SHARD_KIND,
    PROBE_TRAIL_KIND,
    FleetRunner,
    FleetSpec,
    SloCapacitySearch,
    _requests_digest,
    _run_fleet_device,
)
from repro.sim.spec import Condition, WorkloadSpec
from repro.sim.sweep import WorkerPool
from repro.ssd.config import SsdConfig
from repro.ssd.controller import DEFAULT_LOOKAHEAD_REQUESTS, SsdSimulator
from repro.ssd.request import HostRequest, RequestKind
from repro.ssd.retry_grid import RetryStepGrid, clear_shared_grids, rpt_fingerprint
from repro.workloads.scenarios import HotColdZone
from repro.workloads.tenants import TenantMix

CONFIG = SsdConfig.tiny()


def _workload(n=120, seed=3, interarrival=700.0):
    return WorkloadSpec(name="usr_1", num_requests=n, seed=seed,
                        mean_interarrival_us=interarrival)


def _fleet(devices=4):
    return FleetSpec(devices=devices, config=CONFIG, condition=Condition(1000, 6.0))


def _rows(run_result):
    return run_result.result.device_rows()


# -- checkpoint/resume ---------------------------------------------------------
class TestCheckpointResume:
    def test_uncheckpointed_and_checkpointed_runs_match(self, tmp_path):
        reference = FleetRunner(_fleet(), shard_devices=2).run(_workload())
        stored = FleetRunner(_fleet(), shard_devices=2, checkpoint=str(tmp_path)).run(_workload())
        assert _rows(stored) == _rows(reference)
        assert stored.result.p99() == reference.result.p99()
        assert stored.manifest["checkpoints"] == {"hits": 0, "stored": 2}

    def test_interrupted_run_resumes_bitwise_identical(self, tmp_path, caplog):
        reference = FleetRunner(_fleet(), shard_devices=1).run(_workload())
        store = CheckpointStore(tmp_path)
        FleetRunner(_fleet(), shard_devices=1, checkpoint=store).run(_workload())
        # Simulate a SIGKILL mid-run: only some shard checkpoints survive.
        entries = sorted(store.entries(FLEET_SHARD_KIND))
        assert len(entries) == 4
        for path in entries[:2]:
            path.unlink()
        with caplog.at_level(logging.INFO, logger="repro.sim.fleet"):
            resumed = FleetRunner(_fleet(), shard_devices=1, checkpoint=store).run(_workload())
        assert resumed.manifest["checkpoints"]["hits"] == 2
        assert resumed.manifest["checkpoints"]["stored"] == 2
        served = [record for record in caplog.records
                  if "served from checkpoint" in record.getMessage()]
        assert len(served) == 2
        # Bitwise equality with the never-checkpointed reference.
        assert _rows(resumed) == _rows(reference)
        assert resumed.result.p99() == reference.result.p99()
        assert resumed.result.mean_response_us() == reference.result.mean_response_us()
        flags = [timing.from_checkpoint for timing in resumed.result.shard_timings]
        assert flags.count(True) == 2 and flags.count(False) == 2

    def test_corrupt_checkpoint_is_detected_and_recomputed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runner = FleetRunner(_fleet(), shard_devices=2, checkpoint=store)
        reference = runner.run(_workload())
        assert reference.manifest["checkpoints"] == {"hits": 0, "stored": 2}
        # Tamper with one entry but keep it valid JSON: the embedded digest
        # no longer matches, so the load must miss instead of trusting it.
        path = sorted(store.entries(FLEET_SHARD_KIND))[0]
        document = json.loads(path.read_text())
        document["payload"]["devices"] = [999]
        path.write_text(json.dumps(document))
        resumed = FleetRunner(_fleet(), shard_devices=2, checkpoint=store).run(_workload())
        assert resumed.manifest["checkpoints"] == {"hits": 1, "stored": 1}
        assert _rows(resumed) == _rows(reference)

    def test_torn_checkpoint_write_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runner = FleetRunner(_fleet(2), shard_devices=2, checkpoint=store)
        reference = runner.run(_workload(60))
        path = sorted(store.entries(FLEET_SHARD_KIND))[0]
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        resumed = FleetRunner(_fleet(2), shard_devices=2, checkpoint=store).run(_workload(60))
        assert resumed.manifest["checkpoints"] == {"hits": 0, "stored": 1}
        assert _rows(resumed) == _rows(reference)

    def test_different_workload_never_hits_anothers_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path)
        FleetRunner(_fleet(2), shard_devices=2, checkpoint=store).run(_workload(60, seed=1))
        other = FleetRunner(_fleet(2), shard_devices=2, checkpoint=store).run(_workload(60, seed=2))
        assert other.manifest["checkpoints"]["hits"] == 0

    def test_an_rpt_with_another_default_timing_never_hits(self, tmp_path):
        """AR2 prices reads from the RPT's default timing, so it keys checkpoints."""
        store = CheckpointStore(tmp_path)
        flat = ReadTimingParameterTable.conservative(0.4)
        slower = ReadTimingParameterTable.conservative(
            0.4, default_timing=ReadTimingParameters(t_pre_us=30.0))
        assert rpt_fingerprint(slower) == rpt_fingerprint(flat)

        def run(rpt, checkpoint):
            runner = FleetRunner(_fleet(), rpt=rpt, shard_devices=2, checkpoint=checkpoint)
            return runner.run(_workload(200), policies="AR2")

        run(flat, store)
        resumed = run(slower, store)
        fresh = run(slower, None)
        assert resumed.manifest["checkpoints"] == {"hits": 0, "stored": 2}
        assert _rows(resumed) == _rows(fresh)
        assert resumed.result.mean_response_us() == fresh.result.mean_response_us()
        assert run(slower, store).manifest["checkpoints"] == {"hits": 2, "stored": 0}


# -- capacity-search probe trail -----------------------------------------------
class TestCapacitySearchResume:
    def test_probe_trail_replays_and_matches(self, tmp_path, caplog):
        spec = _fleet(2)

        def search(checkpoint):
            runner = FleetRunner(spec, shard_devices=1, checkpoint=checkpoint)
            return SloCapacitySearch(runner, target_p99_us=4000.0, tolerance=0.2,
                                     max_probes=4).find(_workload(60), policy="Baseline")

        reference = search(None)
        first = search(CheckpointStore(tmp_path))
        with caplog.at_level(logging.INFO, logger="repro.sim.fleet"):
            resumed = search(CheckpointStore(tmp_path))
        assert any("served from checkpoint" in record.getMessage()
                   for record in caplog.records)
        for result in (first, resumed):
            assert result.probe_rows() == reference.probe_rows()
            assert result.max_rate_rps == reference.max_rate_rps
            assert result.converged == reference.converged
        # The replayed search still materializes the winning fleet result.
        if reference.fleet is not None:
            assert resumed.fleet is not None
            assert resumed.fleet.device_rows() == reference.fleet.device_rows()

    def test_trail_is_stored_under_its_own_kind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runner = FleetRunner(_fleet(2), shard_devices=1, checkpoint=store)
        SloCapacitySearch(runner, target_p99_us=4000.0, tolerance=0.2,
                          max_probes=3).find(_workload(60))
        assert store.entries(PROBE_TRAIL_KIND)


# -- serial == sharded parallel ------------------------------------------------
class TestExecutionEquivalence:
    def test_serial_matches_sharded_parallel(self):
        serial = FleetRunner(_fleet(), shard_devices=4, processes=1).run(_workload())
        parallel = FleetRunner(_fleet(), shard_devices=2, processes=2).run(_workload())
        assert _rows(serial) == _rows(parallel)
        assert serial.result.p99() == parallel.result.p99()
        assert serial.result.mean_response_us() == parallel.result.mean_response_us()

    def test_shard_size_does_not_change_results(self):
        coarse = FleetRunner(_fleet(), shard_devices=64).run(_workload())
        fine = FleetRunner(_fleet(), shard_devices=1).run(_workload())
        assert _rows(coarse) == _rows(fine)
        assert len(coarse.result.shard_timings) == 1
        assert len(fine.result.shard_timings) == 4

    def test_a_failing_device_worker_fails_the_run(self, monkeypatch):
        def boom(payload):
            raise RuntimeError("worker crashed mid-shard")

        monkeypatch.setattr("repro.sim.fleet._run_fleet_device", boom)
        with pytest.raises(RuntimeError, match="worker crashed"):
            FleetRunner(_fleet(2), shard_devices=2).run(_workload(60))


# -- route once per run --------------------------------------------------------
def _explicit_requests():
    """Unsorted mixed reads and writes, several pages each."""
    return [
        HostRequest(arrival_us=float((i * 37) % 90) * 400.0,
                    kind=RequestKind.WRITE if i % 4 == 0 else RequestKind.READ,
                    start_lpn=(i * 53) % 2700, page_count=1 + i % 6, queue_id=i % 3)
        for i in range(90)
    ]


#: Factories for an array-level source of every kind the runner accepts.
ROUTED_SOURCES = {
    "workload_spec": lambda: _workload(90),
    "tenant_mix": lambda: TenantMix(tenants=(_workload(45, seed=1), _workload(45, seed=2))),
    "scenario": lambda: HotColdZone(num_requests=90, mean_interarrival_us=700.0, seed=4),
    "explicit": _explicit_requests,
}


def _array_stream(source, fleet):
    """The array-level stream a source describes for ``fleet``."""
    if isinstance(source, list):
        return sorted(source, key=lambda request: request.arrival_us)
    return list(source.iter_requests(CONFIG, footprint_pages=fleet.array_logical_pages))


def _record_device_streams(monkeypatch):
    """Digest of every request stream a device simulator runs, by device."""
    streams = {}
    run = SsdSimulator.run

    def recording_run(self, requests, lookahead=DEFAULT_LOOKAHEAD_REQUESTS):
        requests = list(requests)
        streams.setdefault(self.device_id, []).append(_requests_digest(requests))
        return run(self, iter(requests), lookahead)

    monkeypatch.setattr(SsdSimulator, "run", recording_run)
    return streams


class TestRouteOnce:
    # A 2-page stripe unit divides a 1428-page device into whole stripe
    # groups at replication 1 and 2, so every source may span the array.
    @pytest.mark.parametrize("shard_devices", [1, 3, None])
    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize("kind", sorted(ROUTED_SOURCES))
    def test_device_streams_equal_the_router_shards(
        self, monkeypatch, kind, replication, shard_devices
    ):
        fleet = FleetSpec(devices=4, stripe_unit_pages=2, replication=replication,
                          config=CONFIG, condition=Condition(1000, 6.0))
        source = ROUTED_SOURCES[kind]()
        streams = _record_device_streams(monkeypatch)
        FleetRunner(fleet, shard_devices=shard_devices).run(source, policies="Baseline")
        stream = _array_stream(source, fleet)
        router = fleet.router()
        expected = {
            device: [_requests_digest(list(router.shard(stream, device)))]
            for device in range(fleet.devices)
        }
        assert streams == expected

    def test_serial_parallel_and_resumed_runs_agree(self, tmp_path):
        fleet = FleetSpec(devices=4, stripe_unit_pages=2, replication=2,
                          config=CONFIG, condition=Condition(1000, 6.0))
        mix = TenantMix(tenants=(_workload(60, seed=1), _workload(60, seed=2)),
                        names=("kv", "log"))

        def run(processes, store=None):
            runner = FleetRunner(fleet, processes=processes, shard_devices=2, checkpoint=store)
            return runner.run(mix, policies="PnAR2").result

        serial = run(1)
        parallel = run(2)
        store = CheckpointStore(tmp_path)
        run(1, store)
        sorted(store.entries(FLEET_SHARD_KIND))[0].unlink()
        resumed = run(1, store)
        assert [timing.from_checkpoint for timing in resumed.shard_timings].count(True) == 1
        assert "tenants" in serial.summary()
        for other in (parallel, resumed):
            assert other.device_rows() == serial.device_rows()
            assert other.summary() == serial.summary()

    def test_a_run_generates_the_stream_once(self, tmp_path, monkeypatch):
        workload = _workload(80)
        length = len(list(workload.iter_requests(
            CONFIG, footprint_pages=_fleet().array_logical_pages)))
        generated = []
        iter_requests = WorkloadSpec.iter_requests

        def counting(self, *args, **kwargs):
            for request in iter_requests(self, *args, **kwargs):
                generated.append(request)
                yield request

        monkeypatch.setattr(WorkloadSpec, "iter_requests", counting)
        built = []
        build_slab = RetryStepGrid._build_slab

        def recording_build(self, key):
            built.append(key)
            return build_slab(self, key)

        monkeypatch.setattr(RetryStepGrid, "_build_slab", recording_build)
        store = CheckpointStore(tmp_path)

        def generated_by_run():
            generated.clear()
            FleetRunner(_fleet(), shard_devices=2, checkpoint=store).run(
                workload, policies=("Baseline", "PnAR2"))
            return len(generated)

        # 2 policies x 2 shards share one generation of the stream.
        assert generated_by_run() == length
        # Every shard served from checkpoint: nothing is generated, and no
        # retry-grid slab is built, even in a process that holds none.
        clear_shared_grids()
        built.clear()
        assert generated_by_run() == 0
        assert built == []
        sorted(store.entries(FLEET_SHARD_KIND))[0].unlink()
        assert generated_by_run() == length
        assert built


# -- one shard ahead of the fold -------------------------------------------------
def _fail_on_device_4(payload):
    if payload["device"] == 4:
        raise RuntimeError("device 4 failed")
    return _run_fleet_device(payload)


def _track_shards_in_flight(monkeypatch):
    """Count fleet shards submitted to a pool but not yet checkpointed."""
    state = {"in_flight": 0, "most": 0, "submitted": []}
    submit = WorkerPool.submit
    save = CheckpointStore.save

    def submitting(self, func, payloads, chunksize=1):
        state["in_flight"] += 1
        state["most"] = max(state["most"], state["in_flight"])
        state["submitted"].append((len(payloads), chunksize))
        return submit(self, func, payloads, chunksize)

    def saving(self, kind, params, payload):
        if kind == FLEET_SHARD_KIND:
            state["in_flight"] -= 1
        return save(self, kind, params, payload)

    monkeypatch.setattr(WorkerPool, "submit", submitting)
    monkeypatch.setattr(CheckpointStore, "save", saving)
    return state


def _striped_fleet(devices):
    # A 2-page stripe unit divides a tiny device into whole stripe groups.
    return FleetSpec(devices=devices, stripe_unit_pages=2, config=CONFIG,
                     condition=Condition(1000, 6.0))


def _store_bytes(store):
    return {path.name: path.read_bytes() for path in store.entries(FLEET_SHARD_KIND)}


class TestShardLookAhead:
    def test_at_most_two_shards_are_in_flight(self, tmp_path, monkeypatch):
        state = _track_shards_in_flight(monkeypatch)
        run = FleetRunner(_striped_fleet(18), processes=2, shard_devices=3,
                          checkpoint=CheckpointStore(tmp_path)).run(_workload(180))
        assert run.manifest["checkpoints"] == {"hits": 0, "stored": 6}
        # Six shards, each one message of ceil(3 / 2) devices per worker.
        assert state["submitted"] == [(3, 2)] * 6
        # Shard k+1 was submitted before shard k was saved, never earlier.
        assert state["most"] == 2
        assert state["in_flight"] == 0

    def test_a_failure_in_the_shard_ahead_fails_after_earlier_saves(
        self, tmp_path, monkeypatch
    ):
        fleet = _striped_fleet(6)
        reference = FleetRunner(fleet, shard_devices=2).run(_workload(90))
        state = _track_shards_in_flight(monkeypatch)
        monkeypatch.setattr("repro.sim.fleet._run_fleet_device", _fail_on_device_4)
        store = CheckpointStore(tmp_path)
        with pytest.raises(RuntimeError, match="device 4 failed"):
            FleetRunner(fleet, processes=2, shard_devices=2, checkpoint=store).run(_workload(90))
        # Device 4's shard was submitted while shard 1 was still unsaved, yet
        # both earlier shards reached the disk before the run failed.
        assert state["most"] == 2
        assert len(store.entries(FLEET_SHARD_KIND)) == 2
        monkeypatch.setattr("repro.sim.fleet._run_fleet_device", _run_fleet_device)
        resumed = FleetRunner(fleet, processes=2, shard_devices=2, checkpoint=store).run(
            _workload(90))
        assert resumed.manifest["checkpoints"] == {"hits": 2, "stored": 1}
        assert _rows(resumed) == _rows(reference)

    def test_a_pooled_partial_resume_matches_the_serial_run(self, tmp_path):
        fleet = _striped_fleet(8)
        policies = ("Baseline", "PnAR2")

        def run(processes, store):
            return FleetRunner(fleet, processes=processes, shard_devices=2,
                               checkpoint=store).run(_workload(120), policies=policies)

        serial_store = CheckpointStore(tmp_path / "serial")
        serial = run(1, serial_store)
        pooled_store = CheckpointStore(tmp_path / "pooled")
        run(2, pooled_store)
        for path in sorted(pooled_store.entries(FLEET_SHARD_KIND))[::2]:
            path.unlink()
        pooled = run(2, pooled_store)
        assert pooled.manifest["checkpoints"] == {"hits": 4, "stored": 4}
        assert pooled.rows() == serial.rows()
        for policy in policies:
            assert pooled[policy].summary() == serial[policy].summary()
        assert _store_bytes(pooled_store) == _store_bytes(serial_store)
        assert len(_store_bytes(serial_store)) == 8

    @pytest.mark.parametrize("processes", [1, 2])
    def test_shard_times_add_up_to_at_most_the_run(self, tmp_path, processes):
        # A shard dispatched ahead of the fold does not count the fold of
        # the shard before it, which serially is that shard's simulation.
        runner = FleetRunner(_striped_fleet(8), processes=processes, shard_devices=2,
                             checkpoint=CheckpointStore(tmp_path))
        started = time.perf_counter()
        timings = runner.run(_workload(120)).result.shard_timings
        wall_s = time.perf_counter() - started
        assert len(timings) == 4
        assert all(timing.elapsed_s > 0.0 for timing in timings)
        assert sum(timing.elapsed_s for timing in timings) <= wall_s


def _jsonified_document_bytes(kind, params, payload):
    """A checkpoint file's bytes with the payload passed through ``jsonify``."""
    payload = jsonify(payload)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps({
        "kind": kind,
        "params": jsonify(dict(params)),
        "payload": payload,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }).encode("utf-8")


class TestCheckpointEncoding:
    def test_saved_bytes_equal_a_streamed_json_dump(self, tmp_path):
        store = CheckpointStore(tmp_path)
        params = {"shard": 3, "devices": (0, 2), "policy": "PnAR2"}
        payload = {"devices": [0, 1], "metrics": [{"mean": 0.1 + 0.2, "buckets": [[7, 3]]},
                                                  {"mean": 1e-300, "name": "caf\u00e9"}]}
        path = store.save(FLEET_SHARD_KIND, params, payload)
        canonical = json.dumps(jsonify(payload), sort_keys=True, separators=(",", ":"))
        document = {
            "kind": FLEET_SHARD_KIND,
            "params": jsonify(params),
            "payload": jsonify(payload),
            "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        }
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w") as handle:
            json.dump(document, handle)
        assert path.read_bytes() == streamed.read_bytes()
        assert store.load(FLEET_SHARD_KIND, params) == document["payload"]

    @pytest.mark.parametrize("payload", [
        {"devices": (0, 1)},
        {"metrics": [{"buckets": {7: 3}}]},
        {"probes": [{"rate_rps": 1.0, "p99_us": float("nan")}]},
    ])
    def test_a_payload_that_is_not_json_native_raises(self, tmp_path, payload):
        """A tuple, an int key or a NaN does not decode back equal."""
        store = CheckpointStore(tmp_path)
        with pytest.raises(TypeError, match="not JSON-native"):
            store.save(FLEET_SHARD_KIND, {"shard": 0}, payload)
        assert store.entries() == []

    def test_fleet_and_probe_trail_checkpoints_keep_their_bytes(
            self, tmp_path, monkeypatch):
        """Shard and trail files hold the bytes, digest included, that a
        jsonified payload gives."""
        saved = []
        save = CheckpointStore.save

        def recording_save(store, kind, params, payload):
            path = save(store, kind, params, payload)
            saved.append((kind, path.read_bytes(),
                          _jsonified_document_bytes(kind, params, payload)))
            return path

        monkeypatch.setattr(CheckpointStore, "save", recording_save)
        runner = FleetRunner(_fleet(2), shard_devices=1,
                             checkpoint=CheckpointStore(tmp_path))
        SloCapacitySearch(runner, target_p99_us=4000.0, tolerance=0.2,
                          max_probes=3).find(_workload(60))
        assert {kind for kind, _, _ in saved} == {FLEET_SHARD_KIND, PROBE_TRAIL_KIND}
        for _, written, expected in saved:
            assert written == expected
