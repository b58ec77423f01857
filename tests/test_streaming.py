"""Tests for the streaming request path: pump, generators, no-mutation."""

import pytest

from repro.core.rpt import ReadTimingParameterTable
from repro.sim import Simulation
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.request import HostRequest, RequestKind
from repro.workloads.catalog import WORKLOAD_CATALOG, catalog_workload


@pytest.fixture(scope="module")
def config():
    return SsdConfig.tiny()


@pytest.fixture(scope="module")
def rpt():
    return ReadTimingParameterTable.default()


def _footprint(config):
    return int(config.logical_pages * 0.5)


def _stream(name, num_requests, footprint, seed=0,
            mean_interarrival_us=None):
    """A named Table 2 stream, drawn lazily."""
    return catalog_workload(name, footprint, seed=seed,
                            mean_interarrival_us=mean_interarrival_us
                            ).iter_requests(num_requests)


def _requests(*args, **kwargs):
    """The same stream, materialized."""
    return list(_stream(*args, **kwargs))


def _run(config, rpt, requests, **kwargs):
    simulator = SsdSimulator(config, policy="PnAR2", rpt=rpt)
    simulator.precondition(pe_cycles=1000, retention_months=6.0)
    return simulator.run(requests, **kwargs)


class TestGeneratorInjection:
    def test_generator_matches_list(self, config, rpt):
        footprint = _footprint(config)
        args = ("YCSB-C", 300, footprint)
        kwargs = {"seed": 1, "mean_interarrival_us": 500.0}
        from_list = _run(config, rpt, _requests(*args, **kwargs))
        from_generator = _run(config, rpt, _stream(*args, **kwargs))
        assert from_list.metrics.summary() == from_generator.metrics.summary()
        assert from_list.metrics.read_latency == \
            from_generator.metrics.read_latency
        assert from_list.metrics.mean_response_time_us() == \
            from_generator.metrics.mean_response_time_us()

    def test_iter_requests_draws_identical_requests(self, config):
        footprint = _footprint(config)
        generated = catalog_workload("usr_1", footprint, seed=7).generate(100)
        streamed = list(_stream("usr_1", 100, footprint, seed=7))
        assert [(r.arrival_us, r.kind, r.start_lpn, r.page_count)
                for r in generated] == \
            [(r.arrival_us, r.kind, r.start_lpn, r.page_count)
             for r in streamed]

    def test_every_catalog_workload_streams(self, config):
        footprint = _footprint(config)
        for name in WORKLOAD_CATALOG:
            first = next(_stream(name, 5, footprint, seed=0))
            assert first.arrival_us >= 0.0

    def test_interleaved_iterators_stay_independent(self, config):
        footprint = _footprint(config)
        workload = WORKLOAD_CATALOG["usr_1"].build(footprint, seed=0)
        reference = workload.generate(120)
        # Interleave a second, differently-sized stream: the first stream's
        # address selection must not be perturbed by the other iterator.
        first = workload.iter_requests(120)
        drawn = [next(first) for _ in range(10)]
        list(workload.iter_requests(5000))
        drawn.extend(first)
        assert [(r.arrival_us, r.start_lpn, r.page_count) for r in drawn] == \
            [(r.arrival_us, r.start_lpn, r.page_count) for r in reference]

    def test_bad_request_count_raises_at_call_site(self, config):
        # The generator split keeps validation eager: errors surface where
        # the stream is built, not on first pull inside the pump.
        with pytest.raises(ValueError, match="num_requests"):
            _stream("usr_1", 0, _footprint(config))


class TestBoundedLookahead:
    def test_event_queue_stays_bounded(self, config, rpt):
        footprint = _footprint(config)
        lookahead = 16
        total_dies = config.channels * config.dies_per_channel
        simulator = SsdSimulator(config, policy="Baseline", rpt=rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        observed = {"max_scheduled": 0, "max_events": 0}

        def probed_stream():
            for request in _stream("usr_1", 2000, footprint, seed=3,
                                   mean_interarrival_us=300.0):
                observed["max_scheduled"] = max(
                    observed["max_scheduled"], simulator._scheduled_arrivals)
                observed["max_events"] = max(observed["max_events"],
                                             len(simulator.events))
                yield request

        result = simulator.run(probed_stream(), lookahead=lookahead)
        assert result.metrics.host_reads + result.metrics.host_writes == 2000
        # The pump never holds more than the window of future arrivals, and
        # beyond those the queue only carries one in-service completion per
        # die — the queue is O(window), not O(trace).
        assert observed["max_scheduled"] <= lookahead
        assert observed["max_events"] <= lookahead + total_dies + 4

    def test_unsorted_list_is_sorted_up_front(self, config, rpt):
        footprint = _footprint(config)
        requests = _requests("usr_1", 50, footprint, seed=2)
        shuffled = list(reversed(requests))
        from_sorted = _run(config, rpt, requests)
        from_shuffled = _run(config, rpt, shuffled)
        assert from_sorted.metrics.summary() == from_shuffled.metrics.summary()

    def test_out_of_order_stream_rejected(self, config, rpt):
        def bad_stream():
            yield HostRequest(arrival_us=100_000.0, kind=RequestKind.READ,
                              start_lpn=0)
            yield HostRequest(arrival_us=0.0, kind=RequestKind.READ,
                              start_lpn=1)

        with pytest.raises(ValueError, match="ordered by arrival"):
            _run(config, rpt, bad_stream(), lookahead=1)

    def test_lookahead_validation(self, config, rpt):
        with pytest.raises(ValueError):
            _run(config, rpt, [], lookahead=0)

    def test_aborted_run_closes_generator_source(self, config, rpt):
        closed = []

        def stream():
            try:
                yield HostRequest(arrival_us=100_000.0,
                                  kind=RequestKind.READ, start_lpn=0)
                yield HostRequest(arrival_us=0.0, kind=RequestKind.READ,
                                  start_lpn=1)
            finally:
                # Stands in for iter_msrc_csv's open file handle: the abort
                # path must finalize the suspended generator promptly.
                closed.append(True)

        with pytest.raises(ValueError, match="ordered by arrival"):
            _run(config, rpt, stream(), lookahead=1)
        assert closed == [True]


class TestNoCallerMutation:
    def test_requests_unchanged_after_run(self, config, rpt):
        footprint = _footprint(config)
        requests = _requests("usr_1", 60, footprint, seed=5)
        before = [(r.arrival_us, r.kind, r.start_lpn, r.page_count,
                   r.completion_us, r.pending_pages) for r in requests]
        _run(config, rpt, requests)
        after = [(r.arrival_us, r.kind, r.start_lpn, r.page_count,
                  r.completion_us, r.pending_pages) for r in requests]
        assert before == after

    def test_same_list_replays_identically(self, config, rpt):
        footprint = _footprint(config)
        requests = _requests("YCSB-B", 80, footprint, seed=6)
        first = _run(config, rpt, requests)
        second = _run(config, rpt, requests)
        assert first.metrics.summary() == second.metrics.summary()

    def test_policies_replay_one_plain_sequence(self, config, rpt):
        footprint = _footprint(config)
        requests = _requests("usr_1", 80, footprint, seed=4,
                             mean_interarrival_us=800.0)
        run = (Simulation(config).policies("Baseline", "PnAR2")
               .requests(requests).condition(pec=1000, months=6.0)
               .rpt(rpt).run())
        assert run["PnAR2"].mean_response_time_us < \
            run["Baseline"].mean_response_time_us

    def test_multi_policy_factory_matches_sequence(self, config, rpt):
        footprint = _footprint(config)

        def factory():
            return _stream("usr_1", 80, footprint, seed=4,
                           mean_interarrival_us=800.0)

        def run(simulation):
            return (simulation.policies("Baseline", "PnAR2")
                    .condition(pec=1000, months=6.0).rpt(rpt).run())

        streaming = run(Simulation(config).stream(factory))
        materialized = run(Simulation(config).requests(list(factory())))
        for policy in ("Baseline", "PnAR2"):
            assert streaming[policy].metrics.summary() == \
                materialized[policy].metrics.summary()


class TestSessionStreaming:
    def test_stream_factory_matches_workload_spec(self, tiny_ssd_config):
        footprint = _footprint(tiny_ssd_config)

        def factory():
            return _stream("usr_1", 60, footprint, seed=1,
                           mean_interarrival_us=700.0)

        streamed = (Simulation(tiny_ssd_config)
                    .policy("PnAR2")
                    .stream(factory)
                    .condition(pec=1000, months=6.0)
                    .run())
        explicit = (Simulation(tiny_ssd_config)
                    .policy("PnAR2")
                    .requests(list(factory()))
                    .condition(pec=1000, months=6.0)
                    .run())
        assert streamed.result.metrics.summary() == \
            explicit.result.metrics.summary()
        assert streamed.manifest["workload"] == {"stream": "factory"}

    def test_stream_requires_callable(self, tiny_ssd_config):
        with pytest.raises(TypeError):
            Simulation(tiny_ssd_config).stream([1, 2, 3])

    def test_shared_exhausted_iterator_rejected(self, tiny_ssd_config):
        footprint = _footprint(tiny_ssd_config)
        shared = _stream("usr_1", 40, footprint, seed=1)
        with pytest.raises(ValueError, match="same exhausted iterator"):
            (Simulation(tiny_ssd_config)
             .policies("Baseline", "NoRR")
             .stream(lambda: shared)
             .run())

    def test_rewrapped_shared_iterator_rejected(self, tiny_ssd_config):
        footprint = _footprint(tiny_ssd_config)
        shared = _stream("usr_1", 40, footprint, seed=1)
        # Each call returns a fresh generator object, defeating the identity
        # guard — the completed-count consistency check must still catch it.
        with pytest.raises(ValueError, match="different request counts"):
            (Simulation(tiny_ssd_config)
             .policies("Baseline", "NoRR")
             .stream(lambda: (request for request in shared))
             .run())

    def test_head_disordered_msrc_timestamps_clamp_to_zero(self):
        import io

        from repro.workloads import iter_msrc_csv
        rows = "100,host,0,Read,0,4096\n40,host,1,Read,4096,4096\n" \
               "150,host,0,Write,8192,4096\n"
        records = list(iter_msrc_csv(io.StringIO(rows)))
        assert [r.timestamp_us for r in records] == [0.0, 0.0, 5.0]

    def test_lookahead_widens_reorder_tolerance(self, tiny_ssd_config):
        # Two requests swapped in stream order but within a wide window
        # replay fine; with a window of 1 the same stream is rejected.
        def swapped():
            yield HostRequest(arrival_us=500.0, kind=RequestKind.READ,
                              start_lpn=0)
            yield HostRequest(arrival_us=100.0, kind=RequestKind.READ,
                              start_lpn=1)

        run = (Simulation(tiny_ssd_config)
               .policy("NoRR")
               .stream(swapped)
               .lookahead(64)
               .run())
        assert run.result.metrics.host_reads == 2
        with pytest.raises(ValueError, match="ordered by arrival"):
            (Simulation(tiny_ssd_config)
             .policy("NoRR")
             .stream(swapped)
             .lookahead(1)
             .run())
        with pytest.raises(ValueError):
            Simulation(tiny_ssd_config).lookahead(0)

    def test_summary_rows_carry_tail_columns(self, tiny_ssd_config):
        run = (Simulation(tiny_ssd_config)
               .policies("Baseline", "PnAR2")
               .workload("usr_1", n=60)
               .condition(pec=1000, months=6.0)
               .run())
        for row in run.summary_rows():
            assert "p99_response_us" in row
            assert "p999_response_us" in row
            assert row["p999_response_us"] >= row["p99_response_us"]
