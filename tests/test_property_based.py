"""Property-based tests (Hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.latency import ReadLatencyModel
from repro.ecc.bch import BchCode
from repro.errors import CodewordErrorModel, OperatingCondition
from repro.errors.timing import ReadTimingErrorModel, TimingReduction
from repro.nand.geometry import ChipGeometry, PageType
from repro.nand.timing import ReadTimingParameters
from repro.nand.voltage import ReadRetryTable
from repro.ssd.engine import EventQueue
from repro.ssd.write_buffer import WriteBuffer
from repro.workloads.synthetic import SyntheticWorkload, WorkloadShape

_MODEL = CodewordErrorModel()
_TIMING_MODEL = ReadTimingErrorModel()
_LATENCY = ReadLatencyModel()
_BCH = BchCode(m=6, t=3)

conditions = st.builds(
    OperatingCondition,
    pe_cycles=st.integers(min_value=0, max_value=3000),
    retention_months=st.floats(min_value=0.0, max_value=24.0,
                               allow_nan=False, allow_infinity=False),
    temperature_c=st.sampled_from([30.0, 55.0, 85.0]),
)

page_types = st.sampled_from(list(PageType))


class TestGeometryProperties:
    @given(st.integers(min_value=0, max_value=2 * 2 * 32 * 48 - 1))
    def test_flat_index_roundtrip(self, index):
        geometry = ChipGeometry.small()
        address = geometry.address_from_flat(index)
        assert geometry.flat_page_index(address) == index

    @given(st.integers(min_value=0, max_value=2 * 2 * 32 * 48 - 1))
    def test_page_type_consistent_with_wordline(self, index):
        geometry = ChipGeometry.small()
        address = geometry.address_from_flat(index)
        assert address.page_type is geometry.page_type_of(address.page)
        assert address.wordline == geometry.wordline_of(address.page)


class TestErrorModelProperties:
    @given(conditions, page_types)
    @settings(max_examples=30, deadline=None)
    def test_expected_errors_are_non_negative_and_finite(self, condition,
                                                         page_type):
        errors = _MODEL.expected_errors(condition, page_type)
        assert np.isfinite(errors)
        assert errors >= 0.0

    @given(conditions, page_types)
    @settings(max_examples=30, deadline=None)
    def test_optimal_shift_never_increases_errors(self, condition, page_type):
        optimal = _MODEL.vth_model.optimal_shift_mv(condition)
        at_default = _MODEL.expected_errors(condition, page_type, 0.0)
        at_optimal = _MODEL.expected_errors(condition, page_type, optimal)
        assert at_optimal <= at_default + 1e-9

    @given(conditions,
           st.floats(min_value=0.0, max_value=0.55, allow_nan=False),
           st.floats(min_value=0.0, max_value=0.55, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_timing_errors_monotonic_in_pre_reduction(self, condition, low, high):
        low, high = sorted((low, high))
        few = _TIMING_MODEL.additional_errors_per_codeword(
            TimingReduction(pre=low), condition)
        many = _TIMING_MODEL.additional_errors_per_codeword(
            TimingReduction(pre=high), condition)
        assert many >= few - 1e-9

    @given(conditions, page_types)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_retry_walk_final_step_is_correctable(self, condition, page_type):
        outcome = _MODEL.walk_retry_table(condition, page_type)
        if outcome.succeeded:
            assert outcome.final_errors <= _MODEL.ecc_capability


class TestLatencyProperties:
    @given(st.integers(min_value=0, max_value=35), page_types)
    @settings(max_examples=50, deadline=None)
    def test_policy_ordering_invariant(self, steps, page_type):
        reduced = ReadTimingParameters().with_reduction(pre=0.40)
        baseline = _LATENCY.baseline(steps, page_type).response_us
        pr2 = _LATENCY.pr2(steps, page_type).response_us
        pnar2 = _LATENCY.pnar2(steps, page_type, reduced).response_us
        ar2 = _LATENCY.ar2(steps, page_type, reduced).response_us
        assert pr2 <= baseline
        assert ar2 <= baseline + 1e-9 or steps == 0
        assert pnar2 <= baseline + 1e-9
        if steps >= 2:
            # With two or more retry steps the tPRE savings outweigh the
            # one-time SET FEATURE overhead and PnAR2 wins over PR2.
            assert pnar2 < pr2 < baseline

    @given(st.integers(min_value=0, max_value=35), page_types)
    @settings(max_examples=30, deadline=None)
    def test_die_busy_at_least_response(self, steps, page_type):
        reduced = ReadTimingParameters().with_reduction(pre=0.47)
        for breakdown in (_LATENCY.baseline(steps, page_type),
                          _LATENCY.pr2(steps, page_type),
                          _LATENCY.pnar2(steps, page_type, reduced)):
            assert breakdown.die_busy_us >= breakdown.response_us - 1e-9


class TestEccProperties:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_bch_corrects_any_pattern_within_t(self, data):
        message = np.array(data.draw(st.lists(st.integers(0, 1),
                                              min_size=_BCH.k, max_size=_BCH.k)),
                           dtype=np.uint8)
        num_errors = data.draw(st.integers(min_value=0, max_value=_BCH.t))
        positions = data.draw(st.lists(st.integers(0, _BCH.n - 1),
                                       min_size=num_errors, max_size=num_errors,
                                       unique=True))
        codeword = _BCH.encode(message)
        corrupted = codeword.copy()
        for position in positions:
            corrupted[position] ^= 1
        result = _BCH.decode(corrupted)
        assert result.success
        assert np.array_equal(_BCH.extract_message(result.codeword), message)

    @given(conditions, page_types, st.integers(min_value=0, max_value=150),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_a_walk_stops_at_the_first_step_within_capability(
            self, condition, page_type, capability, entries):
        outcome = _MODEL.walk_retry_table(
            condition, page_type, table=ReadRetryTable(num_entries=entries),
            capability=capability)
        within = [step for step, errors in enumerate(outcome.errors_per_step)
                  if errors <= capability]
        if outcome.succeeded:
            assert within == [outcome.retry_steps]
            assert len(outcome.errors_per_step) == outcome.retry_steps + 1
        else:
            assert within == []
            assert len(outcome.errors_per_step) == entries + 1


class TestSimulatorPrimitivesProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=40))
    def test_event_queue_executes_in_sorted_order(self, times):
        queue = EventQueue()
        executed = []
        for time in times:
            queue.schedule(time, lambda t=time: executed.append(t))
        queue.run()
        assert executed == sorted(executed)
        assert len(executed) == len(times)

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 8)), max_size=60),
           st.integers(min_value=1, max_value=32))
    def test_write_buffer_never_exceeds_capacity(self, operations, capacity):
        buffer = WriteBuffer(capacity_pages=capacity)
        admitted_minus_released = 0
        for is_admit, pages in operations:
            if is_admit:
                if buffer.try_admit(pages):
                    admitted_minus_released += pages
            else:
                release = min(pages, buffer.used_pages)
                if release > 0:
                    buffer.release(release)
                    admitted_minus_released -= release
            assert 0 <= buffer.used_pages <= capacity
            assert buffer.used_pages == admitted_minus_released


class TestWorkloadProperties:
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_requests_stay_in_bounds(self, read_ratio, cold_ratio, seed):
        shape = WorkloadShape(read_ratio=read_ratio, cold_ratio=cold_ratio)
        workload = SyntheticWorkload(shape, footprint_pages=2048, seed=seed)
        requests = workload.generate(60)
        assert len(requests) == 60
        for request in requests:
            assert 0 <= request.start_lpn < 2048
            assert request.start_lpn + request.page_count <= 2048
            assert request.page_count >= 1
        arrivals = [request.arrival_us for request in requests]
        assert arrivals == sorted(arrivals)
