"""Tests for the discrete-event core."""

import pytest

from repro.ssd.engine import EventQueue


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(5.0, lambda: order.append("b"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(9.0, lambda: order.append("c"))
        assert queue.run() == 3
        assert order == ["a", "b", "c"]
        assert queue.now_us == 9.0

    def test_ties_preserve_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda: order.append("first"))
        queue.schedule(2.0, lambda: order.append("second"))
        queue.run()
        assert order == ["first", "second"]

    @pytest.mark.parametrize("batch", [3, 40])
    def test_every_site_draws_from_one_sequence(self, batch):
        # Small batches are pushed entry by entry and large ones heapified;
        # either way ties break in scheduling order across all three ways
        # of scheduling, and the controller's own pushes share the counter.
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda: order.append("schedule"))
        queue.schedule_call(1.0, order.append, "call")
        queue.schedule_batch(order.append, [(1.0, index) for index in range(batch)])
        queue.schedule_call(1.0, order.append, "after")
        assert queue.schedule(0.0, lambda: None) == batch + 3
        assert next(queue.sequence) == batch + 4
        queue.run()
        assert order == ["schedule", "call", *range(batch), "after"]

    def test_cancelled_events_do_not_run(self):
        queue = EventQueue()
        seen = []
        sequence = queue.schedule_call(1.0, seen.append, "cancelled")
        queue.schedule(2.0, lambda: seen.append("kept"))
        queue.cancel(sequence)
        assert queue.run() == 1
        assert seen == ["kept"]
        assert not queue.cancelled

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            queue.schedule_call(1.0, print, None)
        with pytest.raises(ValueError):
            queue.schedule_batch(print, [(6.0, None), (1.0, None)])

    def test_len_counts_pending_events_only(self):
        queue = EventQueue()
        sequences = [queue.schedule(float(time), lambda: None) for time in range(4)]
        assert len(queue) == 4
        queue.cancel(sequences[0])
        queue.cancel(sequences[0])  # cancelling twice counts once
        assert len(queue) == 3
        queue.run()
        assert len(queue) == 0
        assert not queue.heap and not queue.cancelled
