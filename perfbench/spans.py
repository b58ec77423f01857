"""Spans around the simulator's public entry points, for the spanned passes.

:func:`instrument` wraps a handful of public methods for the duration of a
``with`` block.  Each wrapped call (or each ``next()`` of a wrapped stream)
is a span; a span's self time is its duration minus the spans nested in
it, so a fleet device's ``run`` does not also count the generation and
routing it pulls through.  The wrappers only observe: every simulated
output is identical with and without them, which the benchmark checks by
digest.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    """Accumulates span self times and counts by span name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []

    def enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        started, nested = self._stack.pop()
        duration = time.perf_counter() - started
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - nested
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, func, *args, **kwargs):
        self.enter()
        try:
            return func(*args, **kwargs)
        finally:
            self.exit(name)

    def stream(self, name: str, iterable, counter: str = None) -> Iterator:
        """Re-yield ``iterable``, timing each ``next()`` as one span."""
        iterator = iter(iterable)
        try:
            while True:
                self.enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.exit(name)
                if counter is not None:
                    self.count(counter)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public entry points of each layer while the block runs."""
    from repro.experiments.store import CheckpointStore
    from repro.sim.spec import WorkloadSpec
    from repro.ssd.controller import SsdSimulator
    from repro.ssd.metrics import LatencyHistogram, SimulationMetrics
    from repro.workloads.router import StripeRouter

    originals = []

    def patch(cls, attribute, make):
        original = getattr(cls, attribute)
        originals.append((cls, attribute, original))
        setattr(cls, attribute, make(original))

    def iter_requests(original):
        def wrapper(self, *args, **kwargs):
            return tracer.stream(
                "workloads.gen", original(self, *args, **kwargs), counter="workloads.generated"
            )

        return wrapper

    def shard(original):
        def wrapper(self, stream, device):
            return tracer.stream("router.shard", original(self, stream, device))

        return wrapper

    def run(original):
        def wrapper(self, *args, **kwargs):
            result = tracer.call("controller.run", original, self, *args, **kwargs)
            tracer.count(
                "controller.flash_ops",
                sum(scheduler.completed_transactions for scheduler in self.schedulers.values()),
            )
            distinct = self.distinct_read_conditions
            tracer.counts["retry.distinct_conditions"] = max(
                tracer.counts.get("retry.distinct_conditions", 0), distinct
            )
            return result

        return wrapper

    def timed(name):
        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, *args, **kwargs)

            return wrapper

        return make

    patch(WorkloadSpec, "iter_requests", iter_requests)
    patch(StripeRouter, "shard", shard)
    patch(SsdSimulator, "run", run)
    patch(SsdSimulator, "precondition", timed("ftl.precondition"))
    patch(SimulationMetrics, "merge", timed("metrics.merge"))
    patch(LatencyHistogram, "merge", timed("metrics.merge"))
    patch(CheckpointStore, "save", timed("store.save"))
    try:
        yield tracer
    finally:
        for cls, attribute, original in reversed(originals):
            setattr(cls, attribute, original)
