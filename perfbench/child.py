"""One measured pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so process-wide caches (the
sweep's stream cache, shared retry grids, slab attachments) never serve a
later pass warm.  Usage::

    python3 perfbench/child.py WORKLOAD SEED MODE DEVICES SPAWNED_AT

``MODE`` is ``e2e`` (the workload as users run it), ``serial`` (every
device in this process), ``profiled`` (``serial`` under ``cProfile``) or
``spanned`` (``serial`` with span wrappers around the public entry points).
Profiler and spans never share a pass, so neither inflates the other.
``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process.  The last line of standard output is a JSON report.

Each pass also times :func:`calibration_kernel` just before and just after
its timed body; ``run.py`` scales the pass's timings by it, which cancels
the machine-wide speed drift of a shared host.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import pstats
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parent
SRC_ROOT = BENCH_ROOT.parent / "src"


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibration_kernel() -> float:
    """Seconds a fixed pure-Python loop takes on this machine right now.

    The loop does what the simulator's event core does (heap pushes and
    pops of tuples, dict counters, float sums) but runs no simulator code,
    so a change to the simulator cannot move it.  The cyclic garbage
    collector is off while it runs, so the heap the timed body left behind
    does not either.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        heap, counts, total = [], {}, 0.0
        for index in range(120_000):
            heapq.heappush(heap, ((index * 7919) % 10007 * 0.5, index))
            if len(heap) > 64:
                when, key = heapq.heappop(heap)
                counts[key & 255] = counts.get(key & 255, 0) + 1
                total += when
        return time.perf_counter() - started
    finally:
        gc.enable()


def measure(name: str, seed: int, mode: str, devices: int, spawned_at: float) -> dict:
    import layers
    import spans
    import suite

    workload = suite.WORKLOADS[name](seed, serial=mode != "e2e", devices=devices)
    try:
        profiler = cProfile.Profile()
        tracer = spans.Tracer()
        kernel_before = calibration_kernel()
        setup_s = time.monotonic() - spawned_at - kernel_before
        started = time.perf_counter()
        if mode == "profiled":
            result = profiler.runcall(workload.run)
        elif mode == "spanned":
            with spans.instrument(tracer):
                result = workload.run()
        else:
            result = workload.run()
        wall_s = time.perf_counter() - started
        kernel_after = calibration_kernel()
        outcome = workload.outcome(result)
    finally:
        workload.close()
    report = {
        "ok": True,
        "key": workload.key,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "kernel_s": (kernel_before + kernel_after) / 2,
        "requests": outcome.requests,
        "conserved": outcome.conserved,
        "digest": outcome.digest,
        "counters": outcome.counters,
    }
    if mode == "profiled":
        report["layer_self_s"] = layers.bucket_self_times(
            pstats.Stats(profiler).stats, SRC_ROOT.resolve(), BENCH_ROOT
        )
    if mode == "spanned":
        report["span_self_s"] = tracer.self_s
        report["span_counts"] = tracer.counts
    return report


def stop_resource_tracker() -> None:
    """Wait for the tracker process ``multiprocessing`` starts when the
    simulator publishes shared memory, so no process outlives the pass."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv) -> int:
    name, seed, mode, devices, spawned_at = argv
    try:
        report = measure(name, int(seed), mode, int(devices), float(spawned_at))
    except Exception:
        report = {"ok": False, "error": traceback.format_exc()}
    # Before the tracker is reaped: its RSS is not the simulator's.
    report["peak_rss_mib"] = peak_rss_mib()
    stop_resource_tracker()
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
