#!/usr/bin/env python3
"""Check that two checkouts simulate a fixed corpus of scenarios bit for bit alike.

Run from anywhere::

    python3 scripts/equivalence.py PARENT_DIR CHANGE_DIR [--expect-change NAME ...]
                                   [--expect-listed]

The corpus is :func:`corpus`: about 40 small scenarios on ``SsdConfig.tiny()`` devices.  It
covers both mappings, the paper's retry policies, garbage-collection storms, every fault kind, a
tenant mix, closed loops, discard, barrier and mark events, an MSRC CSV that the script writes
itself, ``suspension`` and ``read_priority`` off, and a ``SweepRunner`` and a ``FleetRunner``
with two worker processes.  One scenario runs both runners on a larger geometry, where the retry
grid counts reads before a condition's promotion and evicts slabs.  The scenarios use only public
API that both checkouts have.

Each checkout runs the whole corpus in a fresh interpreter: this script with ``--emit`` and
``PYTHONPATH=<checkout>/src``.  It prints one JSON record per scenario: every host request's
completion time (through ``on_request_complete``, or the closed-loop source's ``on_complete``),
every die's busy time, ``summary()`` and ``distinct_read_conditions``.  Floats travel as their
``repr``, so equal records are equal to the last bit.

The parent is the oracle, so there is no fixture to refresh.  For every scenario that differs,
the script prints its first difference; for a request, that is its arrival index, kind, LPN and
both completion times.  It exits 1 when a scenario raises on either side, and unless the
scenarios that differ are exactly those named by ``--expect-change``, which a change that moves
outputs on purpose uses to name what it moves.  ``--expect-listed`` adds the names the change
lists in ``scripts/equivalence_expected.txt``, but only where its copy of that file differs from
the parent's: a list counts for the change that writes it, and the next change inherits none.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

#: Where a change lists the scenarios it moves on purpose, one name a line (``#`` comments).
EXPECTED_LIST = Path("scripts") / "equivalence_expected.txt"

#: The retry policies every mapping runs under.
PAPER_POLICIES = ("Baseline", "PR2", "AR2", "PnAR2")

#: ``SsdConfig.tiny()`` overrides for a 320-block page-mapped device: its retry grid keeps a
#: condition's slab from the condition's second read (``tiny()``'s 64 blocks keep one from the
#: first), and garbage collection creates a new condition every few dozen writes.
PROMOTING = {
    "planes_per_die": 2,
    "blocks_per_plane": 40,
    "pages_per_block": 8,
    "gc_free_block_threshold": 3,
    "gc_stop_free_blocks": 5,
    "cmt_capacity_entries": 128,
    "translation_entries_per_page": 64,
}


# -- running one scenario ------------------------------------------------------------------------
def _config(mapping: str, overrides: dict):
    from repro.ssd.config import SsdConfig

    return SsdConfig.tiny(mapping=mapping, **overrides)


def _simulator(config, policy: str, condition: tuple, fill: float, faults, tenants: bool):
    from repro.sim.spec import Condition, preconditioned_simulator
    from repro.ssd.faults import FaultPlan

    return preconditioned_simulator(
        config,
        policy,
        Condition(*condition, fill_fraction=fill),
        faults=FaultPlan.coerce(faults, seed=3),
        track_tenants=tenants,
    )


class _Completions:
    """Completion times of host requests, by arrival index."""

    def __init__(self):
        self.requests = []
        self.index = {}
        self.times = {}

    def issue(self, requests) -> list:
        for request in requests:
            self.index[id(request)] = len(self.requests)
            self.requests.append(request)
        return requests

    def complete(self, request, now_us: float) -> None:
        self.times.setdefault(self.index[id(request)], []).append(now_us)

    def rows(self) -> list:
        """``[arrival index, kind, LPN, page count, completion times]`` per request."""
        times = self.times
        return [
            [index, request.kind.value, request.start_lpn, request.page_count, times.get(index)]
            for index, request in enumerate(self.requests)
        ]


class _ClosedLoop:
    """A closed-loop source that records what it issues and when each completes."""

    def __init__(self, source, completions: _Completions):
        self.source = source
        self.completions = completions

    def start(self) -> list:
        return self.completions.issue(self.source.start())

    def on_complete(self, request, now_us: float) -> list:
        self.completions.complete(request, now_us)
        return self.completions.issue(self.source.on_complete(request, now_us))


def _result_record(result) -> dict:
    busy = result.metrics.die_busy_us
    return {
        "dies": [[list(key), busy[key]] for key in sorted(busy)],
        "summary": result.summary(),
        "distinct_read_conditions": result.distinct_read_conditions,
    }


def _after(requests: list, simulator) -> list:
    """``requests``, moved later by the simulator's clock when it has run before."""
    from repro.ssd.request import HostRequest

    offset_us = simulator.events.now_us
    if not offset_us:
        return requests
    return [
        HostRequest(
            request.arrival_us + offset_us,
            request.kind,
            request.start_lpn,
            request.page_count,
            queue_id=request.queue_id,
        )
        for request in requests
    ]


def device(
    source,
    mapping="block",
    policy="PnAR2",
    condition=(1000, 6.0),
    fill=0.6,
    faults=(),
    stream=False,
    lookahead=64,
    runs=1,
    **overrides,
) -> dict:
    """One preconditioned device running ``source`` (``source(config)`` for a closed loop).

    ``stream`` feeds the requests as an iterator rather than a list; ``runs`` splits them over
    that many consecutive runs of the same simulator.
    """
    config = _config(mapping, overrides)
    tenants = getattr(source, "tracks_tenants", False)
    simulator = _simulator(config, policy, condition, fill, faults, tenants)
    completions = _Completions()
    if callable(source):
        result = simulator.run_closed_loop(_ClosedLoop(source(config), completions))
        record = _result_record(result)
    else:
        simulator.on_request_complete = completions.complete
        requests = list(source.iter_requests(config))
        share = -(-len(requests) // runs)
        for first in range(0, len(requests), share):
            part = completions.issue(_after(requests[first : first + share], simulator))
            result = simulator.run(iter(part) if stream else part, lookahead=lookahead)
        record = _result_record(result)
    record["requests"] = completions.rows()
    return record


def sweep(processes: int) -> dict:
    """A ``SweepRunner`` grid: every cell's record and the sweep's rows."""
    from repro.sim.spec import WorkloadSpec
    from repro.sim.sweep import SweepRunner

    specs = [
        WorkloadSpec(name=name, num_requests=200, seed=2, mean_interarrival_us=500.0)
        for name in ("usr_1", "YCSB-E")
    ]
    runner = SweepRunner(config=_config("block", {}), processes=processes)
    result = runner.run(
        policies=("Baseline", "PnAR2"), workloads=specs, conditions=((1000, 6.0), (2000, 12.0))
    )
    return _sweep_record(result)


def _sweep_record(result) -> dict:
    cells = {
        f"{key}/{policy}": _result_record(cell[policy])
        for key, cell in sorted(result.cells.items())
        for policy in sorted(cell)
    }
    return {"cells": cells, "rows": result.rows}


def fleet(processes: int) -> dict:
    """A ``FleetRunner`` array: every policy's merged summary and device rows."""
    from repro.sim.fleet import FleetRunner, FleetSpec
    from repro.sim.spec import Condition, WorkloadSpec

    spec = FleetSpec(
        devices=4,
        stripe_unit_pages=4,
        config=_config("block", {}),
        condition=Condition(1000, 6.0),
    )
    source = WorkloadSpec(name="usr_1", num_requests=400, seed=4, mean_interarrival_us=200.0)
    run = FleetRunner(spec, processes=processes, shard_devices=2).run(
        source, policies=("Baseline", "PnAR2")
    )
    return _fleet_record(run)


def _fleet_record(run) -> dict:
    return {
        policy: {
            "summary": result.summary(),
            "merged": result.merged.summary(),
            "devices": result.device_rows(),
        }
        for policy, result in run
    }


def promoting_grid() -> dict:
    """A serial sweep, then a fleet, on one :data:`PROMOTING` grid that promotes and evicts.

    Each of the sweep's two cells reads about 40 conditions, so the grid passes its 64-slab bound
    during the second.  The fleet's devices, at two conditions, read on the full grid the sweep
    left, where the slab LRU decides which conditions a read finds and which it promotes again.
    """
    from repro.sim.fleet import FleetRunner, FleetSpec
    from repro.sim.spec import Condition, WorkloadSpec
    from repro.sim.sweep import SweepRunner

    config = _config("page", PROMOTING)
    workload = WorkloadSpec(name="hm_0", num_requests=3000, seed=1, mean_interarrival_us=400.0)
    swept = SweepRunner(config=config).run(
        policies=("PnAR2",), workloads=[workload], conditions=((1000, 6.0), (2000, 12.0))
    )
    spec = FleetSpec(
        devices=2,
        stripe_unit_pages=4,
        config=config,
        device_conditions=(Condition(1000, 6.0), Condition(3000, 24.0)),
    )
    source = WorkloadSpec(name="hm_0", num_requests=3000, seed=2, mean_interarrival_us=200.0)
    run = FleetRunner(spec).run(source, policies=("PnAR2",))
    return {"sweep": _sweep_record(swept), "fleet": _fleet_record(run)}


def msrc_trace(path: str) -> None:
    """Write a small seeded MSRC-format CSV trace to ``path``."""
    from repro.workloads.trace import TraceRecord, write_msrc_csv

    draw = random.Random(5)
    records = []
    timestamp_us = 0.0
    for _ in range(300):
        timestamp_us += draw.uniform(50.0, 900.0)
        pages = draw.choice((1, 1, 1, 2, 4))
        records.append(
            TraceRecord(
                timestamp_us=round(timestamp_us, 1),
                is_read=draw.random() < 0.7,
                offset_bytes=draw.randrange(0, 1 << 28, 4096),
                size_bytes=pages * 16384 - draw.choice((0, 4096)),
            )
        )
    write_msrc_csv(records, path)


# -- the corpus ----------------------------------------------------------------------------------
def corpus(workdir: str) -> dict:
    """The scenarios by name, each a function of no arguments that returns its record."""
    from repro.sim.spec import WorkloadSpec
    from repro.ssd.faults import die_failure, grown_bad_blocks, plane_failure, read_disturb
    from repro.workloads.closed_loop import ClosedLoopSource
    from repro.workloads.scenarios import BurstTrain, ControlEvents, HotColdZone
    from repro.workloads.tenants import TenantMix
    from repro.workloads.trace import TraceReplay

    def spec(name="usr_1", requests=300, interarrival_us=400.0, seed=1):
        return WorkloadSpec(
            name=name,
            num_requests=requests,
            seed=seed,
            mean_interarrival_us=interarrival_us,
            footprint_fraction=0.5,
        )

    def closed_loop(name, clients, depth):
        return partial(
            ClosedLoopSource, name, clients=clients, queue_depth=depth, total_requests=300, seed=6
        )

    mixed = spec("hm_0", interarrival_us=250.0)
    storm = spec("stg_0", requests=1200, interarrival_us=150.0)
    small_cmt = {"cmt_capacity_entries": 32, "translation_entries_per_page": 16}
    tenants = TenantMix(tenants=(spec("usr_1", seed=7), spec("stg_0", 200, 600.0, seed=8)))
    hot_cold = HotColdZone(num_requests=400, mean_interarrival_us=200.0, seed=9)
    trace_path = os.path.join(workdir, "trace.csv")
    msrc_trace(trace_path)
    scenarios = {}
    for mapping in ("block", "page"):
        for policy in PAPER_POLICIES:
            scenarios[f"{mapping}-{policy}"] = partial(device, spec(), mapping, policy)
    scenarios.update(
        {
            "block-NoRR": partial(device, spec(), policy="NoRR"),
            "block-PSO+PnAR2": partial(device, spec(), policy="PSO+PnAR2"),
            "block-fresh": partial(device, spec("YCSB-C"), policy="Baseline", condition=(0, 0.0)),
            "block-scans-aged": partial(device, spec("YCSB-E"), condition=(2000, 12.0)),
            "page-scans": partial(device, spec("YCSB-E"), "page", "AR2"),
            "block-gc-storm": partial(device, storm, fill=0.7),
            "page-gc-storm": partial(device, storm, "page", fill=0.7, **small_cmt),
            "page-gc-storm-AR2": partial(
                device, storm, "page", "AR2", condition=(2000, 12.0), fill=0.7, **small_cmt
            ),
            "block-die-failure": partial(
                device, mixed, faults=[die_failure(20000.0, 0, 1, extra_retry_steps=2)]
            ),
            "block-plane-failure": partial(
                device, mixed, faults=[plane_failure(10000.0, 1, 0, 0, duration_us=60000.0)]
            ),
            "block-read-disturb": partial(
                device, hot_cold, faults=[read_disturb(20000.0, 40000.0, blocks=3)]
            ),
            # Dense reads, so blocks retire while a die prices a read (a re-entrant start).
            "page-grown-bad-blocks": partial(
                device,
                spec(interarrival_us=300.0),
                "page",
                fill=0.5,
                faults=[grown_bad_blocks(20000.0, blocks=4)],
            ),
            "page-all-faults": partial(
                device,
                storm,
                "page",
                fill=0.5,
                faults=[
                    die_failure(5000.0, 1, 1, duration_us=50000.0),
                    read_disturb(20000.0, 30000.0),
                    grown_bad_blocks(40000.0, blocks=3),
                ],
            ),
            "block-tenant-mix": partial(device, tenants),
            "page-tenant-mix": partial(device, tenants, "page"),
            "block-closed-loop": partial(device, closed_loop("YCSB-C", 3, 2)),
            "page-closed-loop": partial(device, closed_loop("stg_0", 2, 4), "page"),
            "page-discard": partial(
                device, ControlEvents(mixed, discard_every=4, discard_pages=2), "page"
            ),
            "block-barrier": partial(device, ControlEvents(mixed, barrier_every=25)),
            "block-mark": partial(device, ControlEvents(spec(), mark_every=10)),
            "page-control-events": partial(
                device,
                ControlEvents(storm, barrier_every=100, mark_every=7, discard_every=9),
                "page",
            ),
            "block-msrc-csv": partial(device, TraceReplay(trace_path), stream=True),
            "block-no-suspension": partial(device, mixed, suspension=False),
            "page-no-suspension": partial(device, storm, "page", suspension=False),
            "block-no-read-priority": partial(device, mixed, read_priority=False),
            "page-no-read-priority": partial(device, storm, "page", read_priority=False),
            "block-fifo": partial(device, mixed, suspension=False, read_priority=False),
            "block-burst-train": partial(
                device, BurstTrain(mixed, burst_length=16), stream=True, lookahead=4
            ),
            "block-hot-cold": partial(device, hot_cold, "block", "AR2"),
            "page-repeated-runs": partial(device, mixed, "page", runs=3),
            "sweep-processes-2": partial(sweep, 2),
            "fleet-processes-2": partial(fleet, 2),
            "page-promote-evict": promoting_grid,
        }
    )
    return scenarios


def _record(run) -> dict:
    """``run()``, or the error it raised: a scenario that fails on one side only differs."""
    try:
        return run()
    except Exception as error:  # any failure is a result to compare
        return {"error": f"{type(error).__name__}: {error}"}


def emit(names) -> dict:
    """Run the named scenarios (all when ``names`` is empty); their records by name."""
    with tempfile.TemporaryDirectory() as workdir:
        scenarios = corpus(workdir)
        unknown = sorted(set(names) - set(scenarios))
        if unknown:
            raise SystemExit(f"unknown scenarios: {', '.join(unknown)}")
        return {name: _record(run) for name, run in scenarios.items() if not names or name in names}


# -- comparing two checkouts -----------------------------------------------------------------------
def _text(value) -> str:
    return json.dumps(value, sort_keys=True)


def _times(times) -> str:
    if not times:
        return "no time (it never completes)"
    return " and ".join(f"{when!r} us" for when in times)


def first_difference(parent: dict, change: dict) -> str:
    """How one scenario's records first differ, or ``""`` when they are equal."""
    if _text(parent) == _text(change):
        return ""
    rows = zip(parent.get("requests", ()), change.get("requests", ()))
    for before, after in rows:
        if before != after:
            index, kind, lpn = after[:3]
            return (
                f"request {index} ({kind}, LPN {lpn}) completes at {_times(before[4])} in the "
                f"parent and at {_times(after[4])} in the change"
            )
    if len(parent.get("requests", ())) != len(change.get("requests", ())):
        return "the request streams differ in length"
    for key in sorted(set(parent) | set(change)):
        if _text(parent.get(key)) != _text(change.get(key)):
            return f"{key}: {_text(parent.get(key))[:300]} -> {_text(change.get(key))[:300]}"
    return "the records differ"


def compare(parent: dict, change: dict) -> dict:
    """The first difference of every scenario whose records differ, by name."""
    differences = {}
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            differences[name] = "ran on one side only"
            continue
        difference = first_difference(parent[name], change[name])
        if difference:
            differences[name] = difference
    return differences


def errors(records: dict) -> dict:
    """The error of every scenario that raised instead of finishing, by name."""
    return {name: record["error"] for name, record in records.items() if "error" in record}


def listed_changes(parent: Path, change: Path) -> list:
    """The names in the change's :data:`EXPECTED_LIST`, or none if it reads as the parent's."""
    texts = []
    for checkout in (parent, change):
        path = checkout / EXPECTED_LIST
        texts.append(path.read_text() if path.is_file() else "")
    if texts[0] == texts[1]:
        return []
    names = (line.split("#", 1)[0].strip() for line in texts[1].splitlines())
    return [name for name in names if name]


def run_checkout(checkout: Path) -> dict:
    """Run the corpus in a fresh interpreter on ``checkout``'s sources."""
    environment = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="the parent checkout (the oracle)")
    parser.add_argument("change", nargs="?", type=Path, help="the changed checkout")
    parser.add_argument("--expect-change", nargs="+", default=[], metavar="NAME")
    parser.add_argument(
        "--expect-listed",
        action="store_true",
        help=f"also expect the names the change writes into its {EXPECTED_LIST}",
    )
    parser.add_argument("--emit", nargs="*", metavar="NAME", help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options.emit is not None:
        json.dump(emit(options.emit), sys.stdout)
        return 0
    if options.parent is None or options.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    expected = set(options.expect_change)
    if options.expect_listed:
        listed = listed_changes(options.parent, options.change)
        print(f"{EXPECTED_LIST} expects a change in: {' '.join(listed) or 'nothing'}")
        expected.update(listed)
    records = {}
    for side, checkout in (("parent", options.parent), ("change", options.change)):
        started = time.perf_counter()
        records[side] = run_checkout(checkout)
        seconds = time.perf_counter() - started
        print(f"{side}: {len(records[side])} scenarios in {seconds:.1f} s ({checkout})")
    raised = False
    for side, side_records in records.items():
        for name, error in errors(side_records).items():
            print(f"ERROR {name} in the {side}: {error}")
            raised = True
    differences = compare(records["parent"], records["change"])
    for name, difference in differences.items():
        print(f"DIFFERS {name}: {difference}")
    for name in sorted(expected - set(differences)):
        print(f"expected a change in {name}, but it is identical")
    # A scenario that raises on both sides is equal, but it shows nothing.
    passed = not raised and set(differences) == expected
    print("equivalence: " + ("holds" if passed else "FAILS"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
