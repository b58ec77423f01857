"""Host-time benchmark of the read-retry simulator: one workload per call.

Run from the repository root::

    python3 perfbench/run.py --workload aged_read_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --refresh-reference       # re-take the default-seed digests

Each pass runs in a fresh interpreter (``child.py``); passes repeat until
``--seconds`` have elapsed and the report gives medians over them.  With
``--trace 0`` the report holds the end-to-end metrics of the workload as
users run it.  With ``--trace 1`` it holds the per-layer metrics: every
device runs in-process, and untraced, profiled and spanned passes take
turns; the profiler attributes host time to layers, the spans time the
public entry points.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

BENCH_ROOT = Path(__file__).resolve().parent
REPO_ROOT = BENCH_ROOT.parent
REFERENCE = BENCH_ROOT / "reference.json"

WORKLOADS = ("aged_read_sweep", "gc_write_churn", "fleet_fanout")
#: The seed the stored reference digests were taken with.
DEFAULT_SEED = 0
#: The fleet's size, and the small fleet ``device_cost_growth`` compares it with.
FLEET_DEVICES = 64
SMALL_FLEET_DEVICES = 8
#: Fewest passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
#: No new pass starts after this much time, so a run ends within 180 s.
MAX_RUN_S = 120
#: End-to-end timings are reported at the speed of a machine on which
#: ``child.calibration_kernel`` takes this long: each pass's timings are
#: scaled by this over the kernel's time in that pass.
REFERENCE_KERNEL_S = 0.1

#: Per-layer metric -> the span (see spans.py) whose self time it reports.
SPANS = {
    "workloads.gen_s": "workloads.gen",
    "router.shard_s": "router.shard",
    "controller.run_s": "controller.run",
    "ftl.precondition_s": "ftl.precondition",
    "metrics.merge_s": "metrics.merge",
    "store.save_s": "store.save",
}
#: Per-layer counts, taken from the spans or else from the simulated outputs.
COUNTERS = (
    "controller.flash_ops",
    "controller.host_requests",
    "scheduler.die_utilization",
    "retry.grid_hit_rate",
    "retry.scalar_fallbacks",
    "retry.distinct_conditions",
    "retry.mean_steps",
    "dftl.gc_invocations",
    "dftl.write_amplification",
    "dftl.cmt_hit_rate",
    "dftl.translation_ops",
    "sim.shards",
    "store.checkpoints_stored",
)


def declared_metrics() -> dict:
    """``{"end_to_end": {name: (unit, better)}, "per_layer": {...}}`` from BENCHMARK.json."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {
        group: {metric["name"]: (metric["unit"], metric["better"]) for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


class Runner:
    """Starts passes, checks them and keeps their reports."""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
            ),
            # Identical dict and set layouts from pass to pass keep host time steady.
            PYTHONHASHSEED="0",
            TMPDIR=scratch,
        )
        self.reference = {}
        if REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text())["digests"]
        self.attempted = 0
        self.errors = []

    def spawn(self, workload: str, mode: str, devices: int = 0) -> dict:
        """One pass in a fresh interpreter; returns its report (``ok`` False on failure)."""
        self.attempted += 1
        spawned_at = time.monotonic()
        command = [
            sys.executable,
            str(BENCH_ROOT / "child.py"),
            workload,
            str(self.seed),
            mode,
            str(devices),
            repr(spawned_at),
        ]
        process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The pass's session holds its pool workers too; leave none behind.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            stdout, stderr = "", f"pass timed out after {CHILD_TIMEOUT_S} s"
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {"ok": False, "error": stderr.strip() or "pass printed no report"}
        problem = self.problem(report)
        if problem:
            report["ok"] = False
            self.errors.append(f"{workload} ({mode}): {problem}")
        return report

    def problem(self, report: dict) -> str:
        if not report.get("ok"):
            return report.get("error", "failed")
        if not report["conserved"]:
            return "requests generated != requests completed"
        if self.seed == DEFAULT_SEED and self.reference is not None:
            expected = self.reference.get(report["key"])
            if expected is None:
                return f"no reference digest for {report['key']}"
            if report["digest"] != expected:
                return f"digest {report['digest']} != reference {expected}"
        return ""


def passes_until(runner: Runner, seconds: float, cycle) -> list:
    """Repeat ``cycle``, a list of ``spawn`` arguments, until the time is spent."""
    started = time.monotonic()
    rounds = []
    while len(rounds) < MIN_PASSES or time.monotonic() - started < seconds:
        rounds.append([runner.spawn(*step) for step in cycle])
        if time.monotonic() - started > MAX_RUN_S:
            break
    return rounds


def median_of(reports, value) -> float:
    values = [value(report) for report in reports if report["ok"]]
    if not values:
        raise RuntimeError("no pass succeeded")
    return statistics.median(values)


def fleet_devices(workload: str) -> int:
    return FLEET_DEVICES if workload == "fleet_fanout" else 0


def end_to_end(runner: Runner, workload: str, seconds: float) -> tuple:
    """(metrics, notes): the end-to-end metrics, and unscaled figures to print."""
    devices = fleet_devices(workload)
    passes = [cycle[0] for cycle in passes_until(runner, seconds, [(workload, "e2e", devices)])]

    def scaled(key: str):
        return lambda report: report[key] * REFERENCE_KERNEL_S / report["kernel_s"]

    wall = scaled("wall_s")
    return {
        "setup_s": median_of(passes, scaled("setup_s")),
        "wall_s": median_of(passes, wall),
        "requests_per_s": median_of(passes, lambda report: report["requests"] / wall(report)),
        "peak_rss_mib": median_of(passes, lambda report: report["peak_rss_mib"]),
    }, {
        "unscaled wall_s": median_of(passes, lambda report: report["wall_s"]),
        "calibration kernel_s": median_of(passes, lambda report: report["kernel_s"]),
    }


def per_layer(runner: Runner, workload: str, seconds: float) -> tuple:
    """(metrics, notes) of the per-layer report; it has no notes."""
    devices = fleet_devices(workload)
    cycle = [(workload, mode, devices) for mode in ("serial", "profiled", "spanned")]
    if devices:
        cycle.append((workload, "serial", SMALL_FLEET_DEVICES))
    rounds = passes_until(runner, seconds, cycle)
    untraced, profiled, spanned = ([passes[index] for passes in rounds] for index in range(3))

    def wall(report):
        return report["wall_s"]

    metrics = {}
    layer_names = list(layers.LAYERS) + [layers.UNATTRIBUTED]
    for layer in layer_names:
        metrics[f"{layer}.self_s"] = median_of(profiled, lambda r: r["layer_self_s"][layer])
        metrics[f"{layer}.share"] = median_of(
            profiled, lambda r: r["layer_self_s"][layer] / sum(r["layer_self_s"].values())
        )
    metrics["trace.unattributed_share"] = metrics.pop(f"{layers.UNATTRIBUTED}.share")
    del metrics[f"{layers.UNATTRIBUTED}.self_s"]
    for name, span in SPANS.items():
        metrics[name] = median_of(spanned, lambda r: r["span_self_s"].get(span, 0.0))
    metrics["workloads.gen_per_served"] = median_of(
        spanned,
        lambda r: r["span_counts"].get("workloads.generated", 0)
        / r["counters"]["controller.host_requests"],
    )
    for name in COUNTERS:
        metrics[name] = median_of(
            spanned, lambda r: r["span_counts"].get(name, r["counters"].get(name, 0))
        )
    metrics["sim.shard_max_s"] = median_of(
        untraced, lambda r: r["counters"].get("sim.shard_max_s", 0.0)
    )
    metrics["trace.overhead"] = median_of(profiled, wall) / median_of(untraced, wall)
    metrics["device_cost_growth"] = 0.0
    if devices:
        small = [passes[3] for passes in rounds]
        metrics["device_cost_growth"] = (median_of(untraced, wall) / FLEET_DEVICES) / (
            median_of(small, wall) / SMALL_FLEET_DEVICES
        )
    return metrics, {}


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    runner = Runner(seed, scratch)
    try:
        values, notes = (per_layer if trace else end_to_end)(runner, workload, seconds)
    except RuntimeError:
        values = None
    for error in runner.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    if values is None:
        return None
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    if set(values) != set(declared):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(values) ^ set(declared))} are "
            "measured or declared in BENCHMARK.json, not both"
        )
    failed = len(runner.errors)
    print(f"{workload}  seed {seed}  passes {runner.attempted}  failed {failed}")
    for name, (unit, better) in declared.items():
        print(f"  {name:28} {values[name]:16.6f} {unit:9} {better}")
    notes["failed_frac"] = failed / runner.attempted
    for name, value in notes.items():
        print(f"  {name:28} {value:16.6f}   (not a benchmark metric)")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, (unit, _) in declared.items()
        },
    }


def refresh_reference(scratch: str) -> int:
    """Re-take the default-seed digest of every pass kind and store it."""
    runner = Runner(DEFAULT_SEED, scratch)
    runner.reference = None
    digests = {}
    steps = [(workload, "e2e", fleet_devices(workload)) for workload in WORKLOADS]
    steps.append(("fleet_fanout", "serial", SMALL_FLEET_DEVICES))
    for workload, mode, devices in steps:
        report = runner.spawn(workload, mode, devices)
        if not report["ok"]:
            print(f"perfbench: {report.get('error')}", file=sys.stderr)
            return 1
        digests[report["key"]] = report["digest"]
    REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {REFERENCE.relative_to(REPO_ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refresh-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch_root = REPO_ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            if args.refresh_reference:
                return refresh_reference(scratch)
            workloads = WORKLOADS if args.workload == "all" else (args.workload,)
            for workload in workloads:
                result = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)
                if result is None:
                    return 1
                print(json.dumps(result))
        return 0
    finally:
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
