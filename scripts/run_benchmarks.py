#!/usr/bin/env python
"""Run the benchmark suite and maintain the ``BENCH_<rev>.json`` trajectory.

Wraps ``pytest-benchmark`` so that performance tracking is one command:

* runs the selected benchmark suite (``micro`` by default — the hot-path
  micro-benchmarks; ``figures`` or ``all`` for the paper-artifact
  regeneration benchmarks),
* emits a machine-readable ``BENCH_<rev>.json`` snapshot keyed by the git
  revision (the repo's performance trajectory),
* streams a 200k-request synthetic trace through the simulator in a child
  process and records its **peak RSS** alongside the wall time (the
  streaming core's fixed-memory promise, gated like a time regression),
* times serial fleet runs of 8, 32 and 128 tiny devices in 16-device shards
  (1, 2 and 8 shards) with a fixed number of requests per device in a child
  process and records the **per-device cost** of each (the fleet scaling
  curve: flat when a fleet run costs O(devices) however many shards it
  spans; recorded, not gated),
* runs the fast experiment suite (``run all --profile fast``, serial, no
  artifact store) in a child process and records each experiment's **wall
  seconds** as the snapshot's ``e2e`` section (recorded, not gated),
* builds and preconditions the paper's own device (``SsdConfig.paper()``,
  Section 7.1) once per mapping, each in a fresh child process, and records
  the **wall seconds and peak RSS** before its first read as the
  ``paper_device`` row (recorded, not gated),
* compares the hot-path means against a committed baseline
  (``benchmarks/baseline.json``) and exits non-zero when any benchmark
  regressed by more than ``--max-regression`` (CI's perf gate),
* regenerates the baseline with ``--update-baseline`` (run on the reference
  machine after an intentional perf change; absolute times are
  machine-dependent, so regenerate it when the reference hardware changes).

Examples::

    python scripts/run_benchmarks.py
    python scripts/run_benchmarks.py --suite all --no-compare
    python scripts/run_benchmarks.py --no-memory   # skip the RSS micro
    python scripts/run_benchmarks.py --paper-device-child block   # one paper-device probe
    python scripts/run_benchmarks.py --update-baseline
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_BASELINE = BENCH_DIR / "baseline.json"

SUITES = {
    "micro": ["benchmarks/test_bench_micro.py"],
    "figures": [
        "benchmarks/test_bench_characterization_figures.py",
        "benchmarks/test_bench_fig14.py",
        "benchmarks/test_bench_fig15.py",
        "benchmarks/test_bench_tables.py",
    ],
    "all": ["benchmarks"],
}

#: Requests streamed by the peak-memory micro.  Large enough that an
#: accidental re-materialization of the stream or the metrics lists shows
#: up as tens of MiB of extra RSS, small enough to finish in seconds.
MEMORY_MICRO_REQUESTS = 200_000
MEMORY_MICRO_NAME = "stream_synthetic_200k"

#: Fleet sizes of the scaling curve, the array requests per device, and the
#: shard size: 16-device shards make the sizes span 1, 2 and 8 shards, so
#: any per-shard cost shows in the curve.
FLEET_SCALING_DEVICES = (8, 32, 128)
FLEET_SCALING_REQUESTS_PER_DEVICE = 50
FLEET_SCALING_SHARD_DEVICES = 16

#: The paper-device probe: each mapping's device, built and preconditioned in
#: a fresh child (no process-wide cache serves it warm) with this policy,
#: condition (P/E cycles, retention months) and fill fraction.
PAPER_DEVICE_MAPPINGS = ("block", "page")
PAPER_DEVICE_POLICY = "PnAR2"
PAPER_DEVICE_CONDITION = (1000, 6.0)
PAPER_DEVICE_FILL = 0.85

#: Body of the end-to-end child: ``run all --profile fast`` with one job and
#: no artifact store, so every experiment runs, in a fresh interpreter, so no
#: process-wide cache serves it warm.  Prints ``{experiment: wall seconds}``.
E2E_CHILD = """
import json
from repro.experiments.runner import run_suite
runs = run_suite("all", profile="fast", jobs=1)
print(json.dumps({run.name: run.seconds for run in runs}))
"""


def git_revision() -> str:
    command = ["git", "rev-parse", "--short=10", "HEAD"]
    try:
        output = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, check=True)
        return output.stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def _subprocess_env() -> dict:
    """The current environment with the repo's src/ on PYTHONPATH."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = f"{src}:{env['PYTHONPATH']}" if env.get("PYTHONPATH") else src
    return env


def run_pytest_benchmarks(suite: str, pytest_args: list) -> dict:
    """Run the suite under pytest-benchmark and return its JSON report."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        report_path = handle.name
    env = _subprocess_env()
    command = [
        sys.executable,
        "-m",
        "pytest",
        *SUITES[suite],
        "--benchmark-only",
        f"--benchmark-json={report_path}",
        "-q",
        *pytest_args,
    ]
    try:
        completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed (pytest exit {completed.returncode})")
        with open(report_path) as report:
            return json.load(report)
    finally:
        os.unlink(report_path)


def _current_rss_kib():
    """Current (not peak) RSS in KiB via /proc, or None off-Linux."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGESIZE") // 1024)
    except (OSError, ValueError, IndexError):
        return None


def _memory_child() -> int:
    """Probe body: stream a synthetic trace, print peak-RSS JSON to stdout.

    Runs in a dedicated child process so the parent's own allocations
    (pytest, report parsing) cannot pollute the peak-RSS reading.  Besides
    the absolute process peak, it reports the RSS *growth across run()*
    (`run_rss_delta_kib`) — the interpreter/numpy import footprint
    dominates the absolute number, so the delta is what a re-introduced
    per-request metrics list (or any other trace-length-proportional
    state) actually moves, and it is what the gate compares.
    """
    import resource
    import time

    from repro.core.rpt import ReadTimingParameterTable
    from repro.ssd.config import SsdConfig
    from repro.ssd.controller import SsdSimulator
    from repro.workloads import catalog_workload

    config = SsdConfig.tiny()
    footprint = int(config.logical_pages * 0.5)
    simulator = SsdSimulator(
        config, policy="PnAR2", rpt=ReadTimingParameterTable.default()
    )
    simulator.precondition(pe_cycles=1000, retention_months=6.0)
    # YCSB-C: read-dominant, so the run exercises the aged read-retry hot
    # path rather than GC churn, and the probe finishes in tens of seconds.
    # The arrival rate keeps the device below saturation — in a saturated
    # run the in-flight backlog itself grows with trace length, which would
    # measure queueing collapse instead of the streaming core's memory.
    stream = catalog_workload(
        "YCSB-C",
        footprint,
        seed=1,
        mean_interarrival_us=1500.0,
    ).iter_requests(MEMORY_MICRO_REQUESTS)
    before_kib = _current_rss_kib()
    started = time.perf_counter()
    result = simulator.run(stream)
    wall_s = time.perf_counter() - started
    # ru_maxrss is KiB on Linux, bytes on macOS; normalize to KiB.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    completed = result.metrics.host_reads + result.metrics.host_writes
    print(
        json.dumps(
            {
                "peak_rss_kib": int(peak),
                "run_rss_delta_kib": (max(0, int(peak) - before_kib)
                                      if before_kib is not None else None),
                "wall_s": wall_s,
                "requests": completed,
                "requests_per_s": completed / wall_s if wall_s > 0 else 0.0,
            }
        )
    )
    return 0


def check_memory_micro_supported() -> None:
    """Fail fast, with a clear message, where the peak-RSS probe cannot run.

    The probe needs the POSIX ``resource`` module (for ``ru_maxrss``) and
    the ability to launch a child interpreter.  Where either is missing the
    micro must not be skipped silently — that would disarm the memory gate
    without anyone noticing — so the harness stops with an actionable
    message instead of a traceback; ``--no-memory`` opts out explicitly.
    """
    try:
        import resource  # noqa: F401 - probing availability, POSIX-only
    except ImportError:
        raise SystemExit(
            "error: the streaming peak-memory micro needs the POSIX "
            "'resource' module, which this platform does not provide; "
            "re-run with --no-memory to record time-only benchmarks "
            "(the baseline memory gate is then skipped entirely)"
        )


def run_memory_micro() -> dict:
    """Run the streaming peak-memory probe in a child process."""
    try:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--memory-child"],
            cwd=REPO_ROOT,
            env=_subprocess_env(),
            capture_output=True,
            text=True,
        )
    except OSError as error:
        raise SystemExit(
            "error: the peak-memory micro could not launch its child "
            f"interpreter ({error}); re-run with --no-memory to record "
            "time-only benchmarks"
        )
    if completed.returncode != 0:
        raise SystemExit(
            f"error: the peak-memory micro failed (exit "
            f"{completed.returncode}); its stderr follows — re-run with "
            f"--no-memory to skip it:\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def _fleet_scaling_child() -> int:
    """Probe body: time one serial fleet run per size, print JSON to stdout.

    Every size runs ``usr_1`` at a fixed number of requests per device on
    half-full ``SsdConfig.tiny()`` devices, in shards of
    :data:`FLEET_SCALING_SHARD_DEVICES`, in-process, so the per-device cost
    stays flat as the fleet grows unless something in a fleet run scales
    with devices x requests or shards x requests.  An untimed run first
    fills the process-wide retry-grid and RPT caches, which every size
    would otherwise pay for differently.
    """
    import time

    from repro.sim.fleet import FleetRunner, FleetSpec
    from repro.sim.spec import Condition, WorkloadSpec
    from repro.ssd.config import SsdConfig

    def run(devices: int):
        fleet = FleetSpec(
            devices=devices,
            config=SsdConfig.tiny(),
            condition=Condition(pe_cycles=1000, retention_months=6.0, fill_fraction=0.5),
        )
        workload = WorkloadSpec(
            name="usr_1", num_requests=FLEET_SCALING_REQUESTS_PER_DEVICE * devices, seed=0
        )
        runner = FleetRunner(fleet, processes=1, shard_devices=FLEET_SCALING_SHARD_DEVICES)
        started = time.perf_counter()
        result = runner.run(workload, policies="PnAR2").result
        return time.perf_counter() - started, result

    run(FLEET_SCALING_DEVICES[0])
    curve = {}
    for devices in FLEET_SCALING_DEVICES:
        wall_s, result = run(devices)
        merged = result.merged
        curve[str(devices)] = {
            "devices": devices,
            "shards": len(result.shard_timings),
            "requests_per_device": FLEET_SCALING_REQUESTS_PER_DEVICE,
            "wall_s": wall_s,
            "per_device_ms": wall_s / devices * 1e3,
            "sub_requests": merged.host_reads + merged.host_writes,
        }
    print(json.dumps(curve))
    return 0


def run_fleet_scaling() -> dict:
    """Run the fleet scaling curve in a child process."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--fleet-scaling-child"],
        cwd=REPO_ROOT,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"error: the fleet scaling curve failed (exit {completed.returncode}); "
            f"its stderr follows:\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def _paper_device_child(mapping: str, size: str) -> int:
    """Probe body: build and precondition one device, print JSON to stdout.

    ``size`` names an :class:`~repro.ssd.config.SsdConfig` constructor
    (``paper`` for the snapshot; a test uses a small one).  The wall time
    covers :func:`~repro.sim.spec.preconditioned_simulator`, the builder
    every runner uses, default RPT included; the peak RSS is the child's
    whole peak, interpreter and imports included.
    """
    import resource
    import time

    from repro.sim.spec import Condition, preconditioned_simulator
    from repro.ssd.config import SsdConfig

    config = getattr(SsdConfig, size)(mapping=mapping)
    pe_cycles, retention_months = PAPER_DEVICE_CONDITION
    condition = Condition(pe_cycles, retention_months, fill_fraction=PAPER_DEVICE_FILL)
    started = time.perf_counter()
    preconditioned_simulator(config, PAPER_DEVICE_POLICY, condition)
    wall_s = time.perf_counter() - started
    # ru_maxrss is KiB on Linux, bytes on macOS; normalize to KiB.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    print(
        json.dumps(
            {
                "wall_s": wall_s,
                "peak_rss_mib": peak / 1024.0,
                "physical_pages": config.physical_pages,
            }
        )
    )
    return 0


def run_paper_device(size: str = "paper") -> dict:
    """Build and precondition ``SsdConfig.<size>()`` once per mapping, each in a child."""
    pe_cycles, retention_months = PAPER_DEVICE_CONDITION
    row = {
        "config": size,
        "policy": PAPER_DEVICE_POLICY,
        "pe_cycles": pe_cycles,
        "retention_months": retention_months,
        "fill_fraction": PAPER_DEVICE_FILL,
    }
    for mapping in PAPER_DEVICE_MAPPINGS:
        command = [sys.executable, str(Path(__file__).resolve())]
        command += ["--paper-device-child", mapping, "--paper-device-config", size]
        completed = subprocess.run(
            command, cwd=REPO_ROOT, env=_subprocess_env(), capture_output=True, text=True
        )
        if completed.returncode != 0:
            raise SystemExit(
                f"error: the {mapping}-mode paper-device probe failed "
                f"(exit {completed.returncode}); its stderr follows:\n{completed.stderr}"
            )
        row[mapping] = json.loads(completed.stdout)
    return row


def run_e2e() -> dict:
    """Time each experiment of the fast suite in a child process."""
    completed = subprocess.run(
        [sys.executable, "-c", E2E_CHILD],
        cwd=REPO_ROOT,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"error: the end-to-end suite run failed (exit {completed.returncode}); "
            f"its stderr follows:\n{completed.stderr}"
        )
    seconds = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: {"wall_s": wall_s} for name, wall_s in seconds.items()}


def summarize(report: dict, suite: str) -> dict:
    """Reduce the pytest-benchmark report to the trajectory schema."""
    benchmarks = {}
    for entry in report.get("benchmarks", []):
        stats = entry["stats"]
        benchmarks[entry["name"]] = {
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "median_s": stats["median"],
            "min_s": stats["min"],
            "rounds": stats["rounds"],
            "iterations": stats.get("iterations", 1),
        }
    generated_at = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return {
        "schema_version": 1,
        "revision": git_revision(),
        "generated_at": generated_at,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "suite": suite,
        "benchmarks": benchmarks,
    }


def compare_to_baseline(
    snapshot: dict,
    baseline: dict,
    max_regression: float,
    min_gate_mean_s: float = 0.0,
) -> list:
    """Mean-time regressions beyond the threshold, worst first.

    Benchmarks whose baseline mean is below ``min_gate_mean_s`` are
    reported but never gated: microsecond-scale means are dominated by
    scheduler jitter on shared CI runners, where a 30% swing carries no
    signal.
    """
    regressions = []
    for name, reference in baseline.get("benchmarks", {}).items():
        current = snapshot["benchmarks"].get(name)
        if current is None:
            continue
        if reference["mean_s"] < min_gate_mean_s:
            continue
        ratio = current["mean_s"] / reference["mean_s"]
        if ratio > 1.0 + max_regression:
            regressions.append(
                {
                    "name": name,
                    "baseline_mean_s": reference["mean_s"],
                    "current_mean_s": current["mean_s"],
                    "slowdown": ratio,
                }
            )
    regressions.sort(key=lambda entry: entry["slowdown"], reverse=True)
    return regressions


def _memory_metric_key(current: dict, reference: dict) -> str:
    """Which RSS metric the memory gate compares for one micro.

    ``run_rss_delta_kib`` (RSS growth across the streamed run) when both
    sides report it — the interpreter/numpy import footprint dominates
    absolute RSS and would mask trace-length-proportional growth — falling
    back to absolute ``peak_rss_kib`` otherwise.  The gate, the console
    report and the CI job summary all select through this single helper so
    they can never disagree.
    """
    key = "run_rss_delta_kib"
    if not reference.get(key) or not current.get(key):
        key = "peak_rss_kib"
    return key


def compare_memory_to_baseline(
    snapshot: dict, baseline: dict, max_regression: float
) -> list:
    """Peak-RSS regressions beyond the threshold (same gate as time)."""
    regressions = []
    for name, reference in (baseline.get("memory") or {}).items():
        current = (snapshot.get("memory") or {}).get(name)
        if current is None:
            continue
        key = _memory_metric_key(current, reference)
        ratio = current[key] / reference[key]
        if ratio > 1.0 + max_regression:
            regressions.append(
                {
                    "name": f"memory:{name}",
                    "metric": key,
                    "baseline_kib": reference[key],
                    "current_kib": current[key],
                    "growth": ratio,
                }
            )
    regressions.sort(key=lambda entry: entry["growth"], reverse=True)
    return regressions


def print_report(snapshot: dict, baseline: dict | None) -> None:
    reference = (baseline or {}).get("benchmarks", {})
    width = max((len(name) for name in snapshot["benchmarks"]), default=10)
    print(f"\n{'benchmark'.ljust(width)}  {'mean':>12}  {'vs baseline':>12}")
    for name, stats in sorted(snapshot["benchmarks"].items()):
        mean_us = stats["mean_s"] * 1e6
        if name in reference:
            ratio = stats["mean_s"] / reference[name]["mean_s"]
            delta = f"{(ratio - 1.0) * 100.0:+7.1f}%"
        else:
            delta = "new"
        print(f"{name.ljust(width)}  {mean_us:10.1f}us  {delta:>12}")
    reference_memory = (baseline or {}).get("memory", {})
    for name, stats in sorted((snapshot.get("memory") or {}).items()):
        peak_mib = stats["peak_rss_kib"] / 1024.0
        reference = reference_memory.get(name, {})
        key = _memory_metric_key(stats, reference)
        if reference.get(key):
            ratio = stats[key] / reference[key]
            delta = f"{(ratio - 1.0) * 100.0:+7.1f}%"
        else:
            delta = "new"
        label = f"memory:{name}"
        grew = stats.get("run_rss_delta_kib")
        grew_text = f", run +{grew / 1024.0:.1f}MiB" if grew else ""
        print(
            f"{label.ljust(width)}  {peak_mib:9.1f}MiB  {delta:>12}  "
            f"({stats['requests']} requests in {stats['wall_s']:.1f}s"
            f"{grew_text})"
        )
    for point in sorted((snapshot.get("fleet_scaling") or {}).values(),
                        key=lambda point: point["devices"]):
        label = f"fleet_scaling:{point['devices']}"
        print(
            f"{label.ljust(width)}  {point['per_device_ms']:7.1f}ms/dev  {'not gated':>12}  "
            f"({point['sub_requests']} sub-requests, {point['shards']} shards, "
            f"in {point['wall_s']:.2f}s)"
        )
    for name, entry in sorted((snapshot.get("e2e") or {}).items()):
        label = f"e2e:{name}"
        print(f"{label.ljust(width)}  {entry['wall_s']:11.3f}s  {'not gated':>12}")
    paper = snapshot.get("paper_device") or {}
    for mapping in PAPER_DEVICE_MAPPINGS:
        if mapping in paper:
            label = f"paper_device:{mapping}"
            entry = paper[mapping]
            print(
                f"{label.ljust(width)}  {entry['wall_s']:11.3f}s  {'not gated':>12}  "
                f"(build and precondition, peak RSS {entry['peak_rss_mib']:.0f}MiB)"
            )


def write_job_summary(
    snapshot: dict,
    baseline: dict | None,
    regressions: list,
    memory_regressions: list,
    max_regression: float,
    min_gate_mean_s: float,
    path: str,
    gated: bool,
) -> None:
    """Render the gate outcome as a GitHub Actions job-summary table.

    One row per micro: mean vs baseline, % delta, and the gate verdict —
    the same data the log prints, but as Markdown appended to
    ``$GITHUB_STEP_SUMMARY`` so a regression is readable from the run page
    without digging through logs.
    """
    failed_names = {entry["name"] for entry in regressions}
    failed_names.update(entry["name"] for entry in memory_regressions)
    reference = (baseline or {}).get("benchmarks", {})
    reference_memory = (baseline or {}).get("memory", {})
    lines = [
        f"### Benchmark gate — `{snapshot['revision']}` "
        f"(threshold {max_regression:.0%})",
        "",
        "| benchmark | baseline | current | delta | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]

    def status_for(name: str, ratio: float | None, gate_exempt: bool) -> str:
        if not gated:
            return "not gated"
        if name in failed_names:
            return "**FAIL**"
        if ratio is None:
            return "new"
        if gate_exempt:
            return "pass (jitter-exempt)"
        return "pass"

    for name, stats in sorted(snapshot["benchmarks"].items()):
        current_us = stats["mean_s"] * 1e6
        entry = reference.get(name)
        if entry:
            baseline_us = entry["mean_s"] * 1e6
            ratio = stats["mean_s"] / entry["mean_s"]
            delta = f"{(ratio - 1.0) * 100.0:+.1f}%"
            baseline_text = f"{baseline_us:.1f} us"
            exempt = entry["mean_s"] < min_gate_mean_s
        else:
            ratio, delta, baseline_text, exempt = None, "—", "—", False
        lines.append(
            f"| `{name}` | {baseline_text} | {current_us:.1f} us | "
            f"{delta} | {status_for(name, ratio, exempt)} |"
        )
    for name, stats in sorted((snapshot.get("memory") or {}).items()):
        entry = reference_memory.get(name, {})
        key = _memory_metric_key(stats, entry)
        current_text = f"{stats[key] / 1024.0:.1f} MiB ({key})"
        if entry.get(key):
            ratio = stats[key] / entry[key]
            delta = f"{(ratio - 1.0) * 100.0:+.1f}%"
            baseline_text = f"{entry[key] / 1024.0:.1f} MiB"
        else:
            ratio, delta, baseline_text = None, "—", "—"
        lines.append(
            f"| `memory:{name}` | {baseline_text} | {current_text} | "
            f"{delta} | {status_for(f'memory:{name}', ratio, False)} |"
        )
    total_failures = len(failed_names)
    lines.append("")
    if not gated:
        lines.append("_No baseline comparison (gate disabled for this run)._")
    elif total_failures:
        lines.append(
            f"**{total_failures} benchmark(s) regressed beyond "
            f"{max_regression:.0%}.**"
        )
    else:
        lines.append(f"All gated benchmarks within {max_regression:.0%} "
                     "of baseline.")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="micro",
        help="benchmark selection (default: micro)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="snapshot path (default: benchmarks/BENCH_<rev>.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline to gate against (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="fail when a hot-path mean regresses by more than this fraction (default: 0.30)",
    )
    parser.add_argument(
        "--min-gate-mean-us",
        type=float,
        default=100.0,
        help="only gate benchmarks whose baseline mean exceeds this many "
        "microseconds; faster ones are jitter-bound on shared runners "
        "(default: 100)",
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help="record the snapshot without gating",
    )
    parser.add_argument(
        "--no-memory",
        action="store_true",
        help="skip the streaming peak-memory micro and the baseline "
        "memory comparison entirely",
    )
    parser.add_argument(
        "--job-summary",
        type=Path,
        default=None,
        metavar="FILE",
        help="append a Markdown gate table to FILE "
        "(default: $GITHUB_STEP_SUMMARY when set)",
    )
    parser.add_argument(
        "--memory-child",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: probe body run in a child process
    )
    parser.add_argument(
        "--fleet-scaling-child",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: scaling-curve body run in a child process
    )
    parser.add_argument(
        "--paper-device-child",
        choices=PAPER_DEVICE_MAPPINGS,
        default=None,
        help=argparse.SUPPRESS,  # internal: paper-device probe run in a child process
    )
    parser.add_argument(
        "--paper-device-config",
        default="paper",
        help=argparse.SUPPRESS,  # internal: the SsdConfig constructor the probe builds
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the snapshot as the new baseline",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.memory_child:
        return _memory_child()
    if args.fleet_scaling_child:
        return _fleet_scaling_child()
    if args.paper_device_child:
        return _paper_device_child(args.paper_device_child, args.paper_device_config)

    if not args.no_memory:
        # Fail fast, before the (minutes-long) pytest benchmark run, where
        # the peak-RSS probe cannot work at all.
        check_memory_micro_supported()

    report = run_pytest_benchmarks(args.suite, args.pytest_args)
    snapshot = summarize(report, args.suite)
    if not args.no_memory:
        print(
            f"streaming {MEMORY_MICRO_REQUESTS} synthetic requests for "
            "the peak-memory micro ..."
        )
        snapshot["memory"] = {MEMORY_MICRO_NAME: run_memory_micro()}
    print(
        f"timing serial fleet runs of {'/'.join(map(str, FLEET_SCALING_DEVICES))} "
        f"devices in {FLEET_SCALING_SHARD_DEVICES}-device shards for the fleet scaling curve ..."
    )
    snapshot["fleet_scaling"] = run_fleet_scaling()
    print("timing each experiment of 'run all --profile fast' (serial, uncached) ...")
    snapshot["e2e"] = run_e2e()
    print("building and preconditioning SsdConfig.paper() in block and page mode ...")
    snapshot["paper_device"] = run_paper_device()

    output = args.output
    if output is None:
        output = BENCH_DIR / f"BENCH_{snapshot['revision']}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if args.update_baseline:
        if "memory" not in snapshot and args.baseline.exists():
            # Keep the previous memory reference rather than writing a
            # baseline without one — that would silently disarm the
            # peak-RSS gate for every subsequent run.  Covers --no-memory
            # and platforms where the probe cannot run.
            previous = json.loads(args.baseline.read_text())
            if "memory" in previous:
                snapshot = dict(snapshot, memory=previous["memory"])
                print("kept the existing memory baseline (probe skipped)")
        args.baseline.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}")
        return 0

    baseline = None
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
    print_report(snapshot, baseline)

    gated = not args.no_compare and baseline is not None
    regressions = []
    memory_regressions = []
    if gated:
        regressions = compare_to_baseline(
            snapshot,
            baseline,
            args.max_regression,
            min_gate_mean_s=args.min_gate_mean_us * 1e-6,
        )
        if not args.no_memory:
            # --no-memory runs record no memory snapshot, so comparing
            # would silently no-op; skip the memory gate explicitly.
            memory_regressions = compare_memory_to_baseline(
                snapshot, baseline, args.max_regression
            )

    summary_path = args.job_summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        write_job_summary(
            snapshot,
            baseline,
            regressions,
            memory_regressions,
            args.max_regression,
            args.min_gate_mean_us * 1e-6,
            str(summary_path),
            gated,
        )

    if args.no_compare:
        return 0
    if baseline is None:
        print(f"no baseline at {args.baseline}; skipping the perf gate")
        print("generate one with --update-baseline")
        return 0
    if regressions or memory_regressions:
        threshold = f"{args.max_regression:.0%}"
        total = len(regressions) + len(memory_regressions)
        print(f"\nFAIL: {total} benchmark(s) regressed beyond {threshold}:")
        for entry in regressions:
            baseline_us = entry["baseline_mean_s"] * 1e6
            current_us = entry["current_mean_s"] * 1e6
            times = f"{baseline_us:.1f}us -> {current_us:.1f}us"
            print(f"  {entry['name']}: {times} ({entry['slowdown']:.2f}x)")
        for entry in memory_regressions:
            sizes = (
                f"{entry['baseline_kib'] / 1024.0:.1f}MiB -> "
                f"{entry['current_kib'] / 1024.0:.1f}MiB {entry['metric']}"
            )
            print(f"  {entry['name']}: {sizes} ({entry['growth']:.2f}x)")
        return 1
    print(f"\nOK: no benchmark regressed beyond {args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
