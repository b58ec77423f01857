#!/usr/bin/env python
"""Prove that a SIGKILLed fleet run resumes bitwise-identically (CI gate).

The proof has three actors, all this one script:

* ``--search`` (child mode) runs a fixed :class:`SloCapacitySearch` over a
  sharded fleet with checkpointing rooted at ``$REPRO_CACHE_DIR`` and
  writes the fully-resolved result (probe rows, capacity summary, winning
  fleet's device rows) as canonical JSON to ``--out``;
* the default orchestrator mode runs that search three times:

  1. *reference* — uninterrupted, in a fresh cache directory;
  2. *victim* — in a second fresh cache directory and its own session,
     its main process ``SIGKILL``ed from the outside, as the OOM killer
     would, as soon as a few shard checkpoints exist on disk (a real kill
     -9, not an exception — ``finally`` blocks never run).  A kill that
     lands after the first probe's trail is saved proves less (the resume
     replays that probe without loading its shards), so the victim is then
     run again, in a fresh cache directory, up to three times;
  3. *resume* — same cache directory as the victim, run to completion.

  The gate then asserts (a) every pool worker the kill orphans exits on
  its own within seconds, (b) the resume log reports shards **served from
  checkpoint** — at least as many as were on disk once the victim had
  died — and (c) the resumed result JSON is byte-identical to the
  uninterrupted reference.  Any mismatch fails loudly with a diff-sized
  report.  With ``--processes N`` (N > 1) each run fans its shards over N
  pool workers, one device per worker per shard, and the kill waits until
  the victim's workers are up, so it lands while the pool holds the shard
  submitted ahead of the fold;
* ``--rss`` runs a 10,000-device fleet serially through bounded shards and
  asserts peak RSS stays under a fixed budget — the streaming fold's
  memory promise at rack scale.

Wall-clock use is deliberate here: this is an ops harness observing the
simulator from outside, not simulation logic.
"""

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Checkpoint files that must exist before the victim is killed.  Each
#: probe's fleet has eight shards (one device per pool worker per shard),
#: so the kill lands inside the first probe, six shards before its probe
#: trail is saved.
KILL_AFTER_CHECKPOINTS = 2

#: Victim runs tried before the proof gives up on a kill that lands
#: inside the first probe.
VICTIM_ATTEMPTS = 3

#: How long the orchestrator waits for checkpoints / child exits.
WAIT_TIMEOUT_S = 300.0

#: Peak-RSS budget of the 10k-device run (MiB).  The streaming collector
#: keeps one merged histogram plus one small row dict per device; holding
#: 10k full per-device results would blow far past this.
RSS_BUDGET_MIB = 256


# -- the workload under proof (shared by every mode) ---------------------------
def _build_search(processes: int):
    from repro.experiments.store import CheckpointStore
    from repro.sim.fleet import FleetRunner, FleetSpec, SloCapacitySearch
    from repro.sim.spec import Condition
    from repro.ssd.config import SsdConfig

    spec = FleetSpec(devices=8 * processes, stripe_unit_pages=4,
                     config=SsdConfig.tiny(),
                     condition=Condition(1000, 6.0))
    runner = FleetRunner(spec, processes=processes, shard_devices=processes,
                         checkpoint=CheckpointStore())
    return SloCapacitySearch(runner, target_p99_us=4000.0, tolerance=0.1,
                             max_probes=5)


def _search_result_document(result) -> dict:
    return {
        "summary": result.summary(),
        "probes": result.probe_rows(),
        "device_rows": result.fleet.device_rows() if result.fleet else None,
    }


def run_search(out_path: str, processes: int) -> int:
    """Child mode: run the capacity search, write canonical result JSON."""
    import logging

    from repro.sim.spec import WorkloadSpec

    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(name)s: %(message)s")
    search = _build_search(processes)
    workload = WorkloadSpec(name="usr_1", num_requests=200 * processes, seed=3,
                            mean_interarrival_us=700.0)
    result = search.find(workload, policy="PnAR2")
    document = json.dumps(_search_result_document(result),
                          sort_keys=True, separators=(",", ":"))
    Path(out_path).write_text(document + "\n")
    print(f"search finished: {len(result.probes)} probes, "
          f"max rate {result.max_rate_rps}", file=sys.stderr)
    return 0


# -- orchestrator --------------------------------------------------------------
def _spawn_search(cache_dir: str, out_path: str, processes: int,
                  new_session: bool = False) -> subprocess.Popen:
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir,
               PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--search",
         "--out", out_path, "--processes", str(processes)],
        env=env, cwd=REPO_ROOT, start_new_session=new_session,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _checkpoint_files(cache_dir: str, kind: str = "*"):
    return glob.glob(os.path.join(cache_dir, "checkpoints", kind, "*.json"))


def _live_group_members(pgid: int):
    """Pids of the processes in group ``pgid`` that have not exited (Linux).

    A process that has exited but is not yet reaped (the killed main
    process, or a worker its new parent has not waited for) is a zombie,
    so it does not count.
    """
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            members.append(int(entry))
    return members


def _survivors_after(pgid: int, seconds: float = 10.0):
    """The group's live members once they had ``seconds`` to die."""
    deadline = time.monotonic() + seconds
    while True:
        survivors = _live_group_members(pgid)
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.05)


def _fail(message: str) -> int:
    print(f"RESUME PROOF FAILED: {message}", file=sys.stderr)
    return 1


def run_proof(processes: int = 1) -> int:
    from repro.sim.fleet import FLEET_SHARD_KIND, PROBE_TRAIL_KIND

    with tempfile.TemporaryDirectory(prefix="resume_proof_") as workdir:
        reference_cache = os.path.join(workdir, "reference-cache")
        reference_out = os.path.join(workdir, "reference.json")
        resumed_out = os.path.join(workdir, "resumed.json")

        # 1. Uninterrupted reference.
        print(f"[1/3] reference run (uninterrupted, {processes} process(es)) ...")
        child = _spawn_search(reference_cache, reference_out, processes)
        _, stderr = child.communicate(timeout=WAIT_TIMEOUT_S)
        if child.returncode != 0:
            sys.stderr.write(stderr)
            return _fail(f"reference run exited {child.returncode}")

        # 2. Victim: SIGKILL its main process once enough shard checkpoints
        #    are on disk (and, pooled, while its workers are up).
        for attempt in range(1, VICTIM_ATTEMPTS + 1):
            victim_cache = os.path.join(workdir, f"victim-cache-{attempt}")
            print(f"[2/3] victim run {attempt} (SIGKILL mid-search) ...")
            child = _spawn_search(victim_cache, os.path.join(workdir, "victim.json"),
                                  processes, new_session=True)
            deadline = time.monotonic() + WAIT_TIMEOUT_S
            workers = 0
            while True:
                if len(_checkpoint_files(victim_cache)) >= KILL_AFTER_CHECKPOINTS:
                    workers = len(_live_group_members(child.pid)) - 1
                    if processes == 1 or workers > 0:
                        break
                if child.poll() is not None:
                    return _fail(
                        "victim finished before the kill landed "
                        f"(exit {child.returncode}); enlarge the search workload")
                if time.monotonic() > deadline:
                    os.killpg(child.pid, signal.SIGKILL)
                    return _fail("timed out waiting for the victim's checkpoints")
                time.sleep(0.02)
            child.kill()
            # Orphaned, the workers see their task pipe close and must exit.
            survivors = _survivors_after(child.pid)
            if survivors:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate(timeout=WAIT_TIMEOUT_S)
                return _fail(f"pool worker(s) {survivors} outlived the victim's "
                             "main process")
            child.communicate(timeout=WAIT_TIMEOUT_S)
            if child.returncode != -signal.SIGKILL:
                return _fail(f"victim exited {child.returncode}, not SIGKILL")
            observed = len(_checkpoint_files(victim_cache, FLEET_SHARD_KIND))
            if not _checkpoint_files(victim_cache, PROBE_TRAIL_KIND):
                break
            print(f"      the kill landed after the first probe's trail was saved "
                  f"({observed} shard checkpoint(s) on disk); running the victim again")
        else:
            return _fail(f"in {VICTIM_ATTEMPTS} victim runs no kill landed inside "
                         "the first probe")
        print(f"      killed with {observed} shard checkpoint(s) on disk; "
              f"{workers} orphaned pool worker(s) exited on their own")

        # 3. Resume in the victim's cache directory.
        print("[3/3] resume run (same cache directory) ...")
        child = _spawn_search(victim_cache, resumed_out, processes)
        _, stderr = child.communicate(timeout=WAIT_TIMEOUT_S)
        if child.returncode != 0:
            sys.stderr.write(stderr)
            return _fail(f"resume run exited {child.returncode}")

        served = stderr.count("served from checkpoint")
        if served < observed:
            sys.stderr.write(stderr)
            return _fail(
                f"resume log reports only {served} checkpoint-served "
                f"shard(s); at least {observed} were on disk at the kill")

        reference = Path(reference_out).read_bytes()
        resumed = Path(resumed_out).read_bytes()
        if reference != resumed:
            print("--- reference ---", file=sys.stderr)
            sys.stderr.write(reference.decode())
            print("--- resumed ---", file=sys.stderr)
            sys.stderr.write(resumed.decode())
            return _fail("resumed result is not byte-identical to the "
                         "uninterrupted reference")

        print(f"RESUME PROOF PASSED: {served} shard(s) served from "
              "checkpoint; resumed result byte-identical to the reference")
        return 0


# -- rack-scale memory proof ---------------------------------------------------
def run_rss_proof(devices: int = 10_000) -> int:
    import resource

    from repro.sim.fleet import FleetRunner, FleetSpec
    from repro.sim.spec import Condition, WorkloadSpec
    from repro.ssd.config import SsdConfig

    spec = FleetSpec(devices=devices, stripe_unit_pages=4,
                     config=SsdConfig.tiny(),
                     condition=Condition(0, 0.0, fill_fraction=0.1))
    workload = WorkloadSpec(name="usr_1", num_requests=300, seed=3,
                            mean_interarrival_us=700.0)
    started = time.monotonic()
    run = FleetRunner(spec, processes=1, shard_devices=64).run(workload)
    elapsed = time.monotonic() - started
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = run.result
    print(f"{result.device_count} devices in {elapsed:.1f}s across "
          f"{len(result.shard_timings)} shards; peak RSS {peak_mib:.0f} MiB "
          f"(budget {RSS_BUDGET_MIB} MiB)")
    if result.device_count != devices:
        return _fail(f"expected {devices} device rows, saw {result.device_count}")
    if peak_mib > RSS_BUDGET_MIB:
        return _fail(f"peak RSS {peak_mib:.0f} MiB exceeds the "
                     f"{RSS_BUDGET_MIB} MiB budget")
    print("RSS PROOF PASSED")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--search", action="store_true",
                        help="(internal) child mode: run the capacity search")
    parser.add_argument("--out", default="search_result.json",
                        help="child mode: result JSON path")
    parser.add_argument("--rss", action="store_true",
                        help="run the 10k-device bounded-memory proof instead")
    parser.add_argument("--devices", type=int, default=10_000,
                        help="--rss fleet size (default 10000)")
    parser.add_argument("--processes", type=int, default=1,
                        help="pool workers of each search run (default 1: serial)")
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error("--processes must be at least 1")
    if args.search:
        return run_search(args.out, args.processes)
    if args.rss:
        return run_rss_proof(args.devices)
    return run_proof(args.processes)


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
