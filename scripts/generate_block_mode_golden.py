"""Regenerate the golden fixtures that pin the simulator's mapping paths.

Two fixtures under ``tests/data``:

* ``block_mode_golden.json`` — the block-mapping contract.  The DFTL work
  added a ``mapping="block" | "page"`` switch to ``SsdConfig`` with the
  promise that the default block mapping stays *bitwise identical* to the
  pre-DFTL simulator.  The fixture is a smoke-scale (workload x condition x
  policy) sweep plus the per-cell metric summaries, serialized exactly as
  produced.  ``tests/test_block_mode_golden.py`` replays the same grid and
  compares every value that existed when the fixture was captured (new
  columns added later are ignored by the guard).
* ``mapper_golden.json`` — the paths that grid never reaches: block-mode
  garbage collection (cell ``block_gc``), the page-mapped DFTL with live
  GC and translation traffic (``page_mode``), the same page-mode run
  under the adversarial composite fault plan (``page_mode_faults``) and
  the adversarial smoke cell, whose grown bad blocks drive the retirement
  remap (``retirement``).  Each cell stores the full
  ``SimulationResult.summary()`` and ``distinct_read_conditions``;
  ``tests/test_mapper_golden.py`` replays :func:`capture_mapper` and
  compares every value.

Run from the repository root:

    PYTHONPATH=src python scripts/generate_block_mode_golden.py --only mapper

Without ``--only`` both fixtures are rewritten; the block fixture then
also gains the summary columns added since its capture.  Only regenerate a
fixture for an *intentional* behaviour change to the path it pins, and say
which values moved in the commit message.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core.rpt import ReadTimingParameterTable
from repro.experiments import adversarial_scenarios
from repro.sim.spec import WorkloadSpec
from repro.sim.sweep import SweepRunner
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.workloads.scenarios import make_pattern

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"
FIXTURE_PATH = DATA_DIR / "block_mode_golden.json"
MAPPER_FIXTURE_PATH = DATA_DIR / "mapper_golden.json"

#: One read-dominant and one write-dominant Table 2 workload, fresh and aged
#: conditions, the four headline policies — the smoke-suite shape.
WORKLOADS = ("usr_1", "stg_0")
CONDITIONS = ((0, 0.0), (1000, 6.0))
POLICIES = ("Baseline", "PR2", "AR2", "PnAR2")
NUM_REQUESTS = 120
SEED = 0


def capture() -> dict:
    config = SsdConfig.scaled(blocks_per_plane=24, pages_per_block=48)
    runner = SweepRunner(config=config)
    sweep = runner.run(
        policies=POLICIES,
        workloads=WORKLOADS,
        conditions=CONDITIONS,
        num_requests=NUM_REQUESTS,
        seed=SEED,
    )
    summaries = {}
    for (workload, pe_cycles, months), cell in sorted(sweep.cells.items()):
        for policy, result in cell.items():
            summaries[f"{workload}|{pe_cycles}|{months}|{policy}"] = result.metrics.summary()
    return {
        "workloads": list(WORKLOADS),
        "conditions": [list(condition) for condition in CONDITIONS],
        "policies": list(POLICIES),
        "num_requests": NUM_REQUESTS,
        "seed": SEED,
        "config": {"blocks_per_plane": 24, "pages_per_block": 48},
        "rows": sweep.rows,
        "summaries": summaries,
    }


#: The page-mapped device of ``tests/test_ssd_dftl.py``'s integration run:
#: small enough that 300 write-heavy requests reach GC steady state.
PAGE_MODE_CONFIG = SsdConfig(
    channels=2,
    dies_per_channel=1,
    planes_per_die=1,
    blocks_per_plane=12,
    pages_per_block=24,
    write_buffer_pages=16,
    mapping="page",
    cmt_capacity_entries=64,
    translation_entries_per_page=32,
    gc_free_block_threshold=3,
    gc_stop_free_blocks=5,
)
PAGE_MODE_WORKLOAD = WorkloadSpec(
    name="stg_0", num_requests=300, seed=1, mean_interarrival_us=500.0, footprint_fraction=0.5
)


def _mapper_cell(config, requests, policy, fill_fraction, faults=None) -> dict:
    simulator = SsdSimulator(config, policy=policy, rpt=ReadTimingParameterTable.default())
    simulator.precondition(pe_cycles=1000, retention_months=6.0, fill_fraction=fill_fraction)
    if faults is not None:
        simulator.install_faults(faults)
    result = simulator.run(list(requests))
    return {
        "summary": result.summary(),
        "distinct_read_conditions": simulator.distinct_read_conditions,
    }


def capture_mapper() -> dict:
    tiny = SsdConfig.tiny()
    page_requests = PAGE_MODE_WORKLOAD.build_requests(PAGE_MODE_CONFIG)
    page_horizon_us = PAGE_MODE_WORKLOAD.num_requests * PAGE_MODE_WORKLOAD.mean_interarrival_us
    scenario = adversarial_scenarios._scenario_config()
    hot_cold = make_pattern(
        "hot_cold",
        num_requests=300,
        seed=0,
        mean_interarrival_us=400.0,
        footprint_fraction=adversarial_scenarios.FOOTPRINT_FRACTION,
    )
    return {
        # Write-heavy stg_0 on the tiny block-mapped device: block GC runs.
        "block_gc": _mapper_cell(
            tiny,
            WorkloadSpec(name="stg_0", num_requests=150, seed=0).iter_requests(tiny),
            "PnAR2",
            fill_fraction=0.85,
        ),
        "page_mode": _mapper_cell(PAGE_MODE_CONFIG, page_requests, "Baseline", 0.6),
        # The composite plan (die failure, read-disturb storm, grown bad
        # blocks) on the same run.  Its 12-block planes never clear the
        # retirement guard, so every grown-bad draw is skipped here ...
        "page_mode_faults": _mapper_cell(
            PAGE_MODE_CONFIG,
            page_requests,
            "Baseline",
            0.6,
            faults=adversarial_scenarios._fault_plan(page_horizon_us, seed=0),
        ),
        # ... and the adversarial smoke cell is where blocks are retired.
        "retirement": _mapper_cell(
            scenario,
            hot_cold.iter_requests(scenario),
            "Baseline",
            adversarial_scenarios.FILL_FRACTION,
            faults=adversarial_scenarios._fault_plan(300 * 400.0, seed=0),
        ),
    }


def _write(path: Path, fixture: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", choices=("block", "mapper"), help="regenerate just one of the two fixtures"
    )
    args = parser.parse_args(argv)
    if args.only != "mapper":
        _write(FIXTURE_PATH, capture())
    if args.only != "block":
        _write(MAPPER_FIXTURE_PATH, capture_mapper())


if __name__ == "__main__":
    main()
