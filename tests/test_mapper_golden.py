"""Bitwise guard for the mapping paths the block-mode golden grid never reaches.

``tests/data/mapper_golden.json`` pins, per cell, the full
``SimulationResult.summary()`` and ``distinct_read_conditions`` of block-mode
garbage collection, a page-mapped (DFTL) run with live GC and translation
traffic, that run under the adversarial composite fault plan, and the
adversarial smoke cell, where grown bad blocks are retired and remapped.
``scripts/generate_block_mode_golden.py`` defines the cells and captured the
fixture; this test replays them and compares every captured value.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "mapper_golden.json"
SCRIPT = ROOT / "scripts" / "generate_block_mode_golden.py"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("generate_block_mode_golden",
                                                  SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.capture_mapper()


def test_fixture_cells_exercise_their_paths(golden):
    assert golden["block_gc"]["summary"]["gc_erases"] > 0
    assert golden["page_mode"]["summary"]["gc_erases"] > 0
    assert golden["page_mode"]["summary"]["translation_writes"] > 0
    assert golden["page_mode_faults"]["summary"]["faulted_reads"] > 0
    assert golden["retirement"]["summary"]["grown_bad_blocks"] > 0
    assert golden["retirement"]["summary"]["fault_remapped_pages"] > 0


@pytest.mark.parametrize("cell", ["block_gc", "page_mode", "page_mode_faults",
                                  "retirement"])
def test_cell_bitwise_identical(golden, replay, cell):
    assert set(replay) == set(golden)
    fresh = replay[cell]
    assert (fresh["distinct_read_conditions"]
            == golden[cell]["distinct_read_conditions"])
    for name, value in golden[cell]["summary"].items():
        assert fresh["summary"][name] == value, (
            f"summary[{name}] drifted for {cell}: "
            f"{fresh['summary'][name]!r} != golden {value!r}")
