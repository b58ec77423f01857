"""Tests for ``scripts/equivalence.py``: corpus scenarios run in-process."""

import copy
import importlib.util
from pathlib import Path

import pytest

from repro.ssd.retry_grid import MAX_CONDITIONS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "equivalence.py"
SCENARIOS = ["block-PnAR2", "page-discard"]


@pytest.fixture(scope="module")
def equivalence():
    spec = importlib.util.spec_from_file_location("equivalence", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="module")
def records(equivalence):
    return equivalence.emit(SCENARIOS)


def test_scenarios_record_every_request_and_die(equivalence, records):
    assert list(records) == SCENARIOS
    assert equivalence.errors(records) == {}
    for record in records.values():
        assert record["requests"]
        assert all(len(row[4]) == 1 for row in record["requests"])
        assert len(record["dies"]) == 4
    assert records["page-discard"]["summary"]["control_discards"] > 0
    assert equivalence.compare(records, copy.deepcopy(records)) == {}


def test_the_promoting_scenario_reads_before_promotion_and_evicts(equivalence):
    # The one scenario whose grid counts reads before a condition's
    # promotion: its sweep cells together read more conditions than the
    # grid keeps slabs for, so the slab LRU evicts.
    records = equivalence.emit(["page-promote-evict"])
    assert equivalence.errors(records) == {}
    record = records["page-promote-evict"]
    cells = list(record["sweep"]["cells"].values())
    assert len(cells) == 2
    assert all(cell["summary"]["scalar_fallbacks"] > 0 for cell in cells)
    assert sum(cell["distinct_read_conditions"] for cell in cells) > MAX_CONDITIONS
    assert all(result["merged"]["scalar_fallbacks"] > 0
               for result in record["fleet"].values())


def test_a_planted_difference_is_named(equivalence, records):
    change = copy.deepcopy(records)
    row = change["page-discard"]["requests"][17]
    before = row[4][0]
    row[4] = [before + 1.0]
    assert equivalence.compare(records, change) == {
        "page-discard": (
            f"request 17 ({row[1]}, LPN {row[2]}) completes at {before!r} us in the parent "
            f"and at {before + 1.0!r} us in the change")}
    change = copy.deepcopy(records)
    change["block-PnAR2"]["dies"][2][1] += 1.0
    assert list(equivalence.compare(records, change)) == ["block-PnAR2"]
    assert equivalence.compare(records, change)["block-PnAR2"].startswith("dies: ")


@pytest.mark.parametrize("expect, code", [([], 1), (["page-discard"], 0),
                                          (["page-discard", "block-PnAR2"], 1)])
def test_expect_change_passes_when_exactly_those_differ(
        equivalence, records, monkeypatch, capsys, expect, code):
    change = copy.deepcopy(records)
    change["page-discard"]["summary"]["host_reads"] += 1
    sides = {Path("parent"): records, Path("change"): change}
    monkeypatch.setattr(equivalence, "run_checkout", sides.__getitem__)
    options = ["parent", "change"]
    if expect:
        options += ["--expect-change", *expect]
    assert equivalence.main(options) == code
    output = capsys.readouterr().out
    assert "DIFFERS page-discard: summary: " in output
    assert output.endswith("equivalence: holds\n" if code == 0
                           else "equivalence: FAILS\n")


def test_a_list_counts_only_where_the_change_rewrote_it(equivalence,
                                                        tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (change / "scripts").mkdir(parents=True)
    (parent / "scripts").mkdir(parents=True)
    listed = change / equivalence.EXPECTED_LIST
    assert equivalence.listed_changes(parent, change) == []
    listed.write_text("# moved on purpose\npage-discard  # the fix\n\n")
    assert equivalence.listed_changes(parent, change) == ["page-discard"]
    # A list inherited unchanged from the parent expects nothing.
    (parent / equivalence.EXPECTED_LIST).write_text(listed.read_text())
    assert equivalence.listed_changes(parent, change) == []


def test_expect_listed_passes_the_listed_change(equivalence, records,
                                                tmp_path, monkeypatch,
                                                capsys):
    change_records = copy.deepcopy(records)
    change_records["page-discard"]["summary"]["host_reads"] += 1
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (change / "scripts").mkdir(parents=True)
    (change / equivalence.EXPECTED_LIST).write_text("page-discard\n")
    sides = {parent: records, change: change_records}
    monkeypatch.setattr(equivalence, "run_checkout", sides.__getitem__)
    assert equivalence.main([str(parent), str(change)]) == 1
    assert equivalence.main([str(parent), str(change), "--expect-listed"]) == 0
    assert "expects a change in: page-discard" in capsys.readouterr().out


def test_a_scenario_that_raises_fails_the_check(equivalence, records,
                                                 monkeypatch, capsys):
    broken = {name: {"error": "RuntimeError: lost"} for name in records}
    monkeypatch.setattr(equivalence, "run_checkout",
                        lambda checkout: broken)
    assert equivalence.main(["parent", "change"]) == 1
    assert "ERROR block-PnAR2 in the parent: RuntimeError: lost" in (
        capsys.readouterr().out)
