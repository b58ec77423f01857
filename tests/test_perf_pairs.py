"""Tests for ``scripts/perf_pairs.py``, with the benchmark pass stubbed out."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "perf_pairs.py"

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.24},
]


@pytest.fixture()
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture()
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "end_to_end": METRICS}))
    return parent, change


def report(wall_s, requests_per_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "requests_per_s": {"value": requests_per_s,
                                           "unit": "1/s"}}}


def stub(perf_pairs, monkeypatch, reports):
    """Serve ``reports[(side, seed)]`` and record each pass in run order."""
    calls = []
    sides = {}

    def run_pass(checkout, command, workload, seed, seconds):
        side = sides[checkout]
        calls.append((side, seed, workload, seconds, command))
        return reports[side, seed]

    monkeypatch.setattr(perf_pairs, "run_pass", run_pass)
    return calls, sides


def main(perf_pairs, checkouts, sides, *options):
    parent, change = checkouts
    sides.update({parent.resolve(): "parent", change.resolve(): "change"})
    return perf_pairs.main([str(parent), str(change), "--workload",
                            "aged_read_sweep", "--seconds", "30", *options])


def test_pairs_alternate_and_step_the_seed(perf_pairs, checkouts,
                                           monkeypatch, capsys):
    reports = {(side, seed): report(1.0, 100.0)
               for side in ("parent", "change") for seed in range(700, 704)}
    calls, sides = stub(perf_pairs, monkeypatch, reports)
    status = main(perf_pairs, checkouts, sides, "--pairs", "4", "--seed",
                  "700")
    assert status == 0
    assert [call[:2] for call in calls] == [
        ("parent", 700), ("change", 700), ("change", 701), ("parent", 701),
        ("parent", 702), ("change", 702), ("change", 703), ("parent", 703)]
    for call in calls:
        assert call[2:] == ("aged_read_sweep", 30.0,
                            ["python3", "perfbench/run.py"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:4]] == [
        ["pair", str(index)] for index in range(4)]


def test_a_tie_counts_for_neither_side(perf_pairs, checkouts, monkeypatch,
                                       capsys):
    # wall_s: the change wins seed 0, ties seed 1 and loses seed 2.
    # requests_per_s: the change wins all three.
    reports = {("parent", 0): report(2.0, 10.0),
               ("change", 0): report(1.0, 20.0),
               ("parent", 1): report(2.0, 10.0),
               ("change", 1): report(2.0, 11.0),
               ("parent", 2): report(2.0, 10.0),
               ("change", 2): report(3.0, 12.0)}
    _, sides = stub(perf_pairs, monkeypatch, reports)
    assert main(perf_pairs, checkouts, sides, "--pairs", "3",
                "--seed", "0") == 0
    rows = {line.split()[0]: line.split()
            for line in capsys.readouterr().out.splitlines() if line}
    assert rows["wall_s"][-1] == "1/3"
    assert rows["requests_per_s"][-1] == "3/3"
    # Medians 2.0 and 2.0; 10.0 and 12.0.
    assert rows["wall_s"][-2] == "1.0000"
    assert rows["requests_per_s"][-2] == "1.2000"
    assert perf_pairs.change_wins([1.0, 1.0], [1.0, 1.0], "lower") == 0
    assert perf_pairs.change_wins([1.0, 1.0], [1.0, 1.0], "higher") == 0


def test_quartiles_of_a_known_list(perf_pairs):
    assert perf_pairs.quartiles([7, 1, 3, 9, 5, 2, 8, 4, 6]) == (2.5, 5.0,
                                                                 7.5)
    assert perf_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


@pytest.mark.parametrize("failure", [
    {"correct": False},
    {"failed": 1},
])
def test_a_failed_pass_fails_the_run(perf_pairs, checkouts, monkeypatch,
                                     capsys, failure):
    reports = {(side, seed): report(1.0, 100.0)
               for side in ("parent", "change") for seed in (5, 6)}
    reports["change", 6] = report(1.0, 100.0, **failure)
    _, sides = stub(perf_pairs, monkeypatch, reports)
    assert main(perf_pairs, checkouts, sides, "--pairs", "2",
                "--seed", "5") == 1
    captured = capsys.readouterr()
    assert "change FAILED" in captured.out
    assert "the change pass of seed 6 failed" in captured.err


@pytest.mark.parametrize("last_line", ["", "aged_read_sweep  seed 0", "1"])
def test_a_pass_without_a_report_is_a_failed_pass(perf_pairs, tmp_path,
                                                  last_line):
    # A benchmark that prints no JSON object last (it prints none when no
    # pass of the workload succeeded) counts as failed.
    command = [sys.executable, "-c", f"print({last_line!r})"]
    outcome = perf_pairs.run_pass(tmp_path, command, "aged_read_sweep", 0,
                                  0.0)
    assert not perf_pairs.passed(outcome)
