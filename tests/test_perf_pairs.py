"""Tests for ``scripts/perf_pairs.py``, with the benchmark pass stubbed out."""

import argparse
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

    def run_pass(checkout, command, workload, seed, seconds, pycache_prefix):
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
                                  0.0, tmp_path / "bytecode")
    assert not perf_pairs.passed(outcome)


#: A "benchmark" whose report is its interpreter's bytecode-cache state.
PYCACHE_REPORT = (
    "import json, sys; print(json.dumps({'correct': True, 'failed': 0, "
    "'metrics': {}, 'prefix': sys.pycache_prefix, "
    "'writes': not sys.dont_write_bytecode}))")


def test_each_side_keeps_its_own_bytecode_cache(perf_pairs, checkouts,
                                                monkeypatch):
    # Neither side may import through a __pycache__ of its checkout, so
    # both start from the same bytecode state, and each compiles once.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent, change = checkouts
    args = argparse.Namespace(parent=parent, change=change, pairs=3, seed=0,
                              workload="aged_read_sweep", seconds=0.0)
    pairs = perf_pairs.run_pairs(args, [sys.executable, "-c", PYCACHE_REPORT],
                                 [])
    prefixes = {side: {pair[side]["prefix"] for pair in pairs}
                for side in ("parent", "change")}
    assert all(len(seen) == 1 and None not in seen
               for seen in prefixes.values())
    (parent_prefix,), (change_prefix,) = prefixes.values()
    assert parent_prefix != change_prefix
    for prefix in (parent_prefix, change_prefix):
        for checkout in checkouts:
            assert not Path(prefix).resolve().is_relative_to(
                checkout.resolve())
    assert all(pair[side]["writes"] for pair in pairs
               for side in ("parent", "change"))


def claim_reports(parent_rate, change_rate, parent_wall=1.0, change_wall=1.0):
    """One report per side and seed 0..len-1 from per-pair values."""
    reports = {}
    for seed, (before, after) in enumerate(zip(parent_rate, change_rate)):
        reports["parent", seed] = report(parent_wall, before)
        reports["change", seed] = report(change_wall, after)
    return reports


def claim_run(perf_pairs, checkouts, monkeypatch, capsys, reports):
    _, sides = stub(perf_pairs, monkeypatch, reports)
    pairs = str(len(reports) // 2)
    status = main(perf_pairs, checkouts, sides, "--pairs", pairs, "--seed",
                  "0", "--claim", "requests_per_s")
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("claim", "bound"))]
    return status, lines


PARENT_RATES = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0,
                101.0]


def test_a_claim_that_wins_every_pair_by_a_clear_gap_holds(
        perf_pairs, checkouts, monkeypatch, capsys):
    reports = claim_reports(PARENT_RATES, [rate * 1.2 for rate in PARENT_RATES])
    status, lines = claim_run(perf_pairs, checkouts, monkeypatch, capsys,
                              reports)
    assert status == 0
    assert "claim requests_per_s: change won 10/10 >= 9 pairs: True" in lines
    assert lines[-1] == "claim requests_per_s: holds"
    assert any(line.startswith("bound wall_s:") and line.endswith("True")
               for line in lines)


def test_nine_wins_and_a_tie_hold_but_eight_wins_do_not(
        perf_pairs, checkouts, monkeypatch, capsys):
    # Ties count for neither side: 9 wins and a tie clear 9/10.
    tied = [rate * 1.2 for rate in PARENT_RATES[:9]] + PARENT_RATES[9:]
    status, lines = claim_run(perf_pairs, checkouts, monkeypatch, capsys,
                              claim_reports(PARENT_RATES, tied))
    assert status == 0
    assert "claim requests_per_s: change won 9/10 >= 9 pairs: True" in lines
    lost = [rate * 1.2 for rate in PARENT_RATES[:8]] + [
        rate * 0.99 for rate in PARENT_RATES[8:]]
    status, lines = claim_run(perf_pairs, checkouts, monkeypatch, capsys,
                              claim_reports(PARENT_RATES, lost))
    assert status == 1
    assert "claim requests_per_s: change won 8/10 >= 9 pairs: False" in lines
    assert lines[-1] == "claim requests_per_s: FAILS"


def test_a_gain_inside_the_parents_quartiles_fails(
        perf_pairs, checkouts, monkeypatch, capsys):
    # The change wins every pair by 1 %, but the parent's quartiles are
    # 2.5 apart: the median gap of 1 does not clear them.
    reports = claim_reports(PARENT_RATES,
                            [rate * 1.01 for rate in PARENT_RATES])
    status, lines = claim_run(perf_pairs, checkouts, monkeypatch, capsys,
                              reports)
    assert status == 1
    assert "claim requests_per_s: change won 10/10 >= 9 pairs: True" in lines
    assert any(line.startswith("claim requests_per_s: median gap")
               and line.endswith("False") for line in lines)
    assert lines[-1] == "claim requests_per_s: FAILS"


def test_another_metric_past_its_bound_fails_the_claim(
        perf_pairs, checkouts, monkeypatch, capsys):
    # requests_per_s wins clearly, but wall_s is 30 % worse (bound 24 %).
    reports = claim_reports(PARENT_RATES, [rate * 1.2 for rate in PARENT_RATES],
                            parent_wall=1.0, change_wall=1.3)
    status, lines = claim_run(perf_pairs, checkouts, monkeypatch, capsys,
                              reports)
    assert status == 1
    assert "bound wall_s: change median worse by +30.00% <= 24%: False" in lines
    assert lines[-1] == "claim requests_per_s: FAILS"


def test_a_claim_must_name_an_end_to_end_metric(perf_pairs, checkouts,
                                                monkeypatch):
    _, sides = stub(perf_pairs, monkeypatch, {})
    with pytest.raises(SystemExit) as raised:
        main(perf_pairs, checkouts, sides, "--seed", "0", "--claim",
             "dftl.self_s")
    assert raised.value.code == 2


def test_without_a_claim_no_verdict_is_printed(perf_pairs, checkouts,
                                              monkeypatch, capsys):
    reports = claim_reports(PARENT_RATES[:2], PARENT_RATES[:2])
    _, sides = stub(perf_pairs, monkeypatch, reports)
    assert main(perf_pairs, checkouts, sides, "--pairs", "2", "--seed",
                "0") == 0
    out = capsys.readouterr().out
    assert "claim" not in out and "bound " not in out


def no_regress_run(perf_pairs, checkouts, monkeypatch, capsys, reports):
    _, sides = stub(perf_pairs, monkeypatch, reports)
    pairs = str(len(reports) // 2)
    status = main(perf_pairs, checkouts, sides, "--pairs", pairs, "--seed",
                  "0", "--no-regress")
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("bound", "no-regress", "claim"))]
    return status, lines


def test_no_regress_passes_a_change_within_every_bound(
        perf_pairs, checkouts, monkeypatch, capsys):
    # 20 % slower and 20 % fewer requests per second: inside both 24 %
    # bounds.
    reports = claim_reports(PARENT_RATES, [rate * 0.8 for rate in PARENT_RATES],
                            parent_wall=1.0, change_wall=1.2)
    status, lines = no_regress_run(perf_pairs, checkouts, monkeypatch, capsys,
                                   reports)
    assert status == 0
    assert lines == [
        "bound wall_s: change median worse by +20.00% <= 24%: True",
        "bound requests_per_s: change median worse by +20.00% <= 24%: True",
        "no-regress: holds",
    ]


def test_no_regress_fails_a_change_past_a_bound(perf_pairs, checkouts,
                                                monkeypatch, capsys):
    # requests_per_s is 25 % worse (bound 24 %), wall_s unchanged.
    reports = claim_reports(PARENT_RATES,
                            [rate * 0.75 for rate in PARENT_RATES])
    status, lines = no_regress_run(perf_pairs, checkouts, monkeypatch, capsys,
                                   reports)
    assert status == 1
    assert lines == [
        "bound wall_s: change median worse by +0.00% <= 24%: True",
        "bound requests_per_s: change median worse by +25.00% <= 24%: False",
        "no-regress: FAILS",
    ]


def test_no_regress_and_a_claim_exclude_each_other(perf_pairs, checkouts,
                                                   monkeypatch):
    _, sides = stub(perf_pairs, monkeypatch, {})
    with pytest.raises(SystemExit) as raised:
        main(perf_pairs, checkouts, sides, "--seed", "0", "--no-regress",
             "--claim", "wall_s")
    assert raised.value.code == 2
