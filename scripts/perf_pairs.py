#!/usr/bin/env python3
"""Run the repository benchmark on two checkouts in alternating pairs.

Run from anywhere::

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload aged_read_sweep \\
        --pairs 10 --seconds 30 --seed 900

Pair ``i`` runs the benchmark command of CHANGE_DIR's ``BENCHMARK.json``
(``python3 perfbench/run.py``) with ``--workload W --seed S0+i --seconds S
--trace 0`` in both checkouts.  The parent runs first in even pairs and the
change first in odd ones, so a machine that speeds up or slows down during
the run weighs on both sides alike.  The end-to-end metrics, and whether
each is better higher or lower, also come from CHANGE_DIR's
``BENCHMARK.json``.

Both sides start from the same bytecode state: each side's passes import
through their own bytecode cache, a fresh temporary directory made once per
invocation and named by ``PYTHONPYCACHEPREFIX``, so neither side reads a
``__pycache__`` its checkout happens to hold, and each compiles once, in
pair 0.  ``PYTHONDONTWRITEBYTECODE`` is dropped from the passes'
environment, or the caches would stay empty.

The script prints one line per pair and then, per metric, each side's
median and quartiles (``statistics.quantiles(n=4)``), the ratio of the
change's median to the parent's and the number of pairs the change won.  A
tie counts for neither side.  It exits 1 when any pass reports
``correct: false`` or failed passes, or prints no report.

``--no-regress`` then applies every end-to-end metric's ``bound`` in
``BENCHMARK.json``: it prints one ``bound`` line per metric and exits 1 when
any change median is worse than the parent's by more than that fraction of
the parent's median.

``--claim METRIC`` instead tests a claimed gain on METRIC by the rule a
benchmark gate applies, and exits 1 when the claim fails:

* the change is better in at least 9 of 10 pairs (ties count for neither);
* the change's median beats the parent's by more than the distance between
  the parent's quartiles;
* no other end-to-end metric is past its bound, as ``--no-regress`` tests.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
#: The share of the pairs a claimed gain must win.
CLAIM_WIN_SHARE = 0.9


def run_pass(
    checkout: Path, command: list, workload: str, seed: int, seconds: float, pycache_prefix: Path
) -> dict:
    """One benchmark run in ``checkout`` with its bytecode cache under
    ``pycache_prefix``; its JSON report, or a failed one."""
    arguments = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    environment = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache_prefix))
    environment.pop("PYTHONDONTWRITEBYTECODE", None)
    completed = subprocess.run(
        command + arguments + ["--trace", "0"],
        cwd=checkout,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    if not isinstance(report, dict):
        return {"correct": False, "failed": None, "metrics": {}}
    return report


def passed(report: dict) -> bool:
    return report.get("correct") is True and report.get("failed") == 0


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` of ``values``; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def change_wins(parent: list, change: list, better: str) -> int:
    """Pairs in which the change reads strictly better; ties count for neither."""
    if better == "higher":
        return sum(after > before for before, after in zip(parent, change))
    return sum(after < before for before, after in zip(parent, change))


def metric_value(report: dict, name: str):
    return report.get("metrics", {}).get(name, {}).get("value")


def run_pairs(args, command: list, metrics: list) -> list:
    """Run every pair, printing each as it finishes; each side keeps one
    bytecode cache, in a temporary directory, for all its passes."""
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as caches:
        prefixes = {side: Path(caches) / side for side in SIDES}
        for index in range(args.pairs):
            seed = args.seed + index
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_pass(
                    checkouts[side], command, args.workload, seed, args.seconds, prefixes[side]
                )
            pairs.append(pair)
            print(pair_line(index, pair, metrics), flush=True)
    return pairs


def pair_line(index: int, pair: dict, metrics: list) -> str:
    parts = [f"pair {index:2d}  seed {pair['seed']}  {pair['first']} first"]
    for name, _ in metrics:
        before = metric_value(pair["parent"], name)
        after = metric_value(pair["change"], name)
        if None in (before, after):
            parts.append(f"{name} missing")
        else:
            parts.append(f"{name} {before:.6g} -> {after:.6g}")
    for side in SIDES:
        if not passed(pair[side]):
            parts.append(f"{side} FAILED")
    return "  ".join(parts)


def summary_row(name, better, parent, change, ratio, wins) -> str:
    return f"{name:16} {better:6}  {parent:32}  {change:32}  {ratio:>7}  {wins}"


def paired_values(pairs: list, name: str) -> dict:
    """Each side's values of ``name``, over the pairs where both reported it."""
    values = {side: [] for side in SIDES}
    for pair in pairs:
        before = metric_value(pair["parent"], name)
        after = metric_value(pair["change"], name)
        if None not in (before, after):
            values["parent"].append(before)
            values["change"].append(after)
    return values


def summary_lines(pairs: list, metrics: list) -> list:
    header = ("metric", "better", "parent median [q1, q3]", "change median [q1, q3]")
    lines = [summary_row(*header, "ratio", "wins")]
    for name, better in metrics:
        values = paired_values(pairs, name)
        if not values["parent"]:
            lines.append(f"{name:16} {better:6}  no pair reported it")
            continue
        cells = []
        for side in SIDES:
            low, middle, high = quartiles(values[side])
            cells.append(f"{middle:.6g} [{low:.6g}, {high:.6g}]")
        ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
        wins = change_wins(values["parent"], values["change"], better)
        counted = len(values["parent"])
        lines.append(summary_row(name, better, *cells, f"{ratio:.4f}", f"{wins}/{counted}"))
    return lines


def gain(parent: float, change: float, better: str) -> float:
    """How much better ``change`` reads than ``parent`` (negative when worse)."""
    return change - parent if better == "higher" else parent - change


def bound_line(pairs: list, metric: dict) -> tuple:
    """``(line, within)``: whether the change's median of ``metric`` is worse
    than the parent's by no more than its ``bound`` allows (a fraction of the
    parent's median); ``within`` is None when no pair reported the metric."""
    name, better = metric["name"], metric["better"]
    values = paired_values(pairs, name)
    if not values["parent"]:
        return f"{name}: no pair reported it", None
    parent_median = statistics.median(values["parent"])
    change_median = statistics.median(values["change"])
    worse = gain(change_median, parent_median, better) / parent_median
    bound = metric["bound"]
    within = worse <= bound
    return f"bound {name}: change median worse by {worse:+.2%} <= {bound:.0%}: {within}", within


def no_regress_lines(pairs: list, metrics: list) -> tuple:
    """``(lines, holds)``: every bounded end-to-end metric reported and
    within its bound."""
    lines = []
    holds = True
    for metric in metrics:
        if "bound" in metric:
            line, within = bound_line(pairs, metric)
            lines.append(line)
            holds = holds and within is True
    lines.append("no-regress: " + ("holds" if holds else "FAILS"))
    return lines, holds


def claim_lines(pairs: list, metrics: list, claim: str) -> tuple:
    """``(lines, holds)``: whether the change's gain on ``claim`` holds.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    lines = []
    holds = True
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        if name != claim:
            if "bound" in metric:
                line, within = bound_line(pairs, metric)
                lines.append(line)
                holds = holds and within is not False
            continue
        values = paired_values(pairs, name)
        if not values["parent"]:
            lines.append(f"{name}: no pair reported it")
            holds = False
            continue
        low, parent_median, high = quartiles(values["parent"])
        change_median = statistics.median(values["change"])
        counted = len(values["parent"])
        wins = change_wins(values["parent"], values["change"], better)
        needed = math.ceil(CLAIM_WIN_SHARE * counted)
        gap = gain(parent_median, change_median, better)
        won, cleared = wins >= needed, gap > high - low
        lines.append(f"claim {name}: change won {wins}/{counted} >= {needed} pairs: {won}")
        lines.append(
            f"claim {name}: median gap {gap:.6g} > parent quartile distance {high - low:.6g}: "
            f"{cleared}"
        )
        holds = holds and won and cleared
    lines.append(f"claim {claim}: " + ("holds" if holds else "FAILS"))
    return lines, holds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    verdict = parser.add_mutually_exclusive_group()
    verdict.add_argument(
        "--claim", metavar="METRIC", help="end-to-end metric whose claimed gain to test"
    )
    verdict.add_argument(
        "--no-regress",
        action="store_true",
        help="fail when any end-to-end metric is worse than its BENCHMARK.json bound allows",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(metric["name"], metric["better"]) for metric in spec["end_to_end"]]
    if args.claim is not None and args.claim not in dict(metrics):
        parser.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")
    pairs = run_pairs(args, spec["command"], metrics)
    print()
    print(f"{args.workload}: {len(pairs)} pairs, seeds {args.seed}-{args.seed + len(pairs) - 1}")
    for line in summary_lines(pairs, metrics):
        print(line)
    holds = True
    if args.claim is not None or args.no_regress:
        print()
        if args.claim is not None:
            lines, holds = claim_lines(pairs, spec["end_to_end"], args.claim)
        else:
            lines, holds = no_regress_lines(pairs, spec["end_to_end"])
        for line in lines:
            print(line)
    failed = [(pair["seed"], side) for pair in pairs for side in SIDES if not passed(pair[side])]
    for seed, side in failed:
        print(f"perf_pairs: the {side} pass of seed {seed} failed", file=sys.stderr)
    return 1 if failed or not holds else 0


if __name__ == "__main__":
    sys.exit(main())
