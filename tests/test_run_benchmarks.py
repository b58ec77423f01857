"""Tests for the ``paper_device`` row of ``scripts/run_benchmarks.py``."""

import importlib.util
from pathlib import Path

import pytest

from repro.ssd.config import SsdConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmarks.py"


@pytest.fixture(scope="module")
def run_benchmarks():
    spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="module")
def tiny_row(run_benchmarks):
    # The children's own measurements, on a device small enough to build
    # in a fraction of a second; the snapshot builds SsdConfig.paper().
    return run_benchmarks.run_paper_device("tiny")


def test_the_row_holds_one_measurement_per_mapping(tiny_row):
    assert tiny_row["config"] == "tiny"
    assert (tiny_row["policy"], tiny_row["pe_cycles"], tiny_row["retention_months"],
            tiny_row["fill_fraction"]) == ("PnAR2", 1000, 6.0, 0.85)
    for mapping in ("block", "page"):
        measured = tiny_row[mapping]
        assert set(measured) == {"wall_s", "peak_rss_mib", "physical_pages"}
        assert measured["wall_s"] > 0
        assert measured["peak_rss_mib"] > 0
        assert measured["physical_pages"] == SsdConfig.tiny().physical_pages


def test_the_report_prints_the_row_ungated(run_benchmarks, tiny_row, capsys):
    run_benchmarks.print_report({"benchmarks": {}, "paper_device": tiny_row}, None)
    lines = capsys.readouterr().out.splitlines()
    for mapping in ("block", "page"):
        line = next(line for line in lines if line.startswith(f"paper_device:{mapping}"))
        assert "not gated" in line
