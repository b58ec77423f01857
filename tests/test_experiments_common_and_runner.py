"""Tests for the shared experiment plumbing and the CLI runner."""

import json

import pytest

import repro
from repro.experiments.fig14 import (
    DEFAULT_CONDITION_GRID,
    default_experiment_config,
)
from repro.experiments.runner import main as runner_main
from repro.sim.sweep import SweepRunner
from repro.ssd.config import SsdConfig


class TestVersion:
    def test_version_exported(self):
        assert repro.__version__.count(".") == 2


class TestDefaultConfig:
    def test_default_experiment_config_is_scaled(self):
        config = default_experiment_config()
        assert isinstance(config, SsdConfig)
        assert config.blocks_per_plane < 1888
        assert config.channels == 4

    def test_overrides_pass_through(self):
        config = default_experiment_config(blocks_per_plane=10)
        assert config.blocks_per_plane == 10


class TestSweepGrid:
    @staticmethod
    def _sweep(workloads, conditions, num_requests, rpt):
        runner = SweepRunner(config=SsdConfig.tiny(), rpt=rpt)
        return runner.run(policies=("Baseline", "NoRR"), workloads=workloads,
                          conditions=conditions, num_requests=num_requests)

    @pytest.fixture(scope="class")
    def sweep(self, default_rpt):
        return self._sweep(("usr_1",), ((1000, 6.0),), 60, default_rpt)

    def test_grid_structure(self, sweep):
        grid = sweep.to_grid()
        assert set(grid) == {"usr_1"}
        assert set(grid["usr_1"]) == {(1000, 6.0)}
        assert set(grid["usr_1"][(1000, 6.0)]) == {"Baseline", "NoRR"}

    def test_normalized_rows(self, sweep):
        rows = sweep.rows
        assert len(rows) == 2
        baseline = next(row for row in rows if row["policy"] == "Baseline")
        norr = next(row for row in rows if row["policy"] == "NoRR")
        assert baseline["normalized_response_time"] == pytest.approx(1.0)
        assert norr["normalized_response_time"] < 1.0
        assert baseline["class"] == "read-dominant"

    def test_unknown_workload_rejected(self, default_rpt):
        with pytest.raises(KeyError):
            self._sweep(("not-a-workload",), ((0, 0.0),), 10, default_rpt)

    def test_default_condition_grid_shape(self):
        assert len(DEFAULT_CONDITION_GRID) == 9
        assert (0, 0.0) in DEFAULT_CONDITION_GRID
        assert (2000, 12.0) in DEFAULT_CONDITION_GRID


class TestQuickComparison:
    def test_quick_ssd_comparison_wrapper(self):
        result = repro.quick_ssd_comparison(num_requests=60, seed=1)
        assert set(result) == {"Baseline", "PR2", "AR2", "PnAR2", "NoRR"}


class TestRunnerCli:
    def test_cli_runs_single_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "table1.txt"
        exit_code = runner_main(["run", "table1", "--out", str(out_file)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert out_file.read_text().startswith("Table 1")

    def test_cli_profile_and_max_rows(self, capsys):
        exit_code = runner_main(["run", "fig11", "--profile", "fast",
                                 "--max-rows", "3"])
        assert exit_code == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            runner_main(["figure-zero"])

    def test_cli_rejects_unknown_subtarget(self):
        with pytest.raises(SystemExit):
            runner_main(["run", "figure-zero"])


class TestHeadlineReportScript:
    def test_report_configs_cover_all_experiments(self):
        """The EXPERIMENTS.md generator runs every registered experiment."""
        import importlib.util
        import pathlib

        from repro.experiments import EXPERIMENT_NAMES

        script = (pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "generate_experiments_report.py")
        module_spec = importlib.util.spec_from_file_location("report", script)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        assert set(module.CONFIGS) == set(EXPERIMENT_NAMES)

    def test_headline_artifact_is_valid_json_when_present(self):
        import pathlib

        artifact = (pathlib.Path(__file__).resolve().parents[1]
                    / "experiments_headlines.json")
        if not artifact.exists():
            pytest.skip("headline report not generated")
        report = json.loads(artifact.read_text())
        assert "fig14" in report and "headline" in report["fig14"]
