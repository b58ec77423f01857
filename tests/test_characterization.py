"""Tests for the virtual characterization platform and figure sweeps."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.characterization.margin import (
    ecc_margin_sweep,
    final_step_error_sweep,
    rber_per_retry_step,
)
from repro.characterization.platform import VirtualTestPlatform
from repro.characterization.retry_profile import (
    RetryProfile,
    profile_retry_steps,
    summarize_profiles,
)
from repro.characterization.rpt_builder import (
    build_rpt,
    minimum_safe_tpre_sweep,
    safe_pre_reduction,
)
from repro.characterization.timing_sweep import (
    combined_parameter_sweep,
    individual_parameter_sweep,
    temperature_sweep,
)
from repro.core import rpt as rpt_module
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.errors.timing import TimingReduction


REPO_ROOT = Path(__file__).resolve().parents[1]
GENERATOR = REPO_ROOT / "scripts" / "generate_default_rpt.py"
RPT_SOURCE = REPO_ROOT / "src" / "repro" / "core" / "rpt.py"

STALE_RPT = ("the shipped default RPT (DEFAULT_RPT_PROFILE in src/repro/core/rpt.py) "
             "is not what build_rpt() profiles; regenerate it with "
             "PYTHONPATH=src python scripts/generate_default_rpt.py")


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("generate_default_rpt", GENERATOR)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _scalar_final_step_errors(platform, condition, timing_reduction=None):
    """The per-page scalar loop: the oracle of the batched platform."""
    return [platform.error_model.near_optimal_step_errors(
                condition, sample.page_type, table=platform.retry_table,
                variation=sample.variation, timing_reduction=timing_reduction)
            for sample in platform.pages()]


class TestPlatform:
    def test_population_size(self, tiny_platform):
        assert tiny_platform.num_pages == 4 * 2 * 1 * 3
        assert len(tiny_platform.pages()) == tiny_platform.num_pages

    def test_pages_are_cached(self, tiny_platform):
        assert tiny_platform.pages() is tiny_platform.pages()

    def test_paper_scale_dimensions(self):
        platform = VirtualTestPlatform.paper_scale()
        assert platform.num_chips == 160
        assert platform.blocks_per_chip == 120

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            VirtualTestPlatform(num_chips=0)

    def test_read_test_and_retry_steps_agree(self, tiny_platform):
        condition = OperatingCondition(1000, 6.0, 85.0)
        sample = tiny_platform.pages()[0]
        outcome = tiny_platform.read_test(sample, condition)
        assert tiny_platform.retry_steps(sample, condition) == outcome.retry_steps

    def test_bake_plan_hours(self, tiny_platform):
        # About 13 hours at 85C emulate a year at 30C (Section 4).
        hours = tiny_platform.bake_plan_hours(12.0, 85.0)
        assert 5.0 < hours < 40.0

    def test_max_final_step_errors_quantile(self, tiny_platform):
        condition = OperatingCondition(1000, 6.0, 85.0)
        maximum = tiny_platform.max_final_step_errors(condition)
        median = tiny_platform.max_final_step_errors(condition, quantile=0.5)
        assert maximum >= median
        scalar = _scalar_final_step_errors(tiny_platform, condition)
        assert maximum == max(scalar)
        assert median == float(np.quantile(scalar, 0.5))
        with pytest.raises(ValueError):
            tiny_platform.max_final_step_errors(condition, quantile=0.0)

    @pytest.mark.parametrize("condition,reduction", [
        (OperatingCondition(0, 0.0, 85.0), None),
        (OperatingCondition(1000, 6.0, 30.0), TimingReduction(pre=0.47)),
        (OperatingCondition(2000, 12.0, 55.0), TimingReduction(pre=0.2, disch=0.14)),
    ])
    def test_final_step_errors_equal_scalar_loop(self, tiny_platform,
                                                 condition, reduction):
        values = tiny_platform.final_step_errors(condition, reduction)
        assert values.tolist() == _scalar_final_step_errors(
            tiny_platform, condition, reduction)


class TestRetryProfile:
    def test_profile_grid(self, tiny_platform):
        profiles = profile_retry_steps(tiny_platform, pe_cycles=(0, 1000),
                                       retention_months=(0.0, 6.0))
        assert set(profiles) == {(0, 0.0), (0, 6.0), (1000, 0.0), (1000, 6.0)}
        fresh = profiles[(0, 0.0)]
        assert fresh.max_steps == 0
        aged = profiles[(1000, 6.0)]
        assert aged.mean_steps > fresh.mean_steps

    def test_profile_statistics(self):
        profile = RetryProfile(condition=OperatingCondition(),
                               counts=[0, 2, 7, 7, 10])
        assert profile.min_steps == 0
        assert profile.max_steps == 10
        assert profile.mean_steps == pytest.approx(5.2)
        assert profile.fraction_at_least(7) == pytest.approx(0.6)
        assert profile.probability_of(7) == pytest.approx(0.4)
        assert profile.read_latency_amplification() == pytest.approx(6.2)
        assert sum(profile.histogram().values()) == pytest.approx(1.0)

    def test_failures_count_toward_fraction(self):
        profile = RetryProfile(condition=OperatingCondition(), counts=[1],
                               failures=1)
        assert profile.num_reads == 2
        assert profile.fraction_at_least(5) == pytest.approx(0.5)

    def test_summarize_rows(self, tiny_platform):
        profiles = profile_retry_steps(tiny_platform, pe_cycles=(0,),
                                       retention_months=(0.0, 6.0))
        rows = summarize_profiles(profiles)
        assert len(rows) == 2
        assert {"pe_cycles", "retention_months", "min", "avg", "max"} <= set(rows[0])


class TestMarginSweeps:
    def test_final_step_error_sweep_shape(self, tiny_platform):
        results = final_step_error_sweep(tiny_platform, pe_cycles=(0, 2000),
                                         retention_months=(0.0, 12.0),
                                         temperatures_c=(85.0,))
        assert len(results) == 4
        worst = results[(85.0, 2000, 12.0)]
        mild = results[(85.0, 0, 0.0)]
        assert worst.max_errors > mild.max_errors
        assert worst.margin_bits < mild.margin_bits
        assert 0.0 < worst.margin_fraction < 1.0

    def test_final_step_error_sweep_equals_scalar_loop(self, tiny_platform):
        results = final_step_error_sweep(tiny_platform)
        assert len(results) == 45
        for stats in results.values():
            scalar = _scalar_final_step_errors(tiny_platform, stats.condition)
            assert stats.max_errors == max(scalar)
            assert stats.mean_errors == sum(scalar) / len(scalar)

    def test_margin_rows(self, tiny_platform):
        rows = ecc_margin_sweep(tiny_platform, pe_cycles=(1000,),
                                retention_months=(6.0,), temperatures_c=(85.0, 30.0))
        assert len(rows) == 2
        cold = next(row for row in rows if row["temperature_c"] == 30.0)
        hot = next(row for row in rows if row["temperature_c"] == 85.0)
        assert cold["m_err"] > hot["m_err"]

    def test_rber_per_retry_step_shape(self):
        rows = rber_per_retry_step(last_steps=3)
        assert len(rows) == 2
        for row in rows:
            assert row["total_retry_steps"] >= 10
            assert row["final_step_errors"] <= row["ecc_capability"]
            # Errors decrease towards the final step.
            errors = row["last_step_errors"]
            assert errors[-1] == min(errors)


class TestTimingSweeps:
    def test_individual_sweep_keys(self, tiny_platform):
        sweeps = individual_parameter_sweep(tiny_platform, pe_cycles=(1000,),
                                            retention_months=(0.0,))
        assert set(sweeps) == {"pre", "eval", "disch"}
        pre = sweeps["pre"]
        # Monotonically non-decreasing in the reduction.
        deltas = [entry["delta_m_err"] for entry in pre]
        assert deltas == sorted(deltas)

    def test_combined_sweep_contains_all_cells(self, tiny_platform):
        rows = combined_parameter_sweep(tiny_platform,
                                        conditions=((1000, 0.0),))
        assert len(rows) == 7 * 10  # DISCH grid x PRE grid
        baseline = next(row for row in rows
                        if row["pre_reduction"] == 0.0
                        and row["disch_reduction"] == 0.0)
        extreme = next(row for row in rows
                       if row["pre_reduction"] == 0.60
                       and row["disch_reduction"] == 0.40)
        assert extreme["m_err"] > 72 > baseline["m_err"]

    def test_temperature_sweep_positive_and_bounded(self, tiny_platform):
        rows = temperature_sweep(tiny_platform, pe_cycles=(2000,),
                                 retention_months=(12.0,),
                                 temperatures_c=(30.0,))
        assert all(row["extra_errors_vs_85c"] >= 0.0 for row in rows)
        assert max(row["extra_errors_vs_85c"] for row in rows) <= 8.0


class TestRptBuilder:
    def test_safe_pre_reduction_respects_budget(self, tiny_platform):
        condition = OperatingCondition(2000, 12.0, 30.0)
        reduction, margin = safe_pre_reduction(condition, tiny_platform)
        assert 0.3 <= reduction <= 0.6
        assert margin >= 14.0

    def test_minimum_safe_tpre_sweep_range(self):
        rows = minimum_safe_tpre_sweep()
        reductions = [row["max_pre_reduction_pct"] for row in rows]
        assert min(reductions) >= 40.0 - 1e-9
        assert max(reductions) <= 60.0
        for row in rows:
            assert row["min_t_pre_us"] == pytest.approx(
                24.0 * (1.0 - row["max_pre_reduction_pct"] / 100.0), rel=1e-6)

    def test_build_rpt_equals_scalar_profiling(self, monkeypatch):
        """Every entry equals one profiled with the per-page scalar loop,
        and the shipped default table is the one ``build_rpt()`` profiles."""
        profiled = build_rpt()
        shipped = ReadTimingParameterTable.default()
        assert shipped.pec_bin_edges == profiled.pec_bin_edges, STALE_RPT
        assert (shipped.retention_bin_edges_months
                == profiled.retention_bin_edges_months), STALE_RPT
        assert shipped.default_timing == profiled.default_timing, STALE_RPT

        def scalar_max(platform, condition, timing_reduction=None,
                       quantile=1.0):
            return float(max(_scalar_final_step_errors(
                platform, condition, timing_reduction)))

        monkeypatch.setattr(VirtualTestPlatform, "max_final_step_errors",
                            scalar_max)
        scalar = list(build_rpt().iter_entries())
        assert len(scalar) == 35
        for rpt, message in ((profiled, "batched profiling left the scalar loop"),
                             (shipped, STALE_RPT)):
            entries = list(rpt.iter_entries())
            assert [key for key, _ in entries] == [key for key, _ in scalar]
            for (_, entry), (_, oracle) in zip(entries, scalar):
                assert entry.pre_reduction == oracle.pre_reduction, message
                assert entry.t_pre_us == oracle.t_pre_us, message
                assert entry.margin_bits == oracle.margin_bits, message

    def test_generator_prints_the_shipped_data(self, generator):
        printed = generator.render(build_rpt())
        assert printed in RPT_SOURCE.read_text(), STALE_RPT
        namespace = {}
        exec(printed, namespace)
        assert namespace["DEFAULT_RPT_PROFILE"] == rpt_module.DEFAULT_RPT_PROFILE

    def test_generator_check_fails_on_a_stale_table(self, generator, capsys,
                                                    monkeypatch):
        assert generator.main(["--check"]) == 0
        assert capsys.readouterr().out == ""
        monkeypatch.setattr(ReadTimingParameterTable, "_default_cache",
                            ReadTimingParameterTable.conservative(0.40))
        assert generator.main(["--check"]) == 1
        report = capsys.readouterr().out
        assert "bin (0, 0)" in report
        assert "scripts/generate_default_rpt.py" in report

    def test_build_rpt_reductions_monotonic_in_condition(self):
        rpt = build_rpt()
        fresh = rpt.entry_for(0, 0.0)
        worst = rpt.entry_for(2000, 12.0)
        assert fresh.pre_reduction >= worst.pre_reduction
        assert worst.margin_bits >= 14.0
