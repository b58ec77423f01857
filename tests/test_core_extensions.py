"""Tests for the Section 8 extension policies and the Sentinel baseline."""

import pytest

from repro.core.extensions import (
    RegularReadSpeedupPolicy,
    SentinelPolicy,
    SpeculativeRetryPolicy,
)
from repro.core.policies import PnAR2Policy
from repro.errors.condition import OperatingCondition
from repro.nand.geometry import PageType


@pytest.fixture(scope="module")
def fresh():
    return OperatingCondition(0, 0.0, 30.0)


@pytest.fixture(scope="module")
def aged():
    return OperatingCondition(2000, 12.0, 30.0)


class TestRegularReadSpeedup(object):
    def test_fresh_regular_read_is_faster_than_default(self, default_rpt, fresh):
        extension = RegularReadSpeedupPolicy(rpt=default_rpt)
        plain = PnAR2Policy(rpt=default_rpt)
        assert extension.regular_read_can_be_reduced(PageType.CSB, fresh)
        assert (extension.read_breakdown(0, PageType.CSB, fresh).response_us
                < plain.read_breakdown(0, PageType.CSB, fresh).response_us)

    def test_retry_reads_match_pnar2(self, default_rpt, aged):
        extension = RegularReadSpeedupPolicy(rpt=default_rpt)
        plain = PnAR2Policy(rpt=default_rpt)
        assert (extension.read_breakdown(15, PageType.CSB, aged).response_us
                == plain.read_breakdown(15, PageType.CSB, aged).response_us)

    def test_marginal_pages_fall_back_to_default_timing(self, default_rpt):
        # With an enormous safety margin no page qualifies for the speed-up.
        cautious = RegularReadSpeedupPolicy(rpt=default_rpt,
                                            safety_margin_bits=80)
        fresh = OperatingCondition(0, 0.0, 30.0)
        assert not cautious.regular_read_can_be_reduced(PageType.CSB, fresh)
        plain = PnAR2Policy(rpt=default_rpt)
        assert (cautious.read_breakdown(0, PageType.CSB, fresh).response_us
                == plain.read_breakdown(0, PageType.CSB, fresh).response_us)


class TestSpeculativeRetry:
    def test_saves_one_sensing_for_doomed_reads(self, default_rpt, aged):
        speculative = SpeculativeRetryPolicy(rpt=default_rpt)
        plain = PnAR2Policy(rpt=default_rpt)
        assert speculative.predicts_initial_read_failure(PageType.CSB, aged)
        saved = (plain.read_breakdown(15, PageType.CSB, aged).response_us
                 - speculative.read_breakdown(15, PageType.CSB, aged).response_us)
        assert saved == pytest.approx(
            plain.latency_model.sensing_latency_us(PageType.CSB))

    def test_no_change_for_reads_predicted_to_succeed(self, default_rpt, fresh):
        speculative = SpeculativeRetryPolicy(rpt=default_rpt)
        plain = PnAR2Policy(rpt=default_rpt)
        assert not speculative.predicts_initial_read_failure(PageType.CSB, fresh)
        assert (speculative.read_breakdown(0, PageType.CSB, fresh).response_us
                == plain.read_breakdown(0, PageType.CSB, fresh).response_us)


class TestSentinel:
    def test_step_reduction(self, default_rpt, aged):
        sentinel = SentinelPolicy(rpt=default_rpt)
        assert sentinel.effective_retry_steps(0, aged) == 0
        assert sentinel.effective_retry_steps(6, aged) == 1
        assert sentinel.effective_retry_steps(20, aged) == 2

    def test_sentinel_beats_pso_like_counts(self, default_rpt, aged):
        sentinel = SentinelPolicy(rpt=default_rpt)
        breakdown = sentinel.read_breakdown(20, PageType.CSB, aged)
        assert breakdown.retry_steps == 2

    def test_sentinel_pnar2_is_fastest_non_ideal(self, default_rpt, aged):
        sentinel = SentinelPolicy(rpt=default_rpt)
        combined = SentinelPolicy(rpt=default_rpt, mechanism="pnar2")
        plain = PnAR2Policy(rpt=default_rpt)
        responses = {
            "sentinel": sentinel.read_breakdown(20, PageType.CSB, aged).response_us,
            "sentinel+pnar2": combined.read_breakdown(20, PageType.CSB, aged).response_us,
            "pnar2": plain.read_breakdown(20, PageType.CSB, aged).response_us,
        }
        assert responses["sentinel+pnar2"] < responses["sentinel"]
        assert responses["sentinel"] < responses["pnar2"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SentinelPolicy(mechanism="magic")
        with pytest.raises(ValueError):
            SentinelPolicy(average_steps=0.5)

    def test_uses_reduced_timing_flag(self, default_rpt):
        assert not SentinelPolicy(rpt=default_rpt).uses_reduced_timing
        combined = SentinelPolicy(rpt=default_rpt, mechanism="pnar2")
        assert combined.uses_reduced_timing
        assert combined.name == "Sentinel+PnAR2"


class TestNames:
    """The display names the ablation rows and result tables key by."""

    @pytest.mark.parametrize("build, name, reduced_timing", [
        (lambda rpt: RegularReadSpeedupPolicy(rpt=rpt), "PnAR2+RegularReads", True),
        (lambda rpt: SpeculativeRetryPolicy(rpt=rpt), "PnAR2+Speculation", True),
        (lambda rpt: SentinelPolicy(rpt=rpt), "Sentinel", False),
        (lambda rpt: SentinelPolicy(rpt=rpt, mechanism="PnAR2"), "Sentinel+PnAR2", True),
    ], ids=["regular-reads", "speculation", "sentinel", "sentinel-pnar2"])
    def test_name_and_timing(self, default_rpt, build, name, reduced_timing):
        policy = build(default_rpt)
        assert policy.name == name
        assert policy.uses_reduced_timing is reduced_timing
        assert policy.rpt is default_rpt


class TestAblationHarness:
    def test_extension_ablation_runs(self, default_rpt):
        from repro.experiments import ablation

        result = ablation.run("extensions", num_requests=80)
        policies = {row["policy"] for row in result.rows}
        assert "PnAR2" in policies and "Sentinel+PnAR2" in policies
        assert result.headline["best extension normalized"] <= \
            result.headline["PnAR2 normalized"] + 1e-9

    def test_extension_ablation_builds_each_extension_itself(self, monkeypatch):
        from repro.experiments import ablation

        class Built(Exception):
            pass

        def capture(policies, config, workload, condition, num_requests, seed, rpt):
            raise Built(policies, config, rpt)

        monkeypatch.setattr(ablation, "_run_cell", capture)
        with pytest.raises(Built) as built:
            ablation.run("extensions", num_requests=80)
        policies, config, rpt = built.value.args
        assert [policy.name for policy in policies] == [
            "Baseline", "PnAR2", "PnAR2+Speculation", "Sentinel",
            "Sentinel+PnAR2", "NoRR"]
        assert type(policies[2]) is SpeculativeRetryPolicy
        assert {type(policy) for policy in policies[3:5]} == {SentinelPolicy}
        for policy in policies:
            assert policy.timing is config.timing
            assert policy.rpt is rpt

    def test_rpt_ablation_runs(self):
        from repro.experiments import ablation

        result = ablation.run("rpt", num_requests=80,
                              conditions=((250, 1.0),))
        row = result.rows[0]
        assert row["adaptive_rpt_normalized"] <= row["flat_40pct_normalized"] + 0.02

    def test_unknown_ablation_rejected(self):
        from repro.experiments import ablation

        with pytest.raises(ValueError):
            ablation.run("bogus")
