"""Tests for the latency equations (2)-(5)."""

import pytest

from repro.core.latency import ReadLatencyModel
from repro.nand.geometry import PageType
from repro.nand.timing import ReadTimingParameters, TimingParameters


@pytest.fixture(scope="module")
def model():
    return ReadLatencyModel(TimingParameters())


@pytest.fixture(scope="module")
def reduced_timing():
    return ReadTimingParameters().with_reduction(pre=0.40)


CSB_TR = 117.0
TAIL = 16.0 + 20.0  # tDMA + tECC


class TestBuildingBlocks:
    def test_step_latency(self, model):
        assert model.step_latency_us(PageType.CSB) == pytest.approx(CSB_TR + TAIL)
        assert model.step_latency_us(PageType.LSB) == pytest.approx(78.0 + TAIL)

    def test_negative_steps_rejected(self, model):
        with pytest.raises(ValueError):
            model.baseline(-1, PageType.CSB)


class TestEquation3Baseline:
    def test_no_retry(self, model):
        breakdown = model.baseline(0, PageType.CSB)
        assert breakdown.response_us == pytest.approx(CSB_TR + TAIL)
        assert breakdown.retry_steps == 0

    def test_retry_latency_scales_linearly(self, model):
        # Equation (3): tRETRY = N_RR * (tR + tDMA + tECC).
        for steps in (1, 5, 10, 20):
            breakdown = model.baseline(steps, PageType.CSB)
            assert breakdown.response_us == pytest.approx(
                (steps + 1) * (CSB_TR + TAIL))

    def test_channel_and_ecc_busy(self, model):
        breakdown = model.baseline(3, PageType.CSB)
        assert breakdown.channel_busy_us == pytest.approx(4 * 16.0)
        assert breakdown.ecc_busy_us == pytest.approx(4 * 20.0)


class TestEquation4PR2:
    def test_pr2_hides_transfer_and_decode(self, model):
        # Equation (4) / Figure 12(b): only the final step's tDMA + tECC stay
        # on the critical path.
        breakdown = model.pr2(10, PageType.CSB)
        assert breakdown.response_us == pytest.approx(11 * CSB_TR + TAIL)

    def test_pr2_saves_over_baseline(self, model):
        steps = 10
        saved = (model.baseline(steps, PageType.CSB).response_us
                 - model.pr2(steps, PageType.CSB).response_us)
        # Savings = N_RR * (tDMA + tECC).
        assert saved == pytest.approx(steps * TAIL)

    def test_pr2_reduces_step_latency_by_about_28pct(self, model):
        # Section 1: PR2 reduces the latency of a retry step by 28.5%
        # (tDMA + tECC = 36 us out of a 126 us average step).
        average_step = (model.step_latency_us(PageType.LSB)
                        + model.step_latency_us(PageType.CSB)
                        + model.step_latency_us(PageType.MSB)) / 3.0
        assert TAIL / average_step == pytest.approx(0.285, abs=0.01)

    def test_pr2_reset_overhead_on_die_only(self, model):
        breakdown = model.pr2(5, PageType.CSB)
        assert breakdown.die_busy_us == pytest.approx(breakdown.response_us + 5.0)
        no_retry = model.pr2(0, PageType.CSB)
        assert no_retry.die_busy_us == pytest.approx(no_retry.response_us)


class TestAR2:
    def test_ar2_matches_baseline_when_no_retry(self, model, reduced_timing):
        assert (model.ar2(0, PageType.CSB, reduced_timing).response_us
                == model.baseline(0, PageType.CSB).response_us)

    def test_ar2_shortens_each_retry_step(self, model, reduced_timing):
        steps = 10
        baseline = model.baseline(steps, PageType.CSB).response_us
        ar2 = model.ar2(steps, PageType.CSB, reduced_timing).response_us
        assert ar2 < baseline
        reduced_tr = reduced_timing.sensing_latency_us(PageType.CSB)
        expected = (CSB_TR + TAIL) + 1.0 + steps * (reduced_tr + TAIL)
        assert ar2 == pytest.approx(expected)


class TestEquation5PnAR2:
    def test_pnar2_combines_both_savings(self, model, reduced_timing):
        steps = 10
        reduced_tr = reduced_timing.sensing_latency_us(PageType.CSB)
        expected = (CSB_TR + TAIL) + 1.0 + steps * reduced_tr + TAIL
        breakdown = model.pnar2(steps, PageType.CSB, reduced_timing)
        assert breakdown.response_us == pytest.approx(expected)

    def test_pnar2_faster_than_pr2_and_ar2_for_multiple_steps(self, model,
                                                              reduced_timing):
        for steps in (2, 5, 10, 20):
            pnar2 = model.pnar2(steps, PageType.CSB, reduced_timing).response_us
            assert pnar2 < model.pr2(steps, PageType.CSB).response_us
            assert pnar2 < model.ar2(steps, PageType.CSB, reduced_timing).response_us

    def test_ordering_holds_across_page_types(self, model, reduced_timing):
        for page_type in PageType:
            baseline = model.baseline(8, page_type).response_us
            pr2 = model.pr2(8, page_type).response_us
            ar2 = model.ar2(8, page_type, reduced_timing).response_us
            pnar2 = model.pnar2(8, page_type, reduced_timing).response_us
            norr = model.no_retry(page_type).response_us
            assert norr < pnar2 < pr2 < baseline
            assert norr < ar2 < baseline


class TestRetryLatencyPerStep:
    """Each mechanism's tRETRY term, read off consecutive step counts."""

    def test_every_mechanism_costs_one_read_without_retries(self, model,
                                                            reduced_timing):
        for page_type in PageType:
            single = model.baseline(0, page_type)
            assert single.response_us == pytest.approx(
                model.step_latency_us(page_type))
            for breakdown in (model.pr2(0, page_type),
                              model.ar2(0, page_type, reduced_timing),
                              model.pnar2(0, page_type, reduced_timing),
                              model.no_retry(page_type)):
                assert breakdown == single

    def test_each_retry_step_adds_its_equation_term(self, model,
                                                    reduced_timing):
        reduced_tr = model.sensing_latency_us(PageType.CSB, reduced_timing)
        per_step = {
            # Equation (3): a whole read step per retry.
            "baseline": (lambda n: model.baseline(n, PageType.CSB),
                         CSB_TR + TAIL),
            # Equation (4): only the sensing of each retry.
            "pr2": (lambda n: model.pr2(n, PageType.CSB), CSB_TR),
            # AR2: a whole read step at the reduced tPRE.
            "ar2": (lambda n: model.ar2(n, PageType.CSB, reduced_timing),
                    reduced_tr + TAIL),
            # Equation (5): only the reduced sensing of each retry.
            "pnar2": (lambda n: model.pnar2(n, PageType.CSB, reduced_timing),
                      reduced_tr),
        }
        for name, (read, term) in per_step.items():
            for steps in (1, 4, 19):
                added = read(steps + 1).response_us - read(steps).response_us
                assert added == pytest.approx(term), name

    def test_ar2_without_a_reduction_only_adds_set_feature(self, model):
        default = ReadTimingParameters()
        set_feature = model.timing.t_set_feature_us
        for steps in (1, 5, 20):
            ar2 = model.ar2(steps, PageType.MSB, default)
            baseline = model.baseline(steps, PageType.MSB)
            assert ar2.response_us == pytest.approx(
                baseline.response_us + set_feature)
            assert ar2.die_busy_us == pytest.approx(
                baseline.die_busy_us + 2 * set_feature)

    def test_pnar2_without_a_reduction_adds_the_first_decode(self, model):
        # The initial read decodes (and fails) before SET FEATURE installs
        # the RPT timing, so its tDMA + tECC stay on the critical path where
        # PR2 pipelines them behind the first retry's sensing.
        default = ReadTimingParameters()
        set_feature = model.timing.t_set_feature_us
        for steps in (1, 5, 20):
            pnar2 = model.pnar2(steps, PageType.MSB, default)
            pr2 = model.pr2(steps, PageType.MSB)
            assert pnar2.response_us == pytest.approx(
                pr2.response_us + TAIL + set_feature)
            assert pnar2.die_busy_us == pytest.approx(
                pr2.die_busy_us + TAIL + 2 * set_feature)
