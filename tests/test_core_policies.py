"""Tests for the read-retry policies of Section 7."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.core import policies
from repro.core.policies import (
    AR2Policy,
    BaselinePolicy,
    NoRRPolicy,
    PR2Policy,
    PSOPolicy,
    PnAR2Policy,
    available_policies,
    get_policy,
    policy_suite,
)
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.nand.geometry import PageType
from repro.nand.timing import ReadTimingParameters
from repro.sim.spec import Condition, WorkloadSpec, preconditioned_simulator
from repro.ssd.config import SsdConfig

TESTS = Path(__file__).resolve().parent


class _TemperaturePricedPolicy(BaselinePolicy):
    """Baseline plus a microsecond per degree: a price that reads the
    temperature, which no shipped policy's price does."""

    name = "TemperaturePriced"

    def read_breakdown(self, required_steps, page_type, condition):
        breakdown = super().read_breakdown(required_steps, page_type, condition)
        return dataclasses.replace(
            breakdown, response_us=breakdown.response_us + condition.temperature_c)


#: Cases of the shared-price tests: a policy and the device temperature.
#: Cases next to each other differ in one part of the pricing identity.
PRICE_CASES = {
    "AR2/default": lambda: (get_policy("AR2"), 30.0),
    "AR2/flat": lambda: (get_policy(
        "AR2", rpt=ReadTimingParameterTable.conservative(0.40)), 30.0),
    "AR2/flat-slower": lambda: (get_policy("AR2", rpt=ReadTimingParameterTable.conservative(
        0.40, default_timing=ReadTimingParameters(t_pre_us=30.0))), 30.0),
    "PSO/0.3": lambda: (PSOPolicy(step_fraction=0.3), 30.0),
    "PSO/0.6": lambda: (PSOPolicy(step_fraction=0.6), 30.0),
    "temperature/30": lambda: (_TemperaturePricedPolicy(), 30.0),
    "temperature/85": lambda: (_TemperaturePricedPolicy(), 85.0),
}


def run_price_case(name):
    """One aged ``tiny()`` device of a case: its summary and condition count."""
    policy, temperature_c = PRICE_CASES[name]()
    config = dataclasses.replace(SsdConfig.tiny(), temperature_c=temperature_c)
    simulator = preconditioned_simulator(
        config, policy, Condition(1000, 6.0), rpt=policy.rpt)
    workload = WorkloadSpec(name="usr_1", num_requests=300, seed=5)
    result = simulator.run(workload.build_requests(config))
    # Through JSON, as the fresh process reports it.
    return json.loads(json.dumps({
        "summary": result.summary(),
        "distinct_read_conditions": simulator.distinct_read_conditions,
    }))


@pytest.fixture(scope="module")
def fresh_price_runs():
    """Every case run alone in a fresh interpreter."""
    runs = {}
    for name in PRICE_CASES:
        script = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
                  "import test_core_policies as cases; "
                  "print(json.dumps(cases.run_price_case(sys.argv[2])))")
        completed = subprocess.run(
            [sys.executable, "-c", script, str(TESTS), name],
            env=dict(os.environ, PYTHONPATH=str(TESTS.parent / "src")),
            capture_output=True, text=True, timeout=120, check=True)
        runs[name] = json.loads(completed.stdout.splitlines()[-1])
    return runs


@pytest.fixture(scope="module")
def aged():
    return OperatingCondition(2000, 12.0, 30.0)


class TestFactory:
    def test_available_policies(self):
        names = available_policies()
        assert set(names) == {"Baseline", "PR2", "AR2", "PnAR2", "NoRR",
                              "PSO", "PSO+PnAR2"}

    def test_get_policy_case_insensitive(self):
        assert isinstance(get_policy("baseline"), BaselinePolicy)
        assert isinstance(get_policy("PnAr2"), PnAR2Policy)
        assert get_policy("pso+pnar2").name == "PSO+PnAR2"

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            get_policy("turbo")

    def test_policy_suite_shares_rpt(self, default_rpt):
        suite = policy_suite(("AR2", "PnAR2"), rpt=default_rpt)
        assert suite["AR2"].rpt is default_rpt
        assert suite["PnAR2"].rpt is default_rpt


#: Each registered configuration and the latency equation it prices a read
#: with, given the retry steps it performs and the RPT's reduced timing.
MECHANISMS = {
    "Baseline": lambda model, steps, page_type, reduced: model.baseline(steps, page_type),
    "PR2": lambda model, steps, page_type, reduced: model.pr2(steps, page_type),
    "AR2": lambda model, steps, page_type, reduced: model.ar2(steps, page_type, reduced),
    "PnAR2": lambda model, steps, page_type, reduced: model.pnar2(steps, page_type, reduced),
    "NoRR": lambda model, steps, page_type, reduced: model.no_retry(page_type),
    "PSO": lambda model, steps, page_type, reduced: model.baseline(steps, page_type),
    "PSO+PnAR2": lambda model, steps, page_type, reduced: model.pnar2(
        steps, page_type, reduced),
}


class TestMechanisms:
    """Every configuration prices its reads with its own latency equation."""

    def test_every_registered_configuration_is_covered(self):
        assert set(MECHANISMS) == set(available_policies())

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_prices_with_its_mechanism(self, name, aged, default_rpt):
        policy = get_policy(name, rpt=default_rpt)
        reduced = default_rpt.reduced_timing_for(aged.pe_cycles, aged.retention_months)
        for required in (1, 7, 20):
            steps = policy.effective_retry_steps(required, aged)
            for page_type in PageType:
                assert policy.read_breakdown(required, page_type, aged) == MECHANISMS[name](
                    policy.latency_model, steps, page_type, reduced)


class TestRetryStepBehaviour:
    def test_baseline_keeps_required_steps(self, aged):
        assert BaselinePolicy().effective_retry_steps(12, aged) == 12

    def test_norr_never_retries(self, aged):
        assert NoRRPolicy().effective_retry_steps(12, aged) == 0

    def test_pso_reduces_steps_with_floor_of_three(self, aged):
        pso = PSOPolicy()
        # ~70% reduction but at least 3 steps when any retry is needed.
        assert pso.effective_retry_steps(20, aged) == 6
        assert pso.effective_retry_steps(8, aged) == 3
        assert pso.effective_retry_steps(2, aged) == 2
        assert pso.effective_retry_steps(0, aged) == 0

    def test_negative_steps_rejected(self, aged):
        with pytest.raises(ValueError):
            BaselinePolicy().effective_retry_steps(-1, aged)

    def test_pso_validation(self):
        with pytest.raises(ValueError):
            PSOPolicy(mechanism="warp")
        with pytest.raises(ValueError):
            PSOPolicy(step_fraction=0.0)
        with pytest.raises(ValueError):
            PSOPolicy(min_steps=0)


class TestLatencyOrdering:
    def test_policy_ordering_for_aged_reads(self, aged, default_rpt):
        steps = 15
        suite = policy_suite(("Baseline", "PR2", "AR2", "PnAR2", "NoRR"),
                             rpt=default_rpt)
        responses = {name: policy.read_breakdown(steps, PageType.CSB, aged).response_us
                     for name, policy in suite.items()}
        assert (responses["NoRR"] < responses["PnAR2"] < responses["PR2"]
                < responses["Baseline"])
        assert responses["AR2"] < responses["Baseline"]

    def test_no_retry_read_is_identical_across_policies(self, default_rpt):
        fresh = OperatingCondition(0, 0.0, 30.0)
        suite = policy_suite(("Baseline", "PR2", "AR2", "PnAR2"), rpt=default_rpt)
        responses = {name: policy.read_breakdown(0, PageType.MSB, fresh).response_us
                     for name, policy in suite.items()}
        assert len(set(round(value, 6) for value in responses.values())) == 1

    def test_ar2_uses_rpt_reduction(self, aged, default_rpt):
        policy = AR2Policy(rpt=default_rpt)
        reduced = policy.reduced_timing_for(aged)
        entry = default_rpt.entry_for(aged.pe_cycles, aged.retention_months)
        assert reduced.t_pre_us == pytest.approx(entry.t_pre_us)

    def test_uses_reduced_timing_flags(self):
        assert not BaselinePolicy().uses_reduced_timing
        assert not PR2Policy().uses_reduced_timing
        assert AR2Policy().uses_reduced_timing
        assert PnAR2Policy().uses_reduced_timing
        assert not PSOPolicy().uses_reduced_timing
        assert PSOPolicy(mechanism="pnar2").uses_reduced_timing

    def test_pso_pnar2_faster_than_pso(self, aged, default_rpt):
        pso = PSOPolicy(rpt=default_rpt)
        combined = PSOPolicy(rpt=default_rpt, mechanism="pnar2")
        steps = 20
        assert (combined.read_breakdown(steps, PageType.CSB, aged).response_us
                < pso.read_breakdown(steps, PageType.CSB, aged).response_us)

    def test_breakdown_step_counts(self, aged, default_rpt):
        pso = PSOPolicy(rpt=default_rpt)
        breakdown = pso.read_breakdown(20, PageType.CSB, aged)
        assert breakdown.retry_steps == 6
        norr = NoRRPolicy().read_breakdown(20, PageType.CSB, aged)
        assert norr.retry_steps == 0


class TestSharedPrices:
    def test_one_process_prices_every_case_as_a_fresh_one(self, fresh_price_runs):
        # Every case twice, the second time from prices all in the memo.
        for name in PRICE_CASES:
            for _ in range(2):
                assert run_price_case(name) == fresh_price_runs[name], name

    def test_a_device_priced_from_the_memo_counts_its_conditions(
            self, fresh_price_runs, monkeypatch):
        run_price_case("AR2/default")

        def refuse(*args):
            raise AssertionError("a price the memo holds was computed again")

        monkeypatch.setattr(AR2Policy, "read_breakdown", refuse)
        again = run_price_case("AR2/default")
        assert again == fresh_price_runs["AR2/default"]

    def test_identity_covers_the_parameters_and_the_rpt(self, default_rpt):
        assert (PSOPolicy(step_fraction=0.3).pricing_identity()
                != PSOPolicy(step_fraction=0.6).pricing_identity())
        assert (PSOPolicy().pricing_identity()
                != PSOPolicy(mechanism="pnar2").pricing_identity())
        flat = ReadTimingParameterTable.conservative(0.40)
        slower = ReadTimingParameterTable.conservative(
            0.40, default_timing=ReadTimingParameters(t_pre_us=30.0))
        identities = {AR2Policy(rpt=rpt).pricing_identity()
                      for rpt in (default_rpt, flat, slower)}
        assert len(identities) == 3
        assert (AR2Policy(rpt=flat).pricing_identity()
                == AR2Policy(rpt=ReadTimingParameterTable.conservative(0.40))
                .pricing_identity())

    def test_the_memo_is_bounded(self, monkeypatch, aged):
        monkeypatch.setattr(policies, "MAX_PRICES_PER_IDENTITY", 5)
        monkeypatch.setattr(policies, "MAX_PRICING_IDENTITIES", 2)
        monkeypatch.setattr(policies, "_SHARED_PRICES", OrderedDict())
        policy = BaselinePolicy()
        for pe_cycles in range(8):
            policy.shared_breakdown(
                3, PageType.CSB, OperatingCondition(pe_cycles, 6.0, 30.0))
        assert [key[2].pe_cycles for key in policy._prices] == [3, 4, 5, 6, 7]
        for fraction in (0.2, 0.4, 0.6, 0.8):
            PSOPolicy(step_fraction=fraction).shared_breakdown(
                3, PageType.CSB, aged)
        assert len(policies._SHARED_PRICES) == 2

    def test_an_unhashable_parameter_keeps_prices_private(self, aged):
        policy = BaselinePolicy()
        policy.history = []
        before = len(policies._SHARED_PRICES)
        assert (policy.shared_breakdown(4, PageType.LSB, aged)
                == policy.read_breakdown(4, PageType.LSB, aged))
        assert len(policies._SHARED_PRICES) == before
