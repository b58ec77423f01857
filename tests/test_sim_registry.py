"""Tests for the policy registry of the session API."""

import pytest

from repro.core.policies import BaselinePolicy, PnAR2Policy, ReadRetryPolicy
from repro.sim.registry import (
    DuplicatePolicyError,
    PolicyLookupError,
    PolicyRegistry,
    default_registry,
)


class _ToyPolicy(ReadRetryPolicy):
    name = "Toy"

    def read_breakdown(self, required_steps, page_type, condition):
        return self.latency_model.baseline(required_steps, page_type)


class TestRegistration:
    def test_register_and_create(self):
        registry = PolicyRegistry()
        registry.register("Toy", lambda timing=None, rpt=None: _ToyPolicy(
            timing=timing, rpt=rpt))
        policy = registry.create("toy")
        assert isinstance(policy, _ToyPolicy)

    def test_decorator_uses_class_name_attribute(self):
        registry = PolicyRegistry()

        @registry.register_policy(tags=("custom",))
        class MyPolicy(_ToyPolicy):
            name = "Mine"

        assert registry.names() == ("Mine",)
        assert registry.names(tag="custom") == ("Mine",)
        assert isinstance(registry.create("MINE"), MyPolicy)

    def test_decorator_rejects_abstract_name(self):
        registry = PolicyRegistry()
        with pytest.raises(ValueError):
            @registry.register_policy()
            class Nameless(ReadRetryPolicy):
                def read_breakdown(self, *args):
                    raise NotImplementedError

    def test_duplicate_name_rejected(self):
        registry = PolicyRegistry()
        registry.register("Toy", _ToyPolicy)
        with pytest.raises(DuplicatePolicyError):
            registry.register("toy", _ToyPolicy)

    def test_overwrite_replaces(self):
        registry = PolicyRegistry()
        registry.register("Toy", _ToyPolicy)
        registry.register("Toy", lambda timing=None, rpt=None: BaselinePolicy(
            timing=timing, rpt=rpt), overwrite=True)
        assert isinstance(registry.create("toy"), BaselinePolicy)

    def test_unregister(self):
        registry = PolicyRegistry()
        registry.register("Toy", _ToyPolicy)
        registry.unregister("TOY")
        assert "toy" not in registry
        assert len(registry) == 0


    def test_registered_names_are_trimmed(self):
        registry = PolicyRegistry()
        registry.register("  Toy ", _ToyPolicy)
        assert registry.names() == ("Toy",)
        assert " TOY" in registry
        assert isinstance(registry.create("toy  "), _ToyPolicy)
        with pytest.raises(DuplicatePolicyError):
            registry.register("toy", _ToyPolicy)

    def test_blank_name_rejected(self):
        registry = PolicyRegistry()
        for blank in ("", "   "):
            with pytest.raises(ValueError):
                registry.register(blank, _ToyPolicy)
        assert len(registry) == 0

    def test_overwrite_keeps_the_registration_order(self):
        registry = PolicyRegistry()
        for name in ("First", "Second", "Third"):
            registry.register(name, _ToyPolicy, tags=("old",))
        registry.register("SECOND", BaselinePolicy, tags=("new",), overwrite=True)
        assert registry.names() == ("First", "SECOND", "Third")
        assert registry.names(tag="new") == ("SECOND",)
        assert registry.names(tag="old") == ("First", "Third")

    def test_unregister_unknown_name_raises(self):
        registry = PolicyRegistry()
        registry.register("Toy", _ToyPolicy)
        with pytest.raises(PolicyLookupError):
            registry.unregister("plain")
        assert registry.names() == ("Toy",)


class TestLookup:
    def test_unknown_name_raises_value_error(self):
        registry = PolicyRegistry()
        with pytest.raises(PolicyLookupError):
            registry.create("missing")
        # PolicyLookupError must stay a ValueError for legacy callers.
        with pytest.raises(ValueError):
            registry.create("missing")

    def test_canonical_name_is_case_insensitive(self):
        assert default_registry().canonical_name("pnar2") == "PnAR2"
        assert default_registry().canonical_name(" PSO+PNAR2 ") == "PSO+PnAR2"

    def test_contains_and_iter(self):
        registry = default_registry()
        assert "Baseline" in registry
        assert "baseline" in registry
        assert "turbo" not in registry
        assert list(registry) == list(registry.names())


class TestBuiltinRegistrations:
    def test_all_paper_policies_registered(self):
        assert set(default_registry().names()) == {
            "Baseline", "PR2", "AR2", "PnAR2", "NoRR", "PSO", "PSO+PnAR2"}

    def test_figure_tags_replace_hardcoded_tuples(self):
        registry = default_registry()
        assert registry.names(tag="fig14") == (
            "Baseline", "PR2", "AR2", "PnAR2", "NoRR")
        assert set(registry.names(tag="fig15")) == {
            "Baseline", "NoRR", "PSO", "PSO+PnAR2"}

    def test_pso_pnar2_wraps_pnar2_mechanism(self):
        policy = default_registry().create("pso+pnar2")
        assert policy.name == "PSO+PnAR2"
        assert policy.uses_reduced_timing

    def test_create_matches_legacy_get_policy(self):
        from repro.core.policies import get_policy

        assert isinstance(get_policy("PnAr2"), PnAR2Policy)
        assert type(default_registry().create("PnAr2")) is PnAR2Policy

    def test_suite_shares_rpt(self, default_rpt):
        suite = default_registry().suite(("AR2", "PnAR2"), rpt=default_rpt)
        assert suite["AR2"].rpt is default_rpt
        assert suite["PnAR2"].rpt is default_rpt

    def test_suite_builds_and_shares_rpt_lazily(self):
        suite = default_registry().suite(("AR2", "PnAR2"))
        assert suite["AR2"].rpt is suite["PnAR2"].rpt
