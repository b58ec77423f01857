"""The built-in ``repro-lint`` rule set."""

from repro.lint.rules.counter_registration import CounterRegistrationRule
from repro.lint.rules.dict_order_pool import NoDictOrderAcrossPoolRule
from repro.lint.rules.global_random import NoGlobalRandomRule
from repro.lint.rules.one_pool_primitive import OnePoolPrimitiveRule
from repro.lint.rules.pickle_safe_pool import PickleSafePoolRule
from repro.lint.rules.registration_sync import ExperimentRegistrationSyncRule
from repro.lint.rules.seed_param import ExperimentSeedParamRule
from repro.lint.rules.unordered_iteration import NoUnorderedIterationRule
from repro.lint.rules.wall_clock import NoWallClockRule

#: Every built-in rule class, in documentation order.
RULE_CLASSES = (
    NoWallClockRule,
    NoGlobalRandomRule,
    NoUnorderedIterationRule,
    CounterRegistrationRule,
    PickleSafePoolRule,
    NoDictOrderAcrossPoolRule,
    OnePoolPrimitiveRule,
    ExperimentRegistrationSyncRule,
    ExperimentSeedParamRule,
)

RULE_NAMES = tuple(rule_class.name for rule_class in RULE_CLASSES)


def default_rules():
    """Fresh instances of every built-in rule."""
    return tuple(rule_class() for rule_class in RULE_CLASSES)


def rules_by_name(names):
    """Instances of the named rules, preserving documentation order.

    :raises KeyError: for a name no built-in rule carries.
    """
    requested = set(names)
    unknown = requested - set(RULE_NAMES)
    if unknown:
        raise KeyError(
            f"unknown rule(s) {sorted(unknown)}; available: {list(RULE_NAMES)}"
        )
    return tuple(
        rule_class() for rule_class in RULE_CLASSES if rule_class.name in requested
    )
