"""repro-lint — static analysis for the simulator's determinism invariants.

The repo's headline guarantees (bitwise serial==parallel sweep and fleet
rows, reproducible seeded runs, counter-complete ``SimulationMetrics``
merges, registry-synchronized experiment docs) are load-bearing for every
experiment, and each can be silently broken by a one-line change: an
unseeded ``random.*`` call, a wall-clock read in a sim path, a set
iterated into result rows, a closure handed to ``pool_map``.  This package
machine-checks them with a small AST rule engine:

* :mod:`repro.lint.engine` — :class:`Rule` base class, :class:`Finding`,
  and the :class:`LintEngine` that walks the configured paths;
* :mod:`repro.lint.rules` — the nine project-specific rules;
* :mod:`repro.lint.config` — ``[tool.repro-lint]`` in ``pyproject.toml``;
* :mod:`repro.lint.pragmas` — inline ``# repro-lint: disable=<rule>``;
* :mod:`repro.lint.cli` — the ``repro-lint`` console script
  (``text``/``json``/``github`` output, non-zero exit on findings).

Run it as ``repro-lint`` (installed) or ``python -m repro.lint``.
"""

from repro.lint.config import LintConfig, LintConfigError
from repro.lint.engine import Finding, LintEngine, ModuleContext, Rule
from repro.lint.pragmas import PragmaIndex
from repro.lint.rules import RULE_CLASSES, RULE_NAMES, default_rules, rules_by_name

__all__ = [
    "Finding",
    "LintConfig",
    "LintConfigError",
    "LintEngine",
    "ModuleContext",
    "PragmaIndex",
    "Rule",
    "RULE_CLASSES",
    "RULE_NAMES",
    "default_rules",
    "rules_by_name",
]
