"""Configuration for the ``repro-lint`` static-analysis pass.

The linter is configured from the ``[tool.repro-lint]`` table of
``pyproject.toml``:

* ``paths`` — repo-relative files/directories linted by default;
* ``exclude`` — paths skipped entirely;
* ``sim-paths`` — where the determinism rules (wall clock, global RNG,
  unordered iteration, pool pickling) apply; scripts and benchmarks live
  outside these prefixes and are therefore allowlisted by construction;
* ``disable`` — rule names turned off globally;
* ``experiments-doc`` / ``experiments-package`` — the documentation file and
  package the ``experiment-registration-sync`` rule keeps in sync;
* ``pool-entry-points`` — callable names treated as process-pool fan-out
  primitives by ``pickle-safe-pool`` and ``no-dict-order-across-pool``
  (default ``pool_map``, ``map`` and ``submit``, the last two covering
  ``WorkerPool.map`` and ``WorkerPool.submit``);
* per-rule ``[tool.repro-lint.rules.<rule>]`` tables with an ``allow`` list
  of paths where that one rule is skipped.

Everything has working defaults, so the linter also runs on a tree without
any ``pyproject.toml`` at all (the fixture projects the tests build).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Tuple

try:
    import tomllib
except ImportError:  # pragma: no cover - Python < 3.11
    try:
        import tomli as tomllib  # the same parser, installed with pytest on 3.9 and 3.10
    except ImportError:
        tomllib = None


class LintConfigError(ValueError):
    """Raised when ``[tool.repro-lint]`` contains an invalid value."""


def path_matches(relpath: str, entries: Iterable[str]) -> bool:
    """True when ``relpath`` equals an entry or lies under an entry directory."""
    for entry in entries:
        entry = entry.rstrip("/")
        if relpath == entry or relpath.startswith(entry + "/"):
            return True
    return False


def _string_tuple(table: Mapping, key: str, default: Tuple[str, ...]) -> Tuple[str, ...]:
    value = table.get(key, default)
    if isinstance(value, str) or not all(isinstance(item, str) for item in value):
        raise LintConfigError(f"[tool.repro-lint] {key!r} must be a list of strings")
    return tuple(value)


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration (defaults merged with pyproject)."""

    root: Path = field(default_factory=Path.cwd)
    paths: Tuple[str, ...] = ("src/repro",)
    exclude: Tuple[str, ...] = ()
    sim_paths: Tuple[str, ...] = ("src/repro",)
    disable: Tuple[str, ...] = ()
    rule_allow: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    experiments_doc: str = "EXPERIMENTS.md"
    experiments_package: str = "src/repro/experiments"
    pool_entry_points: Tuple[str, ...] = ("pool_map", "map", "submit")

    @classmethod
    def load(cls, root: Path, pyproject: Optional[Path] = None) -> "LintConfig":
        """Read ``[tool.repro-lint]`` from ``pyproject.toml`` under ``root``.

        A missing file (or a pyproject without the table) yields the default
        configuration rooted at ``root``.
        """
        root = Path(root).resolve()
        pyproject = pyproject if pyproject is not None else root / "pyproject.toml"
        table: Mapping = {}
        if pyproject.is_file():
            if tomllib is None:  # pragma: no cover - Python < 3.11
                raise LintConfigError(
                    "reading pyproject.toml requires the tomllib module (Python >= 3.11) "
                    "or the tomli package"
                )
            with open(pyproject, "rb") as handle:
                table = tomllib.load(handle).get("tool", {}).get("repro-lint", {})
        rule_tables = table.get("rules", {})
        if not isinstance(rule_tables, Mapping):
            raise LintConfigError("[tool.repro-lint.rules] must be a table of rule tables")
        rule_allow = {}
        for rule_name in sorted(rule_tables):
            rule_table = rule_tables[rule_name]
            if not isinstance(rule_table, Mapping):
                raise LintConfigError(
                    f"[tool.repro-lint.rules.{rule_name}] must be a table"
                )
            rule_allow[rule_name] = _string_tuple(rule_table, "allow", ())
        return cls(
            root=root,
            paths=_string_tuple(table, "paths", cls.paths),
            exclude=_string_tuple(table, "exclude", ()),
            sim_paths=_string_tuple(table, "sim-paths", cls.sim_paths),
            disable=_string_tuple(table, "disable", ()),
            rule_allow=rule_allow,
            experiments_doc=str(table.get("experiments-doc", cls.experiments_doc)),
            experiments_package=str(
                table.get("experiments-package", cls.experiments_package)
            ),
            pool_entry_points=_string_tuple(
                table, "pool-entry-points", cls.pool_entry_points
            ),
        )

    # -- rule gating ----------------------------------------------------------
    def rule_applies(self, rule_name: str, relpath: str, sim_scoped: bool) -> bool:
        """Whether ``rule_name`` runs on the file at ``relpath``."""
        if rule_name in self.disable:
            return False
        if sim_scoped and not path_matches(relpath, self.sim_paths):
            return False
        return not path_matches(relpath, self.rule_allow.get(rule_name, ()))

    def excluded(self, relpath: str) -> bool:
        return path_matches(relpath, self.exclude)
