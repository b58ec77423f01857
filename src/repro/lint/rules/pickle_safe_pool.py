"""``pickle-safe-pool``: pool fan-out callables must be module-level.

``pool_map`` pickles the worker callable into each pool process.  Lambdas,
functions defined inside other functions, and ``self.method`` references
either fail to pickle outright or drag a whole instance across the process
boundary — and both failure modes appear only when ``processes > 1``, far
from the code that introduced them.  The rule flags such callables at the
call site of any configured pool entry point (``pool-entry-points`` in
``[tool.repro-lint]``, default ``pool_map``, ``map`` and ``submit``, so
``WorkerPool.map`` and ``WorkerPool.submit`` are covered too);
``functools.partial`` is allowed as long as the wrapped callable is itself
module-level.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.engine import Finding, ModuleContext, Rule


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                walk(child, True)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return nested


def _callable_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class PickleSafePoolRule(Rule):
    name = "pickle-safe-pool"
    description = (
        "callables handed to pool_map (and other configured pool entry "
        "points) must be module-level functions; lambdas, closures and "
        "self.method break worker pickling"
    )
    sim_scoped = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        entry_points = frozenset(module.config.pool_entry_points)
        nested = _nested_function_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _callable_name(node.func) not in entry_points or not node.args:
                continue
            for finding in self._check_callable(module, node.args[0], nested):
                yield finding

    def _check_callable(
        self, module: ModuleContext, arg: ast.expr, nested: Set[str]
    ) -> List[Finding]:
        if isinstance(arg, ast.Lambda):
            return [
                module.finding(
                    self,
                    arg,
                    "lambda passed to a pool entry point cannot be pickled "
                    "into worker processes; define a module-level function",
                )
            ]
        if isinstance(arg, ast.Name) and arg.id in nested:
            return [
                module.finding(
                    self,
                    arg,
                    f"{arg.id!r} is defined inside another function; pool "
                    "workers can only unpickle module-level callables",
                )
            ]
        if (
            isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id in ("self", "cls")
        ):
            return [
                module.finding(
                    self,
                    arg,
                    f"bound method {arg.value.id}.{arg.attr} passed to a pool "
                    "entry point pickles the whole instance into every "
                    "worker; use a module-level function taking plain data",
                )
            ]
        if isinstance(arg, ast.Call) and _callable_name(arg.func) == "partial":
            if arg.args:
                return self._check_callable(module, arg.args[0], nested)
        return []
