"""``no-dict-order-across-pool``: worker output must not encode payload dict order.

Dict iteration order is insertion order, and pickling preserves it — so a
payload dict crossing a ``pool_map`` boundary carries its *parent-side
construction history* into the worker.  That history is exactly the kind of
incidental state the bitwise serial==parallel guarantee forbids results from
depending on: a payload assembled from a merge, a cache, or a refactored
builder can present the same content in a different order, and a worker that
iterates it bare silently reorders its rows.  Workers must be pure functions
of payload *content*, so the rule flags order-sensitive iteration of a
worker's dict-typed parameters:

* ``for x in param`` / comprehensions over ``param`` (when the function also
  uses ``param`` as a dict — ``.items()`` / ``.keys()`` / ``.values()`` /
  ``.get()`` / ``.setdefault()`` / ``.update()``),
* ``for k, v in param.items()`` (and ``.keys()`` / ``.values()``),
* order-preserving materializations — ``list(param)``, ``tuple(...)``,
  ``enumerate(...)``, ``iter(...)`` — of either form.

A *worker* is any callable handed as the first argument to a configured pool
entry point (``pool-entry-points`` in ``[tool.repro-lint]``, default
``pool_map``, ``map`` and ``submit``), directly or through
``functools.partial``.
Wrapping the iteration in ``sorted(...)`` — or any other order-insensitive
consumer — is the canonical fix and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.lint.engine import Finding, ModuleContext, Rule

#: Attribute accesses that mark a parameter as dict-typed.
DICT_EVIDENCE = frozenset(
    {"items", "keys", "values", "get", "setdefault", "update"}
)

#: Dict views whose iteration order is the dict's insertion order.
DICT_VIEWS = frozenset({"items", "keys", "values"})

#: Calls that materialize their argument in iteration order.
ORDER_SENSITIVE = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})

#: Builtins whose result does not depend on argument order.
ORDER_INSENSITIVE = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)


def _callable_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _worker_names(tree: ast.Module, entry_points: frozenset) -> Set[str]:
    """Names referenced as the fan-out callable of a pool entry point."""
    workers: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _callable_name(node.func) not in entry_points or not node.args:
            continue
        arg = node.args[0]
        # Unwrap functools.partial; the pickle-safe-pool rule already
        # polices what may legally sit underneath.
        if isinstance(arg, ast.Call) and _callable_name(arg.func) == "partial":
            if not arg.args:
                continue
            arg = arg.args[0]
        if isinstance(arg, ast.Name):
            workers.add(arg.id)
    return workers


class _WorkerVisitor(ast.NodeVisitor):
    """Flags order-sensitive payload-dict iteration inside one worker."""

    def __init__(self, rule: "NoDictOrderAcrossPoolRule",
                 module: ModuleContext, function: ast.FunctionDef,
                 params: Set[str], dict_params: Set[str]):
        self.rule = rule
        self.module = module
        self.function = function
        self.params = params
        self.dict_params = dict_params
        self.findings: List[Finding] = []
        #: Comprehensions directly inside an order-insensitive call.
        self._order_safe: Set[int] = set()

    # -- payload-dict detection ----------------------------------------------
    def _iterated_param(self, node: ast.expr) -> str:
        """The parameter name an iterable expression reads, or ''.

        ``param`` needs corroborating dict evidence; ``param.items()`` (and
        the other views) is dict evidence by itself.
        """
        if isinstance(node, ast.Name) and node.id in self.dict_params:
            return node.id
        if (
            isinstance(node, ast.Call)
            and not node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DICT_VIEWS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.params
        ):
            return node.func.value.id
        return ""

    def _flag(self, node: ast.AST, param: str, context: str) -> None:
        self.findings.append(
            self.module.finding(
                self.rule,
                node,
                f"pool worker {self.function.name}() {context} its payload "
                f"dict {param!r} in insertion order, which is parent-side "
                "construction history crossing the process boundary; iterate "
                "sorted(...) so the result depends only on payload content",
            )
        )

    # -- iteration sites ------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        param = self._iterated_param(node.iter)
        if param:
            self._flag(node, param, "iterates")
        self.generic_visit(node)

    def _visit_comprehension(self, node, kind: str) -> None:
        if id(node) not in self._order_safe:
            for generator in node.generators:
                param = self._iterated_param(generator.iter)
                if param:
                    self._flag(node, param, f"iterates ({kind})")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, "list comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, "generator expression")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, "dict comprehension")

    # Building a set (unordered) from a dict view is order-insensitive.
    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _callable_name(node.func)
        if isinstance(node.func, ast.Name) and name in ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                    ast.DictComp)):
                    self._order_safe.add(id(arg))
            # sorted(param) / min(param.items()) etc. consume the order.
            self.generic_visit(node)
            return
        if isinstance(node.func, ast.Name) and name in ORDER_SENSITIVE:
            if node.args:
                param = self._iterated_param(node.args[0])
                if param:
                    self._flag(node, param, f"materializes ({name}())")
        self.generic_visit(node)


class NoDictOrderAcrossPoolRule(Rule):
    name = "no-dict-order-across-pool"
    description = (
        "pool workers must not iterate payload dicts bare (for loops, "
        "comprehensions, list()/tuple()/enumerate()); insertion order is "
        "parent construction history, not content — sort first"
    )
    sim_scoped = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        entry_points = frozenset(module.config.pool_entry_points)
        workers = _worker_names(module.tree, entry_points)
        if not workers:
            return iter(())
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name not in workers:
                continue
            arguments = node.args
            params = {
                arg.arg
                for arg in (arguments.posonlyargs + arguments.args
                            + arguments.kwonlyargs)
            }
            dict_params = self._dict_evidenced(node, params)
            visitor = _WorkerVisitor(self, module, node, params, dict_params)
            for statement in node.body:
                visitor.visit(statement)
            findings.extend(visitor.findings)
        return iter(findings)

    @staticmethod
    def _dict_evidenced(function: ast.FunctionDef,
                        params: Set[str]) -> Set[str]:
        """Parameters the function body uses as dicts."""
        evidenced: Set[str] = set()
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in DICT_EVIDENCE
                and isinstance(node.value, ast.Name)
                and node.value.id in params
            ):
                evidenced.add(node.value.id)
        return evidenced
