"""``one-pool-primitive``: process pools start only inside ``WorkerPool``.

:class:`repro.sim.sweep.WorkerPool` is the simulator's one process pool: it
picks the start method, forks from a frozen heap, runs serially where a
pool cannot help (one payload, or inside a daemonic worker) and returns
results in payload order, which is what keeps ``processes=N`` runs
bitwise-identical to serial ones.  A pool started anywhere else bypasses
all of that, and worker supervision would need a second home.  The rule
flags calls that start one under the sim paths:
``multiprocessing.Pool``, the ``.Pool(...)`` of a start-method context
(``multiprocessing.get_context("fork").Pool(2)``, ``context.Pool(2)``) and
``concurrent.futures.ProcessPoolExecutor``.  ``WorkerPool``'s own call
carries the rule's disable pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import Finding, ModuleContext, Rule


def _pool_started(module: ModuleContext, func: ast.expr) -> Optional[str]:
    """What the call of ``func`` starts, when it starts a process pool."""
    dotted = module.imports.resolve(func)
    if dotted is not None:
        if dotted.startswith("multiprocessing.") and dotted.endswith(".Pool"):
            return dotted
        if dotted.startswith("concurrent.futures.") and dotted.endswith(".ProcessPoolExecutor"):
            return dotted
    if isinstance(func, ast.Attribute) and func.attr == "Pool":
        # A start-method context (or anything else) held in a local name.
        return "<context>.Pool"
    return None


class OnePoolPrimitiveRule(Rule):
    name = "one-pool-primitive"
    description = (
        "process pools (multiprocessing.Pool, a start-method context's .Pool(), "
        "ProcessPoolExecutor) start only inside WorkerPool; fan work out "
        "through WorkerPool or pool_map"
    )
    sim_scoped = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            started = _pool_started(module, node.func)
            if started is not None:
                yield module.finding(
                    self,
                    node,
                    f"{started}() starts a process pool outside WorkerPool; "
                    "use repro.sim.sweep.WorkerPool (or pool_map), the one pool "
                    "primitive",
                )
