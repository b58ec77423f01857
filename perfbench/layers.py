"""The module -> layer table of ``src/repro``, and profile bucketing by layer.

Every module of the simulator belongs to exactly one layer.  An entry is a
module name (``repro.ssd.ftl``) or a whole package (``repro.errors.*``, the
package and everything below it); a module named exactly wins over a
package entry.  Mixed packages (``repro.ssd``, ``repro.workloads``) are
listed module by module, so a new module there resolves to no layer and
``tests/test_perfbench_layers.py`` fails until it is placed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads": (
        "repro.workloads",
        "repro.workloads.catalog",
        "repro.workloads.closed_loop",
        "repro.workloads.msrc",
        "repro.workloads.scenarios",
        "repro.workloads.source",
        "repro.workloads.synthetic",
        "repro.workloads.trace",
        "repro.workloads.ycsb",
    ),
    "router": ("repro.workloads.router", "repro.workloads.tenants"),
    "engine": ("repro.ssd.engine",),
    "scheduler": ("repro.ssd.scheduler",),
    "controller": (
        "repro.ssd",
        "repro.ssd.config",
        "repro.ssd.controller",
        "repro.ssd.faults",
        "repro.ssd.request",
        "repro.ssd.write_buffer",
    ),
    "ftl": ("repro.ssd.ftl", "repro.ssd.gc"),
    "dftl": ("repro.ssd.dftl",),
    "retry": ("repro.ssd.retry_grid", "repro.ssd.flash_backend", "repro.errors.*"),
    "policy": ("repro.core.*",),
    "metrics": ("repro.ssd.metrics",),
    "sim": ("repro.sim.*", "repro.ssd.slab_transport"),
    "store": ("repro.experiments.store",),
    # The device model behind the retry tables: chip physics, ECC and the
    # characterization that builds the default RPT.
    "model": ("repro.nand.*", "repro.ecc.*", "repro.characterization.*"),
    # Code no benchmark workload runs: experiment harnesses, reporting, lint.
    "harness": (
        "repro",
        "repro.__main__",
        "repro.version",
        "repro.experiments.*",
        "repro.analysis.*",
        "repro.lint.*",
    ),
}

#: Self time no layer owns: the benchmark's own code, and calls no
#: ``repro`` function made.
UNATTRIBUTED = "unattributed"

_EXACT = {
    entry: layer
    for layer, entries in LAYERS.items()
    for entry in entries
    if not entry.endswith(".*")
}
_PACKAGES = {
    entry[:-2]: layer
    for layer, entries in LAYERS.items()
    for entry in entries
    if entry.endswith(".*")
}


def layer_of(module: str) -> Optional[str]:
    """The layer owning ``module``, or None when the table does not place it."""
    if module in _EXACT:
        return _EXACT[module]
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = _PACKAGES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def module_name(path: Path, src_root: Path) -> Optional[str]:
    """``src/repro/ssd/ftl.py`` -> ``repro.ssd.ftl``; None outside ``src_root``."""
    try:
        relative = path.relative_to(src_root)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or None


def bucket_self_times(stats: dict, src_root: Path, bench_root: Path) -> Dict[str, float]:
    """Profiler self seconds per layer, plus :data:`UNATTRIBUTED`.

    ``stats`` is ``pstats.Stats(...).stats``.  A function in ``src/repro``
    is charged to its module's layer and one in the benchmark to
    :data:`UNATTRIBUTED`.  Any other function (builtins, the standard
    library, numpy) is charged to its callers in proportion to the time it
    spent for each, recursively, until a ``repro`` or benchmark caller is
    reached: its time lands on its nearest ``repro`` caller.
    """
    terminal: Dict[tuple, Optional[str]] = {}
    for func in stats:
        filename = func[0]
        if filename.startswith("<") or filename == "~":
            terminal[func] = None
            continue
        path = Path(filename).resolve()
        module = module_name(path, src_root)
        if module is not None:
            terminal[func] = layer_of(module) or UNATTRIBUTED
        elif path.is_relative_to(bench_root):
            terminal[func] = UNATTRIBUTED
        else:
            terminal[func] = None

    shares: Dict[tuple, Dict[str, float]] = {}
    in_progress = set()

    def share_of(func) -> Dict[str, float]:
        if terminal.get(func) is not None:
            return {terminal[func]: 1.0}
        if func in shares:
            return shares[func]
        if func in in_progress or func not in stats:
            return {UNATTRIBUTED: 1.0}
        in_progress.add(func)
        callers = stats[func][4]
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[0] for caller, entry in callers.items()}
            total = sum(weights.values())
        result: Dict[str, float] = {}
        if total <= 0:
            result[UNATTRIBUTED] = 1.0
        else:
            for caller, weight in weights.items():
                for layer, fraction in share_of(caller).items():
                    result[layer] = result.get(layer, 0.0) + fraction * weight / total
        in_progress.discard(func)
        shares[func] = result
        return result

    seconds = {layer: 0.0 for layer in LAYERS}
    seconds[UNATTRIBUTED] = 0.0
    for func, entry in stats.items():
        self_time = entry[2]
        if self_time <= 0:
            continue
        for layer, fraction in share_of(func).items():
            seconds[layer] += self_time * fraction
    return seconds
