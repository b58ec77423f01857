"""The benchmark's module -> layer table covers the simulator exactly once."""

import importlib.util
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = BENCH_ROOT.parent / "src"

_spec = importlib.util.spec_from_file_location("perfbench_layers", BENCH_ROOT / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def _modules():
    return sorted(
        layers.module_name(path, SRC_ROOT) for path in (SRC_ROOT / "repro").rglob("*.py")
    )


def test_every_module_maps_to_a_layer():
    unplaced = [module for module in _modules() if layers.layer_of(module) is None]
    assert unplaced == [], f"add these modules to perfbench/layers.py LAYERS: {unplaced}"


def test_every_entry_is_listed_once_and_names_real_code():
    entries = [entry for listed in layers.LAYERS.values() for entry in listed]
    assert len(entries) == len(set(entries))
    modules = set(_modules())
    for entry in entries:
        name = entry[:-2] if entry.endswith(".*") else entry
        assert name in modules, f"{entry} names no module under src/repro"


def test_builtins_are_charged_to_their_nearest_repro_caller():
    controller = (str(SRC_ROOT / "repro/ssd/controller.py"), 1, "run")
    bench = (str(BENCH_ROOT / "run.py"), 1, "main")
    stdlib = ("/usr/lib/python3/heapq.py", 1, "push")
    builtin = ("~", 0, "<built-in method len>")
    stats = {
        controller: (1, 1, 2.0, 9.0, {}),
        bench: (1, 1, 1.0, 10.0, {}),
        # The stdlib function is called only by the controller ...
        stdlib: (1, 1, 3.0, 4.0, {controller: (1, 1, 3.0, 4.0)}),
        # ... and the builtin by both the stdlib function and the benchmark.
        builtin: (2, 2, 4.0, 4.0, {stdlib: (1, 1, 1.0, 1.0), bench: (1, 1, 3.0, 3.0)}),
    }
    seconds = layers.bucket_self_times(stats, SRC_ROOT, BENCH_ROOT)
    assert seconds["controller"] == 2.0 + 3.0 + 1.0
    assert seconds[layers.UNATTRIBUTED] == 1.0 + 3.0
    assert sum(seconds.values()) == 10.0
