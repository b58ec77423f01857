"""Tests for the ``repro-lint`` static-analysis pass (repro.lint)."""

import json
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    LintConfig,
    LintConfigError,
    LintEngine,
    RULE_NAMES,
    default_rules,
    rules_by_name,
)
from repro.lint.cli import discover_root, main
from repro.lint.config import path_matches
from repro.lint.engine import PARSE_ERROR_RULE
from repro.lint.pragmas import PragmaIndex
from repro.lint.reporting import format_github, format_json, format_text, render

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Default location for fixture snippets: inside the sim paths.
SIM_PATH = "src/repro/ssd/example.py"


@pytest.fixture(scope="module")
def engine():
    return LintEngine(LintConfig(root=REPO_ROOT))


def lint(engine, source, relpath=SIM_PATH):
    return engine.lint_source(source, relpath)


def rules_hit(engine, source, relpath=SIM_PATH):
    return sorted({finding.rule for finding in lint(engine, source, relpath)})


# -- rule: no-wall-clock -------------------------------------------------------
class TestNoWallClock:
    BAD = (
        "import time\n\ndef f():\n    return time.time()\n",
        "from time import perf_counter as pc\nx = pc()\n",
        "import time\nt = time.monotonic_ns()\n",
        "from datetime import datetime\nstamp = datetime.now()\n",
        "import os\nnoise = os.urandom(8)\n",
        "import secrets\ntoken = secrets.token_hex(4)\n",
        "import uuid\nrun_id = uuid.uuid4()\n",
    )

    @pytest.mark.parametrize("source", BAD)
    def test_flags_wall_clock_reads(self, engine, source):
        assert rules_hit(engine, source) == ["no-wall-clock"]

    def test_simulated_time_is_fine(self, engine):
        source = (
            "class Clock:\n"
            "    def advance(self, delta_us):\n"
            "        self.now_us += delta_us\n"
            "        return self.now_us\n"
        )
        assert lint(engine, source) == []

    def test_local_name_shadowing_is_not_resolved(self, engine):
        # A local callable named ``time`` is not the stdlib module.
        source = "def f(time):\n    return time.time()\n"
        assert lint(engine, source) == []

    def test_outside_sim_paths_is_allowlisted(self, engine):
        source = "import time\nstarted = time.perf_counter()\n"
        assert lint(engine, source, relpath="scripts/run_benchmarks.py") == []
        assert lint(engine, source, relpath="benchmarks/test_bench_micro.py") == []


# -- rule: no-global-random ----------------------------------------------------
class TestNoGlobalRandom:
    BAD = (
        "import random\nrandom.shuffle([1, 2])\n",
        "import random\nrandom.seed(0)\n",
        "from random import randint\nvalue = randint(0, 7)\n",
        "import numpy as np\nnp.random.seed(3)\n",
        "import numpy as np\nvalue = np.random.rand(4)\n",
        "from numpy.random import normal\nvalue = normal()\n",
    )

    @pytest.mark.parametrize("source", BAD)
    def test_flags_global_rng_calls(self, engine, source):
        assert rules_hit(engine, source) == ["no-global-random"]

    def test_unseeded_constructor_flagged(self, engine):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_hit(engine, source) == ["no-global-random"]
        source = "from random import Random\nrng = Random()\n"
        assert rules_hit(engine, source) == ["no-global-random"]

    def test_seeded_constructors_and_parameters_are_fine(self, engine):
        source = (
            "import numpy as np\n"
            "from random import Random\n"
            "\n"
            "def f(seed, rng):\n"
            "    local = np.random.default_rng(seed)\n"
            "    legacy = np.random.RandomState(seed)\n"
            "    seq = np.random.SeedSequence(entropy=seed)\n"
            "    r = Random(seed)\n"
            "    return local.random() + rng.random() + r.random()\n"
        )
        assert lint(engine, source) == []


# -- rule: no-unordered-iteration ----------------------------------------------
class TestNoUnorderedIteration:
    BAD = (
        "for x in {1, 2, 3}:\n    pass\n",
        "def f(names):\n    s = set(names)\n    for n in s:\n        print(n)\n",
        "def f(a):\n    return list(set(a))\n",
        "def f(a):\n    return tuple(frozenset(a))\n",
        "def f(s):\n    s = set(s)\n    return [x + 1 for x in s]\n",
        "def f(s):\n    s = set(s)\n    return tuple(x for x in s)\n",
        "def f(s):\n    s = set(s)\n    return dict.fromkeys(s)\n",
        "def f(s):\n    s = set(s)\n    return ', '.join(s)\n",
        "def f(a, b):\n    diff = set(a) - set(b)\n    for x in diff:\n        print(x)\n",
        "def f(s):\n    s = set(s)\n    for i, x in enumerate(s):\n        print(i, x)\n",
    )

    @pytest.mark.parametrize("source", BAD)
    def test_flags_order_sensitive_set_iteration(self, engine, source):
        assert rules_hit(engine, source) == ["no-unordered-iteration"]

    GOOD = (
        "def f(s):\n    s = set(s)\n    for x in sorted(s):\n        print(x)\n",
        "def f(s):\n    s = set(s)\n    return sorted(s)\n",
        "def f(s):\n    s = set(s)\n    return len(s) + sum(s) + max(s)\n",
        "def f(s, x):\n    return x in set(s)\n",
        "def f(s):\n    return {x + 1 for x in set(s)}\n",
        "def f(s):\n    s = set(s)\n    return sorted(x + 1 for x in s)\n",
        "def f(s):\n    s = set(s)\n    return any(x > 2 for x in s)\n",
        "def f(items):\n    for x in items:\n        print(x)\n",
        "def f(s):\n    ordered = sorted(set(s))\n    return list(ordered)\n",
        "def f(d):\n    for key in d:\n        print(key)\n",
    )

    @pytest.mark.parametrize("source", GOOD)
    def test_sorted_and_order_insensitive_uses_are_fine(self, engine, source):
        assert lint(engine, source) == []

    def test_reassignment_clears_tracking(self, engine):
        source = (
            "def f(a):\n"
            "    s = set(a)\n"
            "    s = sorted(s)\n"
            "    for x in s:\n"
            "        print(x)\n"
        )
        assert lint(engine, source) == []


# -- rule: counter-registration ------------------------------------------------
class TestCounterRegistration:
    def test_counter_missing_from_counter_fields(self, engine):
        source = (
            "class M:\n"
            '    COUNTER_FIELDS = ("a",)\n'
            "\n"
            "    def __init__(self):\n"
            "        self.a = 0\n"
            "        self.b = 0\n"
        )
        findings = lint(engine, source)
        assert [f.rule for f in findings] == ["counter-registration"]
        assert "'b'" in findings[0].message

    def test_declared_but_never_initialized(self, engine):
        source = (
            "class M:\n"
            '    COUNTER_FIELDS = ("a", "ghost")\n'
            "\n"
            "    def __init__(self):\n"
            "        self.a = 0\n"
        )
        findings = lint(engine, source)
        assert [f.rule for f in findings] == ["counter-registration"]
        assert "'ghost'" in findings[0].message

    def test_counter_absent_from_summary_closure(self, engine):
        source = (
            "class M:\n"
            '    COUNTER_FIELDS = ("a", "b")\n'
            "\n"
            "    def __init__(self):\n"
            "        self.a = 0\n"
            "        self.b = 0\n"
            "\n"
            "    def summary(self):\n"
            '        return {"a": self.a}\n'
        )
        findings = lint(engine, source)
        assert [f.rule for f in findings] == ["counter-registration"]
        assert "'b'" in findings[0].message and "summary" in findings[0].message

    def test_transitive_summary_reads_count(self, engine):
        source = (
            "class M:\n"
            '    COUNTER_FIELDS = ("a", "b")\n'
            "\n"
            "    def __init__(self):\n"
            "        self.a = 0\n"
            "        self.b = 0\n"
            "\n"
            "    def ratio(self):\n"
            "        return self.b / max(1, self.a)\n"
            "\n"
            "    def summary(self):\n"
            '        return {"a": self.a, "ratio": self.ratio()}\n'
        )
        assert lint(engine, source) == []

    def test_floats_bools_and_private_names_are_not_counters(self, engine):
        source = (
            "class M:\n"
            "    COUNTER_FIELDS = ()\n"
            "\n"
            "    def __init__(self):\n"
            "        self.mean_us = 0.0\n"
            "        self.record_samples = False\n"
            "        self._internal = 0\n"
        )
        assert lint(engine, source) == []

    def test_class_without_counter_fields_is_skipped(self, engine):
        source = "class Histogram:\n    def __init__(self):\n        self.count = 0\n"
        assert lint(engine, source) == []

    def test_real_simulation_metrics_passes(self, engine):
        metrics = REPO_ROOT / "src" / "repro" / "ssd" / "metrics.py"
        assert engine.lint_file(metrics) == []


# -- rule: pickle-safe-pool ----------------------------------------------------
class TestPickleSafePool:
    def test_lambda_flagged(self, engine):
        source = "from repro.sim.sweep import pool_map\nr = pool_map(lambda p: p, [1], 2)\n"
        assert rules_hit(engine, source) == ["pickle-safe-pool"]

    def test_nested_function_flagged(self, engine):
        source = (
            "from repro.sim.sweep import pool_map\n"
            "\n"
            "def run(payloads):\n"
            "    def worker(payload):\n"
            "        return payload\n"
            "    return pool_map(worker, payloads, 2)\n"
        )
        assert rules_hit(engine, source) == ["pickle-safe-pool"]

    def test_bound_method_flagged(self, engine):
        source = (
            "from repro.sim.sweep import pool_map\n"
            "\n"
            "class Runner:\n"
            "    def go(self, payloads):\n"
            "        return pool_map(self.work, payloads, 2)\n"
        )
        assert rules_hit(engine, source) == ["pickle-safe-pool"]

    def test_partial_of_lambda_flagged(self, engine):
        source = (
            "from functools import partial\n"
            "from repro.sim.sweep import pool_map\n"
            "r = pool_map(partial(lambda p, k: p, k=1), [1], 2)\n"
        )
        assert rules_hit(engine, source) == ["pickle-safe-pool"]

    def test_lambda_to_worker_pool_map_flagged(self, engine):
        source = (
            "from repro.sim.sweep import WorkerPool\n"
            "r = WorkerPool(2).map(lambda p: p, [1])\n"
        )
        assert rules_hit(engine, source) == ["pickle-safe-pool"]

    def test_lambda_to_worker_pool_submit_flagged(self, engine):
        source = (
            "from repro.sim.sweep import WorkerPool\n"
            "r = list(WorkerPool(2).submit(lambda p: p, [1, 2], chunksize=2))\n"
        )
        assert rules_hit(engine, source) == ["pickle-safe-pool"]

    def test_module_level_function_is_fine(self, engine):
        source = (
            "from functools import partial\n"
            "from repro.sim.sweep import WorkerPool, pool_map\n"
            "\n"
            "def worker(payload, scale=1):\n"
            "    return payload * scale\n"
            "\n"
            "def run(payloads):\n"
            "    plain = pool_map(worker, payloads, 2)\n"
            "    bound = pool_map(partial(worker, scale=3), payloads, 2)\n"
            "    with WorkerPool(2) as pool:\n"
            "        pooled = pool.map(worker, payloads)\n"
            "    return plain + bound + pooled\n"
        )
        assert lint(engine, source) == []


# -- rule: one-pool-primitive -------------------------------------------------
class TestOnePoolPrimitive:
    BAD = (
        "import multiprocessing\npool = multiprocessing.Pool(2)\n",
        "import multiprocessing as mp\nwith mp.Pool(2) as pool:\n    pass\n",
        "from multiprocessing import Pool\npool = Pool(processes=2)\n",
        "from multiprocessing import pool\nworkers = pool.Pool(2)\n",
        "import multiprocessing\npool = multiprocessing.get_context('spawn').Pool(2)\n",
        (
            "import multiprocessing\n"
            "\n"
            "def start(processes):\n"
            "    context = multiprocessing.get_context('fork')\n"
            "    return context.Pool(processes)\n"
        ),
        "from concurrent.futures import ProcessPoolExecutor\nex = ProcessPoolExecutor(2)\n",
        "import concurrent.futures as cf\nwith cf.ProcessPoolExecutor() as ex:\n    pass\n",
    )

    @pytest.mark.parametrize("source", BAD)
    def test_flags_pools_started_outside_the_primitive(self, engine, source):
        assert rules_hit(engine, source) == ["one-pool-primitive"]

    def test_the_primitive_and_thread_pools_are_fine(self, engine):
        source = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "from multiprocessing.pool import ThreadPool\n"
            "from repro.sim.sweep import WorkerPool, pool_map\n"
            "\n"
            "def worker(payload):\n"
            "    return payload\n"
            "\n"
            "def run(payloads):\n"
            "    with WorkerPool(2) as pool:\n"
            "        pooled = pool.map(worker, payloads)\n"
            "    with ThreadPoolExecutor(2) as threads:\n"
            "        threaded = list(threads.map(worker, payloads))\n"
            "    return pooled + threaded + ThreadPool(2).map(worker, payloads)\n"
        )
        assert lint(engine, source) == []

    def test_the_pragma_exempts_the_one_call(self, engine):
        source = (
            "import multiprocessing\n"
            "context = multiprocessing.get_context('fork')\n"
            "pool = context.Pool(2)  # repro-lint: disable=one-pool-primitive\n"
        )
        assert lint(engine, source) == []

    def test_outside_sim_paths_is_allowlisted(self, engine):
        source = "import multiprocessing\npool = multiprocessing.Pool(2)\n"
        assert lint(engine, source, relpath="scripts/resume_proof.py") == []


# -- rule: no-dict-order-across-pool -------------------------------------------
class TestNoDictOrderAcrossPool:
    PROLOGUE = "from repro.sim.sweep import pool_map\n\n"
    EPILOGUE = "\ndef run(payloads):\n    return pool_map(worker, payloads, 2)\n"

    def _worker(self, body):
        return self.PROLOGUE + body + self.EPILOGUE

    BAD_BODIES = (
        # Bare iteration of a parameter the body also uses as a dict.
        "def worker(payload):\n"
        "    rows = []\n"
        "    for key in payload:\n"
        "        rows.append(payload.get(key))\n"
        "    return rows\n",
        # Dict views are order-sensitive without corroborating evidence.
        "def worker(payload):\n"
        "    return [value for key, value in payload.items()]\n",
        "def worker(payload):\n"
        "    out = []\n"
        "    for value in payload.values():\n"
        "        out.append(value)\n"
        "    return out\n",
        # Order-preserving materializations of a view.
        "def worker(payload):\n"
        "    return list(payload.keys())\n",
        "def worker(payload):\n"
        "    return tuple(enumerate(payload.items()))\n",
    )

    @pytest.mark.parametrize("body", BAD_BODIES)
    def test_worker_dict_iteration_flagged(self, engine, body):
        assert rules_hit(engine, self._worker(body)) == [
            "no-dict-order-across-pool"
        ]

    GOOD_BODIES = (
        # sorted(...) makes the result a function of content, not order.
        "def worker(payload):\n"
        "    return [payload[key] for key in sorted(payload)]\n",
        "def worker(payload):\n"
        "    rows = []\n"
        "    for key, value in sorted(payload.items()):\n"
        "        rows.append((key, value))\n"
        "    return rows\n",
        # Order-insensitive consumers are fine unsorted.
        "def worker(payload):\n"
        "    return sum(value for value in payload.values())\n",
        "def worker(payload):\n"
        "    return len(payload), max(payload.keys())\n",
        "def worker(payload):\n"
        "    return {key for key in payload.keys()}\n",
        # Key lookups do not read iteration order at all.
        "def worker(payload):\n"
        "    return payload[\"seed\"] + payload.get(\"offset\", 0)\n",
        # A bare parameter with no dict evidence stays unflagged (it may
        # be the list of this device's requests).
        "def worker(items):\n"
        "    return [item * 2 for item in items]\n",
    )

    @pytest.mark.parametrize("body", GOOD_BODIES)
    def test_content_pure_workers_are_fine(self, engine, body):
        assert lint(engine, self._worker(body)) == []

    def test_non_worker_functions_are_not_flagged(self, engine):
        # Same dict iteration, but the function never crosses a pool
        # boundary — parent-side code may rely on its own insertion order.
        source = (
            "def summarize(payload):\n"
            "    return [v for k, v in payload.items()]\n"
        )
        assert lint(engine, source) == []

    def test_worker_through_partial_flagged(self, engine):
        source = (
            "from functools import partial\n"
            "from repro.sim.sweep import pool_map\n"
            "\n"
            "def worker(payload, scale=1):\n"
            "    return [v * scale for v in payload.values()]\n"
            "\n"
            "def run(payloads):\n"
            "    return pool_map(partial(worker, scale=3), payloads, 2)\n"
        )
        assert rules_hit(engine, source) == ["no-dict-order-across-pool"]

    def test_worker_pool_map_worker_flagged(self, engine):
        source = (
            "from repro.sim.sweep import WorkerPool\n"
            "\n"
            "def worker(payload):\n"
            "    return [value for key, value in payload.items()]\n"
            "\n"
            "def run(payloads):\n"
            "    with WorkerPool(2) as pool:\n"
            "        return pool.map(worker, payloads)\n"
        )
        assert rules_hit(engine, source) == ["no-dict-order-across-pool"]

    def test_worker_pool_submit_worker_flagged(self, engine):
        source = (
            "from repro.sim.sweep import WorkerPool\n"
            "\n"
            "def worker(payload):\n"
            "    return [value for key, value in payload.items()]\n"
            "\n"
            "def run(payloads):\n"
            "    with WorkerPool(2) as pool:\n"
            "        return list(pool.submit(worker, payloads))\n"
        )
        assert rules_hit(engine, source) == ["no-dict-order-across-pool"]


# -- rule: experiment-registration-sync ----------------------------------------
class TestExperimentRegistrationSync:
    MODULE = "src/repro/experiments/example.py"

    def test_runner_without_registration_flagged(self, engine):
        source = "def run(num_requests=100):\n    return num_requests\n"
        findings = lint(engine, source, relpath=self.MODULE)
        assert [f.rule for f in findings] == ["experiment-registration-sync"]
        assert "register_experiment" in findings[0].message

    def test_registered_name_missing_from_docs_flagged(self, engine):
        source = (
            "from repro.experiments.api import register_experiment\n"
            "\n"
            '@register_experiment("definitely_not_documented")\n'
            "def run():\n"
            "    pass\n"
        )
        findings = lint(engine, source, relpath=self.MODULE)
        assert [f.rule for f in findings] == ["experiment-registration-sync"]
        assert "definitely_not_documented" in findings[0].message

    def test_documented_registration_passes(self, engine):
        # fig14 has a ### `fig14` section in the repo's EXPERIMENTS.md.
        source = (
            "from repro.experiments.api import register_experiment\n"
            "\n"
            '@register_experiment("fig14")\n'
            "def run():\n"
            "    pass\n"
        )
        assert lint(engine, source, relpath=self.MODULE) == []

    def test_missing_doc_file_flagged(self, tmp_path):
        engine = LintEngine(LintConfig(root=tmp_path))
        source = (
            "from repro.experiments.api import register_experiment\n"
            "\n"
            '@register_experiment("orphan")\n'
            "def run():\n"
            "    pass\n"
        )
        findings = engine.lint_source(source, self.MODULE)
        assert [f.rule for f in findings] == ["experiment-registration-sync"]
        assert "does not exist" in findings[0].message

    def test_outside_experiments_package_is_skipped(self, engine):
        source = "def run():\n    pass\n"
        assert lint(engine, source, relpath="src/repro/ssd/example.py") == []

    def test_real_experiment_modules_pass(self, engine):
        experiments = REPO_ROOT / "src" / "repro" / "experiments"
        for module in sorted(experiments.glob("*.py")):
            assert engine.lint_file(module) == [], module.name


# -- rule: experiment-seed-param -----------------------------------------------
class TestExperimentSeedParam:
    MODULE = "src/repro/experiments/example.py"

    def _lint(self, engine, source):
        findings = lint(engine, source, relpath=self.MODULE)
        return [f for f in findings if f.rule == "experiment-seed-param"]

    def test_params_without_seed_flagged(self, engine):
        source = (
            "from repro.experiments.api import param, register_experiment\n"
            "\n"
            '@register_experiment("fig14", params=(\n'
            '    param("num_requests", 100, "host requests"),\n'
            "))\n"
            "def run(num_requests=100):\n"
            "    pass\n"
        )
        findings = self._lint(engine, source)
        assert [f.rule for f in findings] == ["experiment-seed-param"]
        assert "'seed'" in findings[0].message and "fig14" in findings[0].message

    def test_params_with_seed_passes(self, engine):
        source = (
            "from repro.experiments.api import param, register_experiment\n"
            "\n"
            '@register_experiment("fig14", params=(\n'
            '    param("num_requests", 100, "host requests"),\n'
            '    param("seed", 0, "stream seed"),\n'
            "))\n"
            "def run(num_requests=100, seed=0):\n"
            "    pass\n"
        )
        assert self._lint(engine, source) == []

    def test_no_params_keyword_is_exempt(self, engine):
        source = (
            "from repro.experiments.api import register_experiment\n"
            "\n"
            '@register_experiment("fig14")\n'
            "def run():\n"
            "    pass\n"
        )
        assert self._lint(engine, source) == []

    def test_empty_params_is_exempt(self, engine):
        source = (
            "from repro.experiments.api import register_experiment\n"
            "\n"
            '@register_experiment("fig14", params=())\n'
            "def run():\n"
            "    pass\n"
        )
        assert self._lint(engine, source) == []

    def test_computed_params_are_skipped(self, engine):
        # The registry's own plumbing builds params dynamically; a
        # non-literal expression is not a registration to reason about.
        source = (
            "from repro.experiments.api import register_experiment\n"
            "\n"
            "COMMON = ()\n"
            "\n"
            '@register_experiment("fig14", params=COMMON)\n'
            "def run():\n"
            "    pass\n"
        )
        assert self._lint(engine, source) == []

    def test_outside_experiments_package_is_skipped(self, engine):
        source = (
            "from repro.experiments.api import param, register_experiment\n"
            "\n"
            '@register_experiment("x", params=(param("n", 1, "n"),))\n'
            "def run(n=1):\n"
            "    pass\n"
        )
        findings = lint(engine, source, relpath="src/repro/ssd/example.py")
        assert [f for f in findings if f.rule == "experiment-seed-param"] == []


# -- pragmas -------------------------------------------------------------------
class TestPragmas:
    def test_line_pragma_suppresses_one_rule(self, engine):
        source = "import time\nt = time.time()  # repro-lint: disable=no-wall-clock\n"
        assert lint(engine, source) == []

    def test_line_pragma_only_covers_its_line(self, engine):
        source = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=no-wall-clock\n"
            "b = time.time()\n"
        )
        findings = lint(engine, source)
        assert [f.line for f in findings] == [3]

    def test_pragma_for_other_rule_does_not_suppress(self, engine):
        source = "import time\nt = time.time()  # repro-lint: disable=no-global-random\n"
        assert rules_hit(engine, source) == ["no-wall-clock"]

    def test_disable_all_wildcard(self, engine):
        source = "import time\nt = time.time()  # repro-lint: disable=all\n"
        assert lint(engine, source) == []

    def test_disable_file_pragma(self, engine):
        source = (
            "# repro-lint: disable-file=no-wall-clock\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert lint(engine, source) == []

    def test_multiple_rules_in_one_pragma(self, engine):
        source = (
            "import time\n"
            "import random\n"
            "x = (time.time(), random.random())"
            "  # repro-lint: disable=no-wall-clock,no-global-random\n"
        )
        assert lint(engine, source) == []

    def test_pragma_inside_string_is_ignored(self):
        index = PragmaIndex.from_source('text = "# repro-lint: disable=all"\n')
        assert not index.suppressed("no-wall-clock", 1)


# -- configuration -------------------------------------------------------------
class TestConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = LintConfig.load(tmp_path)
        assert config.paths == ("src/repro",)
        assert config.sim_paths == ("src/repro",)
        assert config.experiments_doc == "EXPERIMENTS.md"
        assert config.pool_entry_points == ("pool_map", "map", "submit")

    def test_load_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\n"
            'paths = ["lib"]\n'
            'sim-paths = ["lib/sim"]\n'
            'disable = ["no-global-random"]\n'
            'experiments-doc = "DOCS.md"\n'
            'pool-entry-points = ["fan_out"]\n'
            "\n"
            "[tool.repro-lint.rules.no-wall-clock]\n"
            'allow = ["lib/sim/cli.py"]\n'
        )
        config = LintConfig.load(tmp_path)
        assert config.paths == ("lib",)
        assert config.sim_paths == ("lib/sim",)
        assert config.disable == ("no-global-random",)
        assert config.experiments_doc == "DOCS.md"
        assert config.pool_entry_points == ("fan_out",)
        assert config.rule_allow["no-wall-clock"] == ("lib/sim/cli.py",)

    def test_invalid_config_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = "src"\n'
        )
        with pytest.raises(LintConfigError):
            LintConfig.load(tmp_path)

    def test_disabled_rule_does_not_run(self, tmp_path):
        config = LintConfig(root=tmp_path, disable=("no-wall-clock",))
        engine = LintEngine(config)
        source = "import time\nt = time.time()\n"
        assert engine.lint_source(source, SIM_PATH) == []

    def test_rule_allow_skips_configured_paths(self, tmp_path):
        config = LintConfig(
            root=tmp_path,
            rule_allow={"no-wall-clock": ("src/repro/experiments/runner.py",)},
        )
        engine = LintEngine(config)
        source = "import time\nt = time.time()\n"
        assert engine.lint_source(source, "src/repro/experiments/runner.py") == []
        assert engine.lint_source(source, SIM_PATH) != []

    def test_sim_scoping_follows_config(self, tmp_path):
        config = LintConfig(root=tmp_path, sim_paths=("src/repro/ssd",))
        engine = LintEngine(config)
        source = "import time\nt = time.time()\n"
        assert engine.lint_source(source, "src/repro/ssd/engine.py") != []
        assert engine.lint_source(source, "src/repro/analysis/stats.py") == []

    def test_path_matches_prefix_semantics(self):
        assert path_matches("src/repro/ssd/engine.py", ("src/repro",))
        assert path_matches("src/repro", ("src/repro",))
        assert not path_matches("src/repro_extra/x.py", ("src/repro",))


# -- engine --------------------------------------------------------------------
class TestEngine:
    def _project(self, tmp_path, source):
        package = tmp_path / "src" / "repro" / "ssd"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(source)
        return tmp_path

    def test_discover_files_sorted_and_excluded(self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "b").mkdir(parents=True)
        (package / "a").mkdir(parents=True)
        (package / "b" / "beta.py").write_text("x = 1\n")
        (package / "a" / "alpha.py").write_text("x = 1\n")
        (package / "a" / "skipped.py").write_text("x = 1\n")
        config = LintConfig(root=tmp_path, exclude=("src/repro/a/skipped.py",))
        files = LintEngine(config).discover_files()
        names = [file.name for file in files]
        assert names == ["alpha.py", "beta.py"]

    def test_missing_path_raises(self, tmp_path):
        engine = LintEngine(LintConfig(root=tmp_path))
        with pytest.raises(FileNotFoundError):
            engine.discover_files(["does-not-exist"])

    def test_parse_error_becomes_finding(self, engine):
        findings = lint(engine, "def broken(:\n")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]

    def test_findings_are_deterministically_ordered(self, tmp_path):
        root = self._project(
            tmp_path,
            "import time\nimport random\nx = random.random()\ny = time.time()\n",
        )
        engine = LintEngine(LintConfig(root=root))
        first = engine.lint_paths()
        second = engine.lint_paths()
        assert first == second
        assert [f.sort_key for f in first] == sorted(f.sort_key for f in first)

    def test_rules_by_name_rejects_unknown(self):
        with pytest.raises(KeyError):
            rules_by_name(["no-such-rule"])
        assert [rule.name for rule in rules_by_name(RULE_NAMES)] == list(RULE_NAMES)


# -- reporting -----------------------------------------------------------------
class TestReporting:
    FINDING = Finding(
        rule="no-wall-clock",
        path="src/repro/ssd/engine.py",
        line=3,
        col=7,
        message="call to time.time() reads the host clock",
    )

    def test_text_format(self):
        text = format_text([self.FINDING])
        assert "src/repro/ssd/engine.py:3:7: [no-wall-clock]" in text
        assert text.endswith("repro-lint: 1 finding")
        assert format_text([]).endswith("all clean")

    def test_json_format_round_trips(self):
        report = json.loads(format_json([self.FINDING]))
        assert report["count"] == 1
        assert report["findings"][0]["rule"] == "no-wall-clock"
        assert report["findings"][0]["line"] == 3

    def test_github_format(self):
        annotation = format_github([self.FINDING]).splitlines()[0]
        assert annotation.startswith(
            "::error file=src/repro/ssd/engine.py,line=3,col=7,"
        )
        assert "title=repro-lint no-wall-clock" in annotation

    def test_github_escapes_newlines(self):
        finding = Finding(rule="r", path="p", line=1, col=1, message="a\nb%c")
        assert "%0A" in format_github([finding]) and "%25" in format_github([finding])

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render([], "xml")


# -- CLI -----------------------------------------------------------------------
class TestCli:
    def _bad_project(self, tmp_path):
        package = tmp_path / "src" / "repro" / "ssd"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("import time\nt = time.time()\n")
        return tmp_path

    def test_clean_project_exits_zero(self, tmp_path, capsys):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "ok.py").write_text("x = 1\n")
        assert main(["--root", str(tmp_path)]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        assert main(["--root", str(self._bad_project(tmp_path))]) == 1
        out = capsys.readouterr().out
        assert "[no-wall-clock]" in out and "repro-lint: 1 finding" in out

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        root = self._bad_project(tmp_path)
        assert main(["--root", str(root), "--format", "github"]) == 1
        assert "::error file=src/repro/ssd/bad.py,line=2," in capsys.readouterr().out

    def test_json_report_written(self, tmp_path, capsys):
        root = self._bad_project(tmp_path)
        report = tmp_path / "artifacts" / "lint.json"
        assert main(["--root", str(root), "--json-report", str(report)]) == 1
        capsys.readouterr()
        assert json.loads(report.read_text())["count"] == 1

    def test_select_limits_rules(self, tmp_path, capsys):
        root = self._bad_project(tmp_path)
        assert main(["--root", str(root), "--select", "no-global-random"]) == 0
        capsys.readouterr()

    def test_disable_skips_rule(self, tmp_path, capsys):
        root = self._bad_project(tmp_path)
        assert main(["--root", str(root), "--disable", "no-wall-clock"]) == 0
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "--select", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explicit_paths_override_config(self, tmp_path, capsys):
        root = self._bad_project(tmp_path)
        other = root / "elsewhere"
        other.mkdir()
        (other / "clean.py").write_text("x = 1\n")
        assert main(["--root", str(root), "elsewhere"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RULE_NAMES:
            assert name in out

    def test_discover_root_finds_pyproject(self):
        assert discover_root(REPO_ROOT / "src" / "repro" / "lint") == REPO_ROOT


# -- self-application ----------------------------------------------------------
class TestSelfLint:
    def test_repo_is_clean(self):
        """``repro-lint`` exits 0 on the repository itself."""
        config = LintConfig.load(REPO_ROOT)
        findings = LintEngine(config).lint_paths()
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in findings
        )

    def test_default_rule_set_is_complete(self):
        assert len(default_rules()) == len(RULE_NAMES) == 9
