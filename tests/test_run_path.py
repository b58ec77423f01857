"""Tests for the one run path: every runner builds its simulated devices
through ``repro.sim.spec.preconditioned_simulator``."""

import ast
import gc
import pathlib
import weakref

import pytest

from repro.core.rpt import ReadTimingParameterTable
from repro.experiments import wear_dynamics
from repro.sim import Simulation, SweepRunner, TenantMix, WorkloadSpec
from repro.sim import fleet as fleet_module
from repro.sim import session as session_module
from repro.sim import sweep as sweep_module
from repro.sim.fleet import FleetRunner, FleetSpec
from repro.sim.registry import default_registry
from repro.sim.spec import Condition, preconditioned_simulator
from repro.ssd.controller import SsdSimulator
from repro.ssd.faults import FaultInjector, FaultPlan, die_failure
from repro.ssd.retry_grid import shared_grid

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class TestBuilder:
    def test_a_name_comes_from_the_registry_and_an_instance_is_used_as_is(
            self, tiny_ssd_config, default_rpt):
        named = preconditioned_simulator(tiny_ssd_config, "pnar2", Condition())
        assert named.policy.name == "PnAR2"
        policy = default_registry().create("AR2", timing=tiny_ssd_config.timing,
                                           rpt=default_rpt)
        given = preconditioned_simulator(tiny_ssd_config, policy, Condition())
        assert given.policy is policy

    def test_the_default_rpt_is_the_cached_default_table(self, tiny_ssd_config):
        simulator = preconditioned_simulator(tiny_ssd_config, "PnAR2", Condition())
        default = ReadTimingParameterTable.default()
        assert simulator.grid is shared_grid(tiny_ssd_config, default)
        assert simulator.policy.rpt is default
        custom = ReadTimingParameterTable.conservative()
        simulator = preconditioned_simulator(tiny_ssd_config, "PnAR2", Condition(), rpt=custom)
        assert simulator.grid is shared_grid(tiny_ssd_config, custom)
        assert simulator.grid is not shared_grid(tiny_ssd_config, default)
        assert simulator.policy.rpt is custom

    def test_preconditions_with_the_whole_condition(self, tiny_ssd_config, monkeypatch):
        calls = []
        precondition = SsdSimulator.precondition

        def recording(self, *args, **kwargs):
            calls.append(kwargs)
            return precondition(self, *args, **kwargs)

        monkeypatch.setattr(SsdSimulator, "precondition", recording)
        simulator = preconditioned_simulator(
            tiny_ssd_config, "Baseline", Condition(1000, 6.0, fill_fraction=0.3))
        assert calls == [{"pe_cycles": 1000, "retention_months": 6.0, "fill_fraction": 0.3}]
        assert simulator.run([]).preconditioned_pe_cycles == 1000

    def test_only_a_non_empty_fault_plan_is_armed(self, tiny_ssd_config):
        def injector(faults):
            return preconditioned_simulator(
                tiny_ssd_config, "Baseline", Condition(), faults=faults)._fault_injector

        assert injector(None) is None
        assert injector(FaultPlan()) is None
        plan = FaultPlan.coerce([die_failure(at_us=0.0, channel=0, die=0)])
        assert isinstance(injector(plan), FaultInjector)

    def test_device_id_and_tenant_tracking_reach_the_simulator(self, tiny_ssd_config):
        plain = preconditioned_simulator(tiny_ssd_config, "Baseline", Condition())
        assert (plain.device_id, plain.track_tenants) == (0, False)
        tagged = preconditioned_simulator(
            tiny_ssd_config, "Baseline", Condition(), track_tenants=True, device_id=3)
        assert (tagged.device_id, tagged.track_tenants) == (3, True)


@pytest.fixture
def builds(monkeypatch):
    """Record every call of the builder the runners make (and run it)."""
    calls = []

    def recording(config, policy, condition, **kwargs):
        calls.append({"policy": getattr(policy, "name", policy),
                      "condition": condition, **kwargs})
        return preconditioned_simulator(config, policy, condition, **kwargs)

    for module in (session_module, sweep_module, fleet_module):
        monkeypatch.setattr(module, "preconditioned_simulator", recording)
    return calls


class TestEveryRunnerBuildsThroughTheBuilder:
    CONDITION = Condition(1000, 6.0)

    def _simulation(self, config):
        return (Simulation(config).policies("Baseline", "PnAR2")
                .condition(self.CONDITION))

    def test_simulation_open_loop(self, tiny_ssd_config, builds):
        self._simulation(tiny_ssd_config).workload("usr_1", n=30).run()
        assert [call["policy"] for call in builds] == ["Baseline", "PnAR2"]
        assert all(call["condition"] == self.CONDITION and not call["track_tenants"]
                   for call in builds)

    def test_simulation_tenant_mix(self, tiny_ssd_config, builds):
        run = self._simulation(tiny_ssd_config).tenants("usr_1", "stg_0", n=20).run()
        assert len(builds) == 2 and all(call["track_tenants"] for call in builds)
        assert isinstance(run.workload, TenantMix)
        assert {row["workload"] for row in run.summary_rows()} == {run.workload.label}

    def test_simulation_closed_loop(self, tiny_ssd_config, builds):
        (self._simulation(tiny_ssd_config).workload("usr_1", n=30)
         .closed_loop(clients=2, total_requests=20).run())
        assert len(builds) == 2 and all(call["track_tenants"] for call in builds)

    def test_sweep_runner(self, tiny_ssd_config, builds):
        conditions = (Condition(0, 0.0), self.CONDITION)
        SweepRunner(config=tiny_ssd_config).run(
            policies=("Baseline", "PnAR2"), workloads=("usr_1",),
            conditions=conditions, num_requests=30)
        assert [(call["policy"], call["condition"]) for call in builds] == [
            (policy, condition) for condition in conditions
            for policy in ("Baseline", "PnAR2")]

    def test_fleet_runner(self, tiny_ssd_config, builds):
        spec = FleetSpec(devices=2, stripe_unit_pages=2, config=tiny_ssd_config,
                         condition=self.CONDITION)
        FleetRunner(spec).run(WorkloadSpec(name="usr_1", num_requests=40), policies="PnAR2")
        mix = TenantMix.coerce(["usr_1", "stg_0"], num_requests=20)
        FleetRunner(spec).run(mix, policies="Baseline")
        assert [(call["policy"], call["device_id"], call["track_tenants"])
                for call in builds] == [
            ("PnAR2", 0, False), ("PnAR2", 1, False),
            ("Baseline", 0, True), ("Baseline", 1, True)]
        assert all(call["condition"] == self.CONDITION for call in builds)

    def test_wear_dynamics(self, builds):
        wear_dynamics.run(workloads=("stg_0",), num_requests=40)
        assert len(builds) == len(default_registry().names(tag="fig14"))
        assert {call["condition"] for call in builds} == {
            Condition(1000, 6.0, wear_dynamics.FILL_FRACTION)}


def test_only_the_builder_constructs_a_simulator():
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "SsdSimulator":
                    callers.append(path.relative_to(SRC).as_posix())
    assert callers == ["sim/spec.py"]


@pytest.fixture
def live_at_construction(monkeypatch):
    """Before each SsdSimulator is built, collect garbage and count how many
    earlier simulators are still alive."""
    alive = []
    refs = []
    init = SsdSimulator.__init__

    def collecting(self, *args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(SsdSimulator, "__init__", collecting)
    return alive


class TestFinishedSimulatorsAreFreed:
    """No runner keeps a finished simulator alive while it builds the next."""

    def test_a_sweep_cell(self, tiny_ssd_config, live_at_construction):
        SweepRunner(config=tiny_ssd_config).run(
            policies=("Baseline", "PnAR2"), workloads=("usr_1",),
            conditions=((1000, 6.0),), num_requests=30)
        assert live_at_construction == [0, 0]

    def test_a_simulation(self, tiny_ssd_config, live_at_construction):
        (Simulation(tiny_ssd_config).policies("Baseline", "PnAR2")
         .workload("usr_1", n=30).condition(pec=1000, months=6.0).run())
        assert live_at_construction == [0, 0]


def test_the_result_records_the_distinct_read_conditions():
    config = wear_dynamics._wear_config(128)
    spec = WorkloadSpec(name="stg_0", num_requests=300, mean_interarrival_us=800.0,
                        footprint_fraction=wear_dynamics.FOOTPRINT_FRACTION)
    simulator = preconditioned_simulator(
        config, "Baseline", Condition(1000, 6.0, wear_dynamics.FILL_FRACTION))
    result = simulator.run(spec.build_requests(config))
    assert result.distinct_read_conditions == simulator.distinct_read_conditions > 1
    # Not a summary() key: summaries feed the benchmark digests.
    assert "distinct_read_conditions" not in result.summary()
