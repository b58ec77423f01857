"""perfbench's span hooks still fit the simulator they wrap.

CI runs perfbench with ``--trace 0`` only, so nothing else exercises
``perfbench/spans.py``; it reads ``SsdSimulator.schedulers`` and each
scheduler's ``completed_transactions``.  Loaded by path, as
``perfbench/tests/test_perfbench_layers.py`` loads ``layers.py``.
"""

import importlib.util
from pathlib import Path

from repro.experiments.store import CheckpointStore
from repro.sim.spec import WorkloadSpec
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.metrics import LatencyHistogram, SimulationMetrics
from repro.ssd.request import HostRequest, RequestKind
from repro.workloads.router import StripeRouter

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

#: Every class whose methods ``spans.instrument`` may wrap.
INSTRUMENTED = (WorkloadSpec, StripeRouter, SsdSimulator, SimulationMetrics,
                LatencyHistogram, CheckpointStore)


def _methods():
    return {(cls, name): value for cls in INSTRUMENTED
            for name, value in vars(cls).items()}


def test_spans_count_a_read_only_run(default_rpt):
    before = _methods()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert _methods() != before
        simulator = SsdSimulator(SsdConfig.tiny(), policy="PnAR2",
                                 rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        requests = [HostRequest(index * 300.0, RequestKind.READ,
                                (index * 29) % 400, page_count=1 + index % 4)
                    for index in range(80)]
        result = simulator.run(requests)
    metrics = result.metrics
    assert metrics.host_reads == len(requests)
    assert metrics.host_programs == metrics.gc_programs == 0
    assert tracer.counts["controller.flash_ops"] == metrics.pages_read > 0
    assert "ftl.precondition" in tracer.self_s
    assert (tracer.counts["retry.distinct_conditions"]
            == simulator.distinct_read_conditions >= 1)
    assert _methods() == before
