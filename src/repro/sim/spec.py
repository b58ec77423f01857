"""Value objects of the session API, and the one builder of a simulated device.

The seed's harnesses passed ``requests_factory`` closures around, which made
run manifests impossible to serialize and forced every caller to re-derive
footprints and seeds.  These two small frozen dataclasses replace the
closures: a :class:`WorkloadSpec` says *what stream to generate* (catalog
name or synthetic shape, request count, seed, arrival rate) and a
:class:`Condition` says *how aged the SSD is* (P/E cycles, retention age).
Both round-trip through plain dicts so a run manifest is one
``json.dumps`` away.

:func:`preconditioned_simulator` is the paper's evaluation set-up
(Section 7.1) written once: a device preconditioned to a :class:`Condition`
that runs one policy.  ``Simulation``, ``SweepRunner``, ``FleetRunner`` and
the ``wear_dynamics`` experiment build every device through it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, List, Optional, Tuple, Union
from zlib import crc32

from repro.core.policies import ReadRetryPolicy
from repro.core.rpt import ReadTimingParameterTable
from repro.sim.registry import default_registry
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.faults import FaultPlan
from repro.ssd.request import HostRequest
from repro.workloads.catalog import WORKLOAD_CATALOG, catalog_workload
from repro.workloads.synthetic import SyntheticWorkload, WorkloadShape

#: Case-insensitive view of the Table 2 catalog ("ycsb-a" -> "YCSB-A").
_CANONICAL_WORKLOADS = {name.lower(): name for name in WORKLOAD_CATALOG}


def canonical_workload_name(name: str) -> str:
    """Resolve a catalog workload name case-insensitively."""
    canonical = _CANONICAL_WORKLOADS.get(str(name).strip().lower())
    if canonical is None:
        raise KeyError(f"unknown workload {name!r}; available: {list(WORKLOAD_CATALOG)}")
    return canonical


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible request-stream specification.

    Either ``name`` references a Table 2 catalog workload, or ``shape``
    carries an explicit :class:`~repro.workloads.synthetic.WorkloadShape`
    for a custom synthetic stream (exactly one of the two must be set).
    """

    #: Source-registry tag for manifest round-trips (not a dataclass field).
    source_kind = "workload"

    name: Optional[str] = None
    num_requests: int = 800
    seed: int = 0
    mean_interarrival_us: Optional[float] = None
    #: Fraction of the SSD's logical pages the stream touches.
    footprint_fraction: float = 0.8
    shape: Optional[WorkloadShape] = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.shape is None):
            raise ValueError("exactly one of 'name' and 'shape' must be set")
        if self.name is not None:
            # Canonicalize eagerly so equality/caching is case-insensitive.
            object.__setattr__(self, "name", canonical_workload_name(self.name))
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if not 0.0 < self.footprint_fraction <= 1.0:
            raise ValueError("footprint_fraction must be in (0, 1]")
        if self.mean_interarrival_us is not None and self.mean_interarrival_us <= 0:
            raise ValueError("mean_interarrival_us must be positive")

    @property
    def label(self) -> str:
        if self.name is not None:
            return self.name
        # Distinct synthetic specs need distinct labels: sweep cells are
        # keyed by label, and a bare "synthetic" would let two different
        # shapes silently overwrite each other's cells.  The digest is a
        # pure function of the spec, so it is stable across processes.
        digest = crc32(repr(sorted(self.to_dict().items())).encode())
        return f"synthetic-{digest:08x}"

    def footprint_pages(self, config: SsdConfig) -> int:
        return int(config.logical_pages * self.footprint_fraction)

    def stream_key(self, config: SsdConfig) -> tuple:
        """Hashable identity of the generated stream (for caching)."""
        shape_key = None if self.shape is None else tuple(sorted(asdict(self.shape).items()))
        return (
            self.name,
            shape_key,
            self.num_requests,
            self.seed,
            self.mean_interarrival_us,
            self.footprint_pages(config),
        )

    def build_requests(self, config: SsdConfig) -> List[HostRequest]:
        """Generate a fresh request stream for this spec (materialized)."""
        return list(self.iter_requests(config))

    def iter_requests(
        self, config: SsdConfig, footprint_pages: Optional[int] = None
    ) -> Iterator[HostRequest]:
        """Stream the spec's requests lazily (identical draws to build).

        The canonical way to feed a spec into the simulator: the generator
        holds O(1) state, so the trace length never bounds memory.

        ``footprint_pages`` overrides the page count the footprint fraction
        is applied to — the fleet layer passes the *array's* logical size so
        a striped workload spans every device, not just one.
        """
        footprint = (
            self.footprint_pages(config)
            if footprint_pages is None
            else int(footprint_pages * self.footprint_fraction)
        )
        if self.name is not None:
            return catalog_workload(
                self.name,
                footprint,
                seed=self.seed,
                mean_interarrival_us=self.mean_interarrival_us,
            ).iter_requests(self.num_requests)
        shape = self.shape
        if self.mean_interarrival_us is not None:
            shape = WorkloadShape(
                **{**asdict(shape), "mean_interarrival_us": self.mean_interarrival_us}
            )
        return SyntheticWorkload(shape, footprint, seed=self.seed).iter_requests(self.num_requests)

    # -- manifest round-trip --------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "num_requests": self.num_requests,
            "seed": self.seed,
            "mean_interarrival_us": self.mean_interarrival_us,
            "footprint_fraction": self.footprint_fraction,
        }
        if self.name is not None:
            payload["name"] = self.name
        else:
            payload["shape"] = asdict(self.shape)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        payload = dict(payload)
        if "shape" in payload and payload["shape"] is not None:
            payload["shape"] = WorkloadShape(**payload["shape"])
        return cls(**payload)

    @classmethod
    def coerce(cls, value, **overrides) -> "WorkloadSpec":
        """Build a spec from a spec, a catalog name, or a dict."""
        if isinstance(value, cls):
            if overrides:
                payload = value.to_dict()
                payload.update({k: v for k, v in overrides.items() if v is not None})
                return cls.from_dict(payload)
            return value
        if isinstance(value, WorkloadShape):
            return cls(shape=value, **{k: v for k, v in overrides.items() if v is not None})
        if isinstance(value, str):
            return cls(name=value, **{k: v for k, v in overrides.items() if v is not None})
        if isinstance(value, dict):
            payload = dict(value)
            payload.update({k: v for k, v in overrides.items() if v is not None})
            return cls.from_dict(payload)
        raise TypeError(f"cannot build a WorkloadSpec from {value!r}")


#: Default logical-space fill fraction used when preconditioning a device.
DEFAULT_FILL_FRACTION = 0.85


@dataclass(frozen=True)
class Condition:
    """The preconditioned (P/E cycles, retention age, fill) of a simulated run.

    ``fill_fraction`` controls how much of the logical space the
    precondition pass writes; lowering it leaves the FTL a larger free
    pool — fault-injection scenarios that retire blocks mid-run need the
    headroom.
    """

    pe_cycles: int = 0
    retention_months: float = 0.0
    fill_fraction: float = DEFAULT_FILL_FRACTION

    def __post_init__(self) -> None:
        if self.pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        if self.retention_months < 0:
            raise ValueError("retention_months must be non-negative")
        if not 0.0 < self.fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in (0, 1]")

    def as_tuple(self) -> Tuple[int, float]:
        return (self.pe_cycles, self.retention_months)

    @property
    def label(self) -> str:
        if self.pe_cycles >= 1000 and self.pe_cycles % 1000 == 0:
            pec = f"{self.pe_cycles // 1000}K"
        else:
            pec = str(self.pe_cycles)
        return f"{pec} PEC / {self.retention_months:g} mo"

    def to_dict(self) -> dict:
        payload = {"pe_cycles": self.pe_cycles, "retention_months": self.retention_months}
        if self.fill_fraction != DEFAULT_FILL_FRACTION:
            payload["fill_fraction"] = self.fill_fraction
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Condition":
        return cls(**payload)

    @classmethod
    def coerce(cls, value) -> "Condition":
        """Build a condition from a Condition, a (pec, months) pair, or a dict."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, (tuple, list)) and len(value) in (2, 3):
            fill = float(value[2]) if len(value) == 3 else DEFAULT_FILL_FRACTION
            return cls(
                pe_cycles=int(value[0]), retention_months=float(value[1]), fill_fraction=fill
            )
        raise TypeError(f"cannot build a Condition from {value!r}")


def preconditioned_simulator(
    config: SsdConfig,
    policy: Union[str, ReadRetryPolicy],
    condition: Condition,
    *,
    rpt: Optional[ReadTimingParameterTable] = None,
    faults: Optional[FaultPlan] = None,
    track_tenants: bool = False,
    device_id: int = 0,
) -> SsdSimulator:
    """A simulator running ``policy``, preconditioned to ``condition``.

    A policy given by name is created from the default registry; a policy
    instance is used as it is.  ``rpt`` defaults to
    :meth:`ReadTimingParameterTable.default`.  The device is preconditioned
    with the condition's P/E cycles, retention age and fill fraction, and a
    non-empty fault plan is armed after that.  It keeps no retry-grid slab
    beyond the cold-data one ``precondition`` keeps, and computes no row of
    it; the runners that fan devices out over a pool keep a condition's
    slabs with :func:`repro.ssd.slab_transport.prefill_device_slabs`.
    """
    if rpt is None:
        rpt = ReadTimingParameterTable.default()
    if isinstance(policy, str):
        policy = default_registry().create(policy, timing=config.timing, rpt=rpt)
    simulator = SsdSimulator(
        config=config, policy=policy, rpt=rpt, device_id=device_id, track_tenants=track_tenants
    )
    simulator.precondition(
        pe_cycles=condition.pe_cycles,
        retention_months=condition.retention_months,
        fill_fraction=condition.fill_fraction,
    )
    if faults:
        simulator.install_faults(faults)
    return simulator
