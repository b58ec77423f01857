"""Deterministic, seeded fault injection on the flash read path.

The paper evaluates retry policies on a healthy device; a production fleet
cares at least as much about how each policy degrades when the device
misbehaves.  This module injects three failure families the SSD literature
treats as canonical, all driven by the simulation clock so runs stay
reproducible bit for bit:

* **die/plane failure** — from time ``at_us`` (optionally for
  ``duration_us``), every read served by the failed die or plane runs
  degraded: its response and die-occupancy are multiplied by
  ``latency_factor`` and it may need ``extra_retry_steps`` more retry
  steps, modelling a marginal die limping along behind retries and
  internal recovery;
* **read-disturb storm** — at ``at_us`` the storm settles on the hottest
  blocks observed so far (deterministic read counting, ties broken by
  block number) and reads of those blocks need ``extra_retry_steps`` more
  retry steps until the storm passes;
* **grown bad blocks** — at ``at_us``, ``blocks`` seeded-random blocks are
  retired for good: the DFTL relocates their valid pages (real GC-stream
  flash traffic plus batched translation updates) and the blocks never
  re-enter the free pool, shrinking the overprovisioning for the rest of
  the run.  Requires ``mapping="page"``; the block-mapping FTL has no
  remap machinery, which is the point of modelling it on DFTL.

Faults are described by frozen :class:`FaultSpec` values collected in a
:class:`FaultPlan` (JSON round-trip for manifests); the mutable
:class:`FaultInjector` holds the per-run state and is installed on a
simulator via :meth:`SsdSimulator.install_faults`.  The injector sees a read
as its packed page index (:class:`~repro.ssd.ftl.PageAddressing`) and keys
every scope by a number that index yields with one division: the die
``packed // pages_per_die``, the plane ``packed // pages_per_plane`` and the
block ``packed // pages_per_block`` (numbered in ``(channel, die, plane,
block)`` order).  A spec's ``(channel, die[, plane])`` becomes its die or
plane number once, when the fault activates; a scope outside the device is
refused with ``ValueError`` when the plan is installed, since no read could
reach it and the run would silently be fault-free.  The injector keeps no
reference to its simulator: the simulator passes itself to
:meth:`FaultInjector.poll`, so a finished simulator is freed at once rather
than left to the cyclic collector.  Every effect is counted on
:class:`~repro.ssd.metrics.SimulationMetrics`
(``fault_injections``, ``faulted_reads``, ``grown_bad_blocks``,
``fault_remapped_pages``), all registered in ``COUNTER_FIELDS`` so fleet
merges carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ssd.ftl import PageAddressing

#: The recognized fault families.
FAULT_KINDS = ("die_failure", "plane_failure", "read_disturb",
               "grown_bad_blocks")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (immutable, JSON round-trippable)."""

    kind: str
    #: Simulation time the fault activates.
    at_us: float
    #: How long the fault lasts (``None`` = until the end of the run).
    duration_us: Optional[float] = None
    #: Scope of die/plane failures.
    channel: Optional[int] = None
    die: Optional[int] = None
    plane: Optional[int] = None
    #: read_disturb: how many hot blocks the storm settles on;
    #: grown_bad_blocks: how many blocks to retire.
    blocks: int = 1
    #: Additional retry steps a penalized read needs.
    extra_retry_steps: int = 0
    #: Multiplier on a penalized read's response and die-busy time.
    latency_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if self.at_us < 0:
            raise ValueError("at_us must be non-negative")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValueError("duration_us must be positive when given")
        if self.blocks < 1:
            raise ValueError("blocks must be at least 1")
        if self.extra_retry_steps < 0:
            raise ValueError("extra_retry_steps must be non-negative")
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be at least 1.0")
        if self.kind == "die_failure":
            if self.channel is None or self.die is None:
                raise ValueError("die_failure needs channel and die")
        elif self.kind == "plane_failure":
            if self.channel is None or self.die is None or self.plane is None:
                raise ValueError("plane_failure needs channel, die and plane")
        elif self.kind == "read_disturb":
            if self.duration_us is None:
                raise ValueError("read_disturb needs duration_us (storms end)")
            if self.extra_retry_steps == 0:
                raise ValueError(
                    "read_disturb needs extra_retry_steps >= 1 to have any "
                    "effect")
        if (self.kind in ("die_failure", "plane_failure")
                and self.extra_retry_steps == 0 and self.latency_factor == 1.0):
            raise ValueError(
                f"{self.kind} needs extra_retry_steps or latency_factor > 1 "
                "to have any effect")

    def to_dict(self) -> dict:
        payload = {"kind": self.kind, "at_us": self.at_us}
        for key in ("duration_us", "channel", "die", "plane"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.blocks != 1:
            payload["blocks"] = self.blocks
        if self.extra_retry_steps:
            payload["extra_retry_steps"] = self.extra_retry_steps
        if self.latency_factor != 1.0:
            payload["latency_factor"] = self.latency_factor
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(**payload)


def die_failure(at_us: float, channel: int, die: int,
                duration_us: Optional[float] = None,
                latency_factor: float = 4.0,
                extra_retry_steps: int = 0) -> FaultSpec:
    """A die limping from ``at_us`` on (reads slowed by ``latency_factor``)."""
    return FaultSpec(kind="die_failure", at_us=at_us, duration_us=duration_us,
                     channel=channel, die=die, latency_factor=latency_factor,
                     extra_retry_steps=extra_retry_steps)


def plane_failure(at_us: float, channel: int, die: int, plane: int,
                  duration_us: Optional[float] = None,
                  latency_factor: float = 4.0,
                  extra_retry_steps: int = 0) -> FaultSpec:
    """One plane of a die degrading from ``at_us`` on."""
    return FaultSpec(kind="plane_failure", at_us=at_us,
                     duration_us=duration_us, channel=channel, die=die,
                     plane=plane, latency_factor=latency_factor,
                     extra_retry_steps=extra_retry_steps)


def read_disturb(at_us: float, duration_us: float, blocks: int = 4,
                 extra_retry_steps: int = 3) -> FaultSpec:
    """A read-disturb storm on the ``blocks`` hottest blocks observed."""
    return FaultSpec(kind="read_disturb", at_us=at_us,
                     duration_us=duration_us, blocks=blocks,
                     extra_retry_steps=extra_retry_steps)


def grown_bad_blocks(at_us: float, blocks: int = 2,
                     extra_retry_steps: int = 0) -> FaultSpec:
    """Retire ``blocks`` seeded-random blocks for good at ``at_us``."""
    return FaultSpec(kind="grown_bad_blocks", at_us=at_us, blocks=blocks,
                     extra_retry_steps=extra_retry_steps)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of faults for one run."""

    faults: Tuple[FaultSpec, ...] = ()
    #: Seeds the grown-bad-block victim selection (and any future random
    #: choice); two runs of the same plan pick the same victims.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"faults must be FaultSpec, got {spec!r}")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def label(self) -> str:
        if not self.faults:
            return "no-faults"
        kinds = sorted({spec.kind for spec in self.faults})
        return "+".join(kinds)

    def to_dict(self) -> dict:
        return {"faults": [spec.to_dict() for spec in self.faults],
                "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(faults=tuple(FaultSpec.from_dict(item)
                                for item in payload.get("faults", ())),
                   seed=payload.get("seed", 0))

    @classmethod
    def coerce(cls, value, seed: Optional[int] = None) -> "FaultPlan":
        """Build a plan from a plan, spec(s), dict payload or None."""
        if value is None:
            plan = cls()
        elif isinstance(value, FaultPlan):
            plan = value
        elif isinstance(value, FaultSpec):
            plan = cls(faults=(value,))
        elif isinstance(value, dict):
            plan = cls.from_dict(value)
        else:
            plan = cls(faults=tuple(value))
        if seed is not None and seed != plan.seed:
            plan = cls(faults=plan.faults, seed=seed)
        return plan


class _ActivePenalty:
    """One active read penalty over a scope of physical addresses."""

    __slots__ = ("ends_us", "extra_retry_steps", "latency_factor")

    def __init__(self, ends_us: Optional[float], extra_retry_steps: int,
                 latency_factor: float):
        self.ends_us = ends_us
        self.extra_retry_steps = extra_retry_steps
        self.latency_factor = latency_factor

    def active_at(self, now_us: float) -> bool:
        return self.ends_us is None or now_us <= self.ends_us


class FaultInjector:
    """Per-run fault state: pending schedule, active penalties, hot blocks.

    The injector is pull-driven by the simulator: ``poll(simulator, now)``
    activates due faults (in schedule order, so the seeded victim selection
    is deterministic), ``record_read``/``read_penalty`` sit on the read
    path.  A simulator without an injector takes none of these calls — the
    fault-free path is byte-for-byte the code that ran before faults
    existed.
    """

    def __init__(self, plan: FaultPlan, config) -> None:
        self.plan = plan
        self.config = config
        self._rng = np.random.default_rng(plan.seed)
        #: Still-inactive specs, soonest first (stable on ties).
        self._pending: List[FaultSpec] = sorted(
            plan.faults, key=lambda spec: spec.at_us)
        addressing = PageAddressing(config)
        self._pages_per_die = addressing.pages_per_die
        self._pages_per_plane = addressing.pages_per_plane
        self._pages_per_block = addressing.pages_per_block
        #: Active penalties keyed by die, plane and block number.
        self._die_penalties: Dict[int, _ActivePenalty] = {}
        self._plane_penalties: Dict[int, _ActivePenalty] = {}
        self._block_penalties: Dict[int, _ActivePenalty] = {}
        #: Deterministic per-block read counts feeding hot-block selection.
        self._read_counts: Dict[int, int] = {}
        for spec in self._pending:
            if spec.kind in ("die_failure", "plane_failure") and not all(
                    0 <= digit < radix for digit, radix in self._scope_digits(spec)):
                raise ValueError(
                    f"{spec.kind} {spec.to_dict()} lies outside the device "
                    f"({config.channels} channels x {config.dies_per_channel} "
                    f"dies x {config.planes_per_die} planes)")

    # -- read-path hooks ------------------------------------------------------
    def record_read(self, packed: int) -> None:
        block = packed // self._pages_per_block
        self._read_counts[block] = self._read_counts.get(block, 0) + 1

    def read_penalty(self, packed: int, now_us: float) -> Tuple[int, float]:
        """``(extra_retry_steps, latency_factor)`` for a read of packed
        page ``packed`` at ``now_us``."""
        extra = 0
        factor = 1.0
        for table, key in (
                (self._die_penalties, packed // self._pages_per_die),
                (self._plane_penalties, packed // self._pages_per_plane),
                (self._block_penalties, packed // self._pages_per_block)):
            penalty = table.get(key)
            if penalty is None:
                continue
            if not penalty.active_at(now_us):
                del table[key]
                continue
            extra += penalty.extra_retry_steps
            factor *= penalty.latency_factor
        return extra, factor

    # -- activation -----------------------------------------------------------
    def poll(self, simulator, now_us: float) -> None:
        """Activate every pending fault of ``simulator`` whose time has come."""
        while self._pending and self._pending[0].at_us <= now_us:
            spec = self._pending.pop(0)
            self._activate(spec, simulator)
            simulator.metrics.fault_injections += 1

    def _activate(self, spec: FaultSpec, simulator) -> None:
        ends = (None if spec.duration_us is None
                else spec.at_us + spec.duration_us)
        if spec.kind in ("die_failure", "plane_failure"):
            table = (self._die_penalties if spec.kind == "die_failure"
                     else self._plane_penalties)
            table[self._scope_number(spec)] = _ActivePenalty(
                ends, spec.extra_retry_steps, spec.latency_factor)
        elif spec.kind == "read_disturb":
            for block in self._hottest_blocks(spec.blocks):
                self._block_penalties[block] = _ActivePenalty(
                    ends, spec.extra_retry_steps, spec.latency_factor)
        else:  # grown_bad_blocks
            self._grow_bad_blocks(spec, simulator)

    def _scope_digits(self, spec: FaultSpec) -> List[Tuple[int, int]]:
        """A die or plane failure's ``(channel, die[, plane])``, each with
        its radix in the device geometry."""
        config = self.config
        digits = [(spec.channel, config.channels),
                  (spec.die, config.dies_per_channel)]
        if spec.kind == "plane_failure":
            digits.append((spec.plane, config.planes_per_die))
        return digits

    def _scope_number(self, spec: FaultSpec) -> int:
        """The die number (``channel * dies_per_channel + die``) of a die
        failure, or the plane number (``die_number * planes_per_die +
        plane``) of a plane failure; the constructor refused every scope
        outside the device."""
        number = 0
        for digit, radix in self._scope_digits(spec):
            number = number * radix + digit
        return number

    def _hottest_blocks(self, count: int) -> List[int]:
        """The numbers of the ``count`` most-read blocks so far (ties broken
        by block number, which is ``(channel, die, plane, block)`` order).

        A storm arriving before any read lands on the lowest-numbered
        blocks — still deterministic, and a storm somewhere beats no storm.
        """
        ranked = sorted(self._read_counts,
                        key=lambda block: (-self._read_counts[block], block))
        chosen = ranked[:count]
        if len(chosen) < count:
            config = self.config
            for block in range(config.num_planes * config.blocks_per_plane):
                if block not in chosen:
                    chosen.append(block)
                if len(chosen) == count:
                    return chosen
        return chosen

    def _grow_bad_blocks(self, spec: FaultSpec, simulator) -> None:
        """Retire ``spec.blocks`` seeded-random blocks via the DFTL remap.

        Victims are drawn plane-by-plane; a draw is skipped when the plane
        could not absorb the relocation without starving its GC watermark
        (retiring blocks shrinks overprovisioning — the model must degrade,
        not deadlock).  Attempts are bounded so a saturated device ends the
        fault instead of spinning.
        """
        planes = simulator.mapper.planes
        config = self.config
        threshold = config.gc_free_block_threshold
        retired = 0
        for _ in range(max(16, 8 * spec.blocks)):
            if retired >= spec.blocks:
                break
            plane_index = int(self._rng.integers(len(planes)))
            block_id = int(self._rng.integers(config.blocks_per_plane))
            plane = planes[plane_index]
            if plane.is_retired(block_id):
                continue
            if plane.free_block_count <= threshold + 1:
                continue
            simulator.retire_bad_block(plane_index, block_id)
            retired += 1
