"""Read-retry policies evaluated in Section 7 of the paper.

A policy answers two questions for every flash read the SSD simulator
serves:

1. *How many retry steps does this read perform?*  Baseline, PR2, AR2 and
   PnAR2 keep the number dictated by the NAND error behaviour; the ideal
   NoRR performs none; PSO (the prior-work baseline of Section 7.3) starts
   the retry sequence from previously learned V_REF values and therefore
   needs far fewer steps.
2. *How long does the read take and how long does it occupy the die, the
   channel and the ECC engine?*  This is where PR2's pipelining and AR2's
   reduced sensing latency enter, via :class:`repro.core.latency.ReadLatencyModel`.

Policies are stateless strategy objects, so one instance can be shared by
every die of a simulated SSD.  A read's price is a pure function of the
policy's :meth:`~ReadRetryPolicy.pricing_identity` and the read's steps,
page type and condition, so every policy of one identity in a process
shares one memo of prices (:meth:`~ReadRetryPolicy.shared_breakdown`):
the devices of a sweep cell or of a fleet worker compute each price once
between them.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Dict, Tuple

from repro.core.latency import ReadLatencyBreakdown, ReadLatencyModel
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.nand.geometry import PageType
from repro.nand.timing import TimingParameters
from repro.sim.registry import DEFAULT_REGISTRY, register_policy

#: Bounds on the process-wide price memo: how many pricing identities it
#: keeps (least recently used evicted first) and how many prices it keeps
#: per identity (first in, first out).
MAX_PRICING_IDENTITIES = 16
MAX_PRICES_PER_IDENTITY = 4096

#: pricing identity -> {(required steps, page type, condition): breakdown}.
_SHARED_PRICES: "OrderedDict[tuple, Dict[tuple, ReadLatencyBreakdown]]" = OrderedDict()

#: Instance attributes that are not pricing parameters: the latency model
#: is derived from ``timing``, the RPT enters through its identity, and
#: ``_prices`` is the policy's memo.
_NOT_PRICING_PARAMETERS = ("latency_model", "_rpt", "_prices")


def _prices_for(policy: "ReadRetryPolicy") -> Dict[tuple, ReadLatencyBreakdown]:
    """The process-wide price memo of ``policy``'s pricing identity."""
    identity = policy.pricing_identity()
    try:
        prices = _SHARED_PRICES.get(identity)
    except TypeError:
        # An unhashable parameter: this policy keeps its prices to itself.
        return {}
    if prices is None:
        prices = {}
        while len(_SHARED_PRICES) >= MAX_PRICING_IDENTITIES:
            _SHARED_PRICES.popitem(last=False)
        _SHARED_PRICES[identity] = prices
    else:
        _SHARED_PRICES.move_to_end(identity)
    return prices


class ReadRetryPolicy(abc.ABC):
    """Strategy interface of a read-retry mechanism."""

    #: Short identifier used in experiment tables (overridden by subclasses).
    name: str = "abstract"

    def __init__(self, timing: TimingParameters = None,
                 rpt: ReadTimingParameterTable = None):
        self.timing = timing or TimingParameters()
        self.latency_model = ReadLatencyModel(self.timing)
        self._rpt = rpt
        self._prices = None

    # -- behaviour ---------------------------------------------------------------
    def effective_retry_steps(self, required_steps: int,
                              condition: OperatingCondition) -> int:
        """Retry steps actually performed for a read that *needs* ``required_steps``.

        The default keeps the NAND-dictated count; NoRR and PSO override it.
        """
        if required_steps < 0:
            raise ValueError("required_steps must be non-negative")
        return required_steps

    @abc.abstractmethod
    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        """Latency/occupancy breakdown of one read under this policy."""

    # -- shared prices -------------------------------------------------------------
    def pricing_identity(self) -> tuple:
        """Everything this policy's read prices depend on, as one hashable value.

        The class, every instance attribute (the timing parameters, and
        parameters such as PSO's ``mechanism``, ``step_fraction`` and
        ``min_steps``) but the latency model derived from the timing, and
        the RPT's :meth:`~repro.core.rpt.ReadTimingParameterTable.identity`
        in place of the table: its bin edges, per-bin reductions and
        default timing.  A read's steps, page type and condition (with its
        temperature) complete a price's key.
        """
        parameters = tuple(sorted(
            (name, value) for name, value in vars(self).items()
            if name not in _NOT_PRICING_PARAMETERS))
        return (type(self), parameters, self.rpt.identity())

    def shared_breakdown(self, required_steps: int, page_type: PageType,
                         condition: OperatingCondition) -> ReadLatencyBreakdown:
        """:meth:`read_breakdown` through the process-wide price memo.

        Computes each price once per process for each
        :meth:`pricing_identity`; the memo is bounded by
        :data:`MAX_PRICING_IDENTITIES` and :data:`MAX_PRICES_PER_IDENTITY`.
        The policy looks its memo up at its first price and keeps it,
        since its parameters do not change after construction.
        """
        prices = self._prices
        if prices is None:
            prices = self._prices = _prices_for(self)
        key = (required_steps, page_type, condition)
        breakdown = prices.get(key)
        if breakdown is None:
            breakdown = self.read_breakdown(required_steps, page_type, condition)
            if len(prices) >= MAX_PRICES_PER_IDENTITY:
                del prices[next(iter(prices))]
            prices[key] = breakdown
        return breakdown

    # -- AR2 helpers ----------------------------------------------------------------
    @property
    def uses_reduced_timing(self) -> bool:
        """Whether this policy shortens the retry steps' sensing latency."""
        return False

    @property
    def rpt(self) -> ReadTimingParameterTable:
        """The Read-timing Parameter Table (built lazily when first needed)."""
        if self._rpt is None:
            self._rpt = ReadTimingParameterTable.default()
        return self._rpt

    def reduced_timing_for(self, condition: OperatingCondition):
        """Reduced read-timing parameters AR2 installs for a condition."""
        return self.rpt.reduced_timing_for(condition.pe_cycles,
                                           condition.retention_months)

    # -- cosmetics --------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@register_policy(tags=("fig14", "fig15"))
class BaselinePolicy(ReadRetryPolicy):
    """Regular read-retry of a high-end SSD (Figure 12(a))."""

    name = "Baseline"

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        return self.latency_model.baseline(steps, page_type)


@register_policy(tags=("fig14",))
class PR2Policy(ReadRetryPolicy):
    """Pipelined Read-Retry: retry steps overlap via CACHE READ (Section 6.1)."""

    name = "PR2"

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        return self.latency_model.pr2(steps, page_type)


@register_policy(tags=("fig14",))
class AR2Policy(ReadRetryPolicy):
    """Adaptive Read-Retry: retry steps use an RPT-reduced tPRE (Section 6.2)."""

    name = "AR2"

    @property
    def uses_reduced_timing(self) -> bool:
        return True

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        if steps == 0:
            return self.latency_model.baseline(0, page_type)
        return self.latency_model.ar2(steps, page_type,
                                      self.reduced_timing_for(condition))


@register_policy(tags=("fig14",))
class PnAR2Policy(ReadRetryPolicy):
    """PR2 and AR2 combined (the paper's full proposal, Equation (5))."""

    name = "PnAR2"

    @property
    def uses_reduced_timing(self) -> bool:
        return True

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        if steps == 0:
            return self.latency_model.baseline(0, page_type)
        return self.latency_model.pnar2(steps, page_type,
                                        self.reduced_timing_for(condition))


@register_policy(tags=("fig14", "fig15"))
class NoRRPolicy(ReadRetryPolicy):
    """Ideal SSD where read-retry never occurs (upper bound of Section 7.2)."""

    name = "NoRR"

    def effective_retry_steps(self, required_steps: int,
                              condition: OperatingCondition) -> int:
        super().effective_retry_steps(required_steps, condition)
        return 0

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        return self.latency_model.no_retry(page_type)


@register_policy(tags=("fig15",))
class PSOPolicy(ReadRetryPolicy):
    """Process-Similarity-aware Optimization (Shim et al. [84], Section 7.3).

    PSO reuses the V_REF values recently learned from other pages with
    similar error characteristics, so a read starts its retry sequence close
    to the optimal voltages: the paper reports roughly a 70% reduction in the
    number of retry steps but never fewer than three steps per read in an
    aged SSD.  PSO changes only the *number* of steps; the latency of each
    step follows the wrapped mechanism (regular read-retry by default, or
    PnAR2 for the ``PSO+PnAR2`` configuration).

    :param mechanism: the latency mechanism the retry steps use
        ("baseline" or "pnar2").
    :param step_fraction: fraction of the NAND-required steps PSO still needs.
    :param min_steps: floor on the number of steps when any retry is needed.
    """

    name = "PSO"

    def __init__(self, timing: TimingParameters = None,
                 rpt: ReadTimingParameterTable = None,
                 mechanism: str = "baseline",
                 step_fraction: float = 0.3,
                 min_steps: int = 3):
        super().__init__(timing=timing, rpt=rpt)
        mechanism = mechanism.lower()
        if mechanism not in ("baseline", "pnar2"):
            raise ValueError("PSO can wrap 'baseline' or 'pnar2' mechanisms")
        if not 0.0 < step_fraction <= 1.0:
            raise ValueError("step_fraction must be in (0, 1]")
        if min_steps < 1:
            raise ValueError("min_steps must be at least 1")
        self.mechanism = mechanism
        self.step_fraction = step_fraction
        self.min_steps = min_steps
        if mechanism == "pnar2":
            self.name = "PSO+PnAR2"

    @property
    def uses_reduced_timing(self) -> bool:
        return self.mechanism == "pnar2"

    def effective_retry_steps(self, required_steps: int,
                              condition: OperatingCondition) -> int:
        super().effective_retry_steps(required_steps, condition)
        if required_steps == 0:
            return 0
        predicted = max(self.min_steps, round(self.step_fraction * required_steps))
        return min(required_steps, predicted)

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        if self.mechanism == "baseline" or steps == 0:
            return self.latency_model.baseline(steps, page_type)
        return self.latency_model.pnar2(steps, page_type,
                                        self.reduced_timing_for(condition))


# The PSO+PnAR2 configuration of Figure 15 is PSOPolicy wrapping the PnAR2
# latency mechanism; it registers as its own named configuration.
DEFAULT_REGISTRY.register(
    "PSO+PnAR2",
    lambda timing=None, rpt=None, **kwargs: PSOPolicy(
        timing=timing, rpt=rpt, mechanism="pnar2", **kwargs),
    tags=("fig15",),
    doc="PSO with PnAR2 retry steps (Figure 15's combined configuration).")


def available_policies() -> Tuple[str, ...]:
    """Names of every registered SSD configuration."""
    return DEFAULT_REGISTRY.names()


def get_policy(name: str, timing: TimingParameters = None,
               rpt: ReadTimingParameterTable = None) -> ReadRetryPolicy:
    """Instantiate a policy by (case-insensitive) registry name."""
    return DEFAULT_REGISTRY.create(name, timing=timing, rpt=rpt)


def policy_suite(names=None, timing: TimingParameters = None,
                 rpt: ReadTimingParameterTable = None) -> Dict[str, ReadRetryPolicy]:
    """Instantiate several policies sharing one timing model and RPT."""
    return DEFAULT_REGISTRY.suite(names, timing=timing, rpt=rpt)
