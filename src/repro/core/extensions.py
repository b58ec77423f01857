"""Extensions beyond the paper's core proposal (Section 8 and related work).

The paper's Discussion section sketches two follow-on ideas, and its
related-work section describes a concurrent retry-count-reduction technique;
all three are implemented here as additional policies so they can be compared
against PnAR2 in the ablation experiments:

* :class:`RegularReadSpeedupPolicy` — "Latency Reduction for Regular Reads":
  if an error model can predict that a page's RBER plus the extra errors from
  a reduced ``tPRE`` stays within the ECC capability, the *initial* read (not
  only the retry steps) can use reduced timings.  The policy models the
  prediction with the same calibrated error model the flash backend uses,
  reserving the AR2 safety margin.
* :class:`SpeculativeRetryPolicy` — "Further Reduction of Read-Retry
  Latency": when the predictor says the default-voltage read would fail
  anyway, the controller skips it and starts the retry sequence directly,
  saving one full read step per retry operation.
* :class:`SentinelPolicy` — the Sentinel-cell V_OPT prediction of Li et al.
  [56]: predefined bit patterns stored in spare cells let the controller
  estimate near-optimal read voltages after the first read, which reduces the
  average number of retry steps from several to ~1.2.  Like PSO it changes
  only the number of steps, so it composes with PR2/AR2.
"""

from __future__ import annotations

from repro.core.latency import ReadLatencyBreakdown
from repro.core.policies import PnAR2Policy, ReadRetryPolicy
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.calibration import ECC_CALIBRATION
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.errors.condition import OperatingCondition
from repro.nand.geometry import PageType
from repro.nand.timing import TimingParameters


class RegularReadSpeedupPolicy(PnAR2Policy):
    """PnAR2 plus reduced-timing *regular* reads (Section 8, first idea).

    For reads that need no retry, the policy asks the error model whether the
    page would still decode with the RPT-reduced ``tPRE`` (reserving the same
    14-bit safety margin AR2 uses).  If so, the read is issued with reduced
    timings from the start; otherwise it falls back to the default read.
    """

    name = "PnAR2+RegularReads"

    def __init__(self, timing: TimingParameters = None,
                 rpt: ReadTimingParameterTable = None,
                 error_model: CodewordErrorModel = None,
                 safety_margin_bits: int = None):
        super().__init__(timing=timing, rpt=rpt)
        self._error_model = error_model or CodewordErrorModel()
        self._margin = (safety_margin_bits if safety_margin_bits is not None
                        else ECC_CALIBRATION.ar2_safety_margin_bits)

    def regular_read_can_be_reduced(self, page_type: PageType,
                                    condition: OperatingCondition) -> bool:
        """Whether a no-retry read of this page tolerates the reduced tPRE."""
        entry = self.rpt.entry_for(condition.pe_cycles,
                                   condition.retention_months)
        if entry.pre_reduction <= 0.0:
            return False
        expected = self._error_model.expected_errors(
            condition, page_type,
            timing_reduction=TimingReduction(pre=entry.pre_reduction))
        capability = self._error_model.ecc_capability
        return expected + self._margin <= capability

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        if steps > 0:
            return super().read_breakdown(required_steps, page_type, condition)
        if not self.regular_read_can_be_reduced(page_type, condition):
            return self.latency_model.baseline(0, page_type)
        reduced = self.reduced_timing_for(condition)
        reduced_step = self.latency_model.step_latency_us(page_type, reduced)
        # The reduced timing is installed once per block/condition epoch, so
        # the SET FEATURE cost amortizes; we still charge it on the die.
        return ReadLatencyBreakdown(
            response_us=reduced_step,
            die_busy_us=reduced_step + self.timing.t_set_feature_us,
            channel_busy_us=self.timing.t_dma_page_us,
            ecc_busy_us=self.timing.t_ecc_us,
            retry_steps=0,
        )


class SpeculativeRetryPolicy(PnAR2Policy):
    """PnAR2 plus speculative retry start (Section 8, second idea).

    When the error model predicts that the default-voltage read would exceed
    the ECC capability, the initial (doomed) read is skipped and the retry
    sequence starts immediately, saving one read step.  Reads predicted to
    succeed behave exactly like PnAR2.  A mispredicting controller would pay
    one extra retry step; the prediction here uses the same model as the
    flash backend, so mispredictions only occur for marginal pages.
    """

    name = "PnAR2+Speculation"

    def __init__(self, timing: TimingParameters = None,
                 rpt: ReadTimingParameterTable = None,
                 error_model: CodewordErrorModel = None):
        super().__init__(timing=timing, rpt=rpt)
        self._error_model = error_model or CodewordErrorModel()

    def predicts_initial_read_failure(self, page_type: PageType,
                                      condition: OperatingCondition) -> bool:
        expected = self._error_model.expected_errors(condition, page_type)
        return expected > self._error_model.ecc_capability

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        base = super().read_breakdown(required_steps, page_type, condition)
        if steps == 0 or not self.predicts_initial_read_failure(page_type,
                                                                condition):
            return base
        # Skip the initial default-voltage read: its sensing, transfer and
        # decode disappear; the retry pipeline is unchanged.
        saved = self.latency_model.sensing_latency_us(page_type)
        return ReadLatencyBreakdown(
            response_us=max(0.0, base.response_us - saved),
            die_busy_us=max(0.0, base.die_busy_us - saved),
            channel_busy_us=max(self.timing.t_dma_page_us,
                                base.channel_busy_us - self.timing.t_dma_page_us),
            ecc_busy_us=max(self.timing.t_ecc_us,
                            base.ecc_busy_us - self.timing.t_ecc_us),
            retry_steps=base.retry_steps,
        )


class SentinelPolicy(ReadRetryPolicy):
    """Sentinel-cell V_OPT prediction (Li et al. [56]) as a step transformer.

    After the first (failed) read, the sentinel cells reveal near-optimal
    read voltages, so the retry sequence almost always succeeds within one
    or two steps — the paper quotes an average of 1.2 steps, down from 6.6.
    The mechanism of each step follows either the regular read-retry
    (``mechanism="baseline"``) or the paper's PnAR2 (``mechanism="pnar2"``).
    """

    name = "Sentinel"

    def __init__(self, timing: TimingParameters = None,
                 rpt: ReadTimingParameterTable = None,
                 mechanism: str = "baseline",
                 average_steps: float = 1.2):
        super().__init__(timing=timing, rpt=rpt)
        mechanism = mechanism.lower()
        if mechanism not in ("baseline", "pnar2"):
            raise ValueError("Sentinel can wrap 'baseline' or 'pnar2'")
        if average_steps < 1.0:
            raise ValueError("average_steps must be at least 1")
        self.mechanism = mechanism
        self.average_steps = average_steps
        if mechanism == "pnar2":
            self.name = "Sentinel+PnAR2"

    @property
    def uses_reduced_timing(self) -> bool:
        return self.mechanism == "pnar2"

    def effective_retry_steps(self, required_steps: int,
                              condition: OperatingCondition) -> int:
        super().effective_retry_steps(required_steps, condition)
        if required_steps == 0:
            return 0
        # Deterministic stand-in for the 1.2-step average: pages whose
        # severity is above the table median need the second step.
        predicted = 1 if required_steps <= 10 else 2
        return min(required_steps, predicted)

    def read_breakdown(self, required_steps: int, page_type: PageType,
                       condition: OperatingCondition) -> ReadLatencyBreakdown:
        steps = self.effective_retry_steps(required_steps, condition)
        if self.mechanism == "baseline" or steps == 0:
            return self.latency_model.baseline(steps, page_type)
        return self.latency_model.pnar2(steps, page_type,
                                        self.reduced_timing_for(condition))
