"""Latency equations of the paper (Equations (1) to (5)).

These functions translate "a read of this page type needed ``N_RR`` retry
steps under policy X" into latency numbers:

* Equation (1): ``tR = N_SENSE * (tPRE + tEVAL + tDISCH)`` — provided by
  :class:`repro.nand.timing.ReadTimingParameters`.
* Equation (2): ``tREAD = tR + tDMA + tECC + tRETRY``.
* Equation (3): regular read-retry, ``tRETRY = N_RR * (tR + tDMA + tECC)``.
* Equation (4): PR2, ``tRETRY = N_RR * tR + tDMA + tECC`` — the data
  transfer and ECC decoding of all but the final step are hidden behind the
  pipelined sensing of the next step (Figure 12(b)).
* Equation (5): PnAR2, ``tRETRY = tSET + rho * N_RR * tR + tDMA + tECC`` —
  every retry step is additionally shortened by the tPRE reduction that the
  RPT prescribes for the current operating condition (Figure 13).

The :class:`ReadLatencyModel` also reports how long the die and the channel
bus stay busy, which is what the event-driven SSD simulator schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nand.geometry import PageType
from repro.nand.timing import ReadTimingParameters, TimingParameters


@dataclass(frozen=True)
class ReadLatencyBreakdown:
    """Latency decomposition of one page read (all values in microseconds).

    :param response_us: time from the start of page sensing until the page's
        data has been transferred and successfully decoded (what the host
        observes, ignoring queueing).
    :param die_busy_us: how long the target die is occupied and cannot serve
        other transactions (includes the speculative retry step that PR2
        cancels with RESET and the SET FEATURE rollback of AR2).
    :param channel_busy_us: total time the channel bus spends transferring
        this read's data to the controller.
    :param ecc_busy_us: total ECC-engine time spent on this read.
    :param retry_steps: number of retry steps the read performed.
    """

    response_us: float
    die_busy_us: float
    channel_busy_us: float
    ecc_busy_us: float
    retry_steps: int

    def __post_init__(self) -> None:
        if self.retry_steps < 0:
            raise ValueError("retry_steps must be non-negative")
        for name in ("response_us", "die_busy_us", "channel_busy_us",
                     "ecc_busy_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class ReadLatencyModel:
    """Computes read latencies under the different read-retry mechanisms."""

    def __init__(self, timing: TimingParameters = None):
        self.timing = timing or TimingParameters()

    # -- building blocks --------------------------------------------------------
    def sensing_latency_us(self, page_type: PageType,
                           read_timing: ReadTimingParameters = None) -> float:
        """Equation (1): chip-level sensing latency ``tR``."""
        return self.timing.t_r_us(page_type, read_timing)

    def step_latency_us(self, page_type: PageType,
                        read_timing: ReadTimingParameters = None) -> float:
        """Latency of one non-pipelined read step: ``tR + tDMA + tECC``."""
        return (self.sensing_latency_us(page_type, read_timing)
                + self.timing.t_dma_page_us + self.timing.t_ecc_us)

    # -- Equations (2)-(5) -------------------------------------------------------
    def baseline(self, retry_steps: int, page_type: PageType) -> ReadLatencyBreakdown:
        """Regular read-retry (Equations (2) and (3), Figure 12(a))."""
        self._check_steps(retry_steps)
        step = self.step_latency_us(page_type)
        response = (retry_steps + 1) * step
        return ReadLatencyBreakdown(
            response_us=response,
            die_busy_us=response,
            channel_busy_us=(retry_steps + 1) * self.timing.t_dma_page_us,
            ecc_busy_us=(retry_steps + 1) * self.timing.t_ecc_us,
            retry_steps=retry_steps,
        )

    def pr2(self, retry_steps: int, page_type: PageType) -> ReadLatencyBreakdown:
        """Pipelined Read-Retry (Equation (4), Figure 12(b)).

        Consecutive retry steps are issued with CACHE READ immediately after
        the previous step's sensing completes, so only the final step's data
        transfer and ECC decode remain on the critical path.  The
        speculatively started extra step is cancelled with RESET, which keeps
        the die busy for ``tRST`` beyond the response time.
        """
        self._check_steps(retry_steps)
        t_r = self.sensing_latency_us(page_type)
        tail = self.timing.t_dma_page_us + self.timing.t_ecc_us
        response = (retry_steps + 1) * t_r + tail
        die_busy = response + (self.timing.t_reset_read_us if retry_steps else 0.0)
        return ReadLatencyBreakdown(
            response_us=response,
            die_busy_us=die_busy,
            channel_busy_us=(retry_steps + 1) * self.timing.t_dma_page_us,
            ecc_busy_us=(retry_steps + 1) * self.timing.t_ecc_us,
            retry_steps=retry_steps,
        )

    def ar2(self, retry_steps: int, page_type: PageType,
            reduced_timing: ReadTimingParameters) -> ReadLatencyBreakdown:
        """Adaptive Read-Retry without pipelining (Section 6.2).

        The initial read uses the default timing parameters; once it fails,
        the controller installs the RPT-prescribed reduced tPRE with
        SET FEATURE, performs every retry step with the shorter ``tR``, and
        rolls the parameters back afterwards (the rollback is off the
        response-time critical path but keeps the die busy).
        """
        self._check_steps(retry_steps)
        default_step = self.step_latency_us(page_type)
        if retry_steps == 0:
            return ReadLatencyBreakdown(
                response_us=default_step, die_busy_us=default_step,
                channel_busy_us=self.timing.t_dma_page_us,
                ecc_busy_us=self.timing.t_ecc_us, retry_steps=0)
        reduced_step = self.step_latency_us(page_type, reduced_timing)
        response = (default_step + self.timing.t_set_feature_us
                    + retry_steps * reduced_step)
        die_busy = response + self.timing.t_set_feature_us
        return ReadLatencyBreakdown(
            response_us=response,
            die_busy_us=die_busy,
            channel_busy_us=(retry_steps + 1) * self.timing.t_dma_page_us,
            ecc_busy_us=(retry_steps + 1) * self.timing.t_ecc_us,
            retry_steps=retry_steps,
        )

    def pnar2(self, retry_steps: int, page_type: PageType,
              reduced_timing: ReadTimingParameters) -> ReadLatencyBreakdown:
        """PR2 and AR2 combined (Equation (5), Figure 13)."""
        self._check_steps(retry_steps)
        default_step = self.step_latency_us(page_type)
        if retry_steps == 0:
            return ReadLatencyBreakdown(
                response_us=default_step, die_busy_us=default_step,
                channel_busy_us=self.timing.t_dma_page_us,
                ecc_busy_us=self.timing.t_ecc_us, retry_steps=0)
        reduced_t_r = self.sensing_latency_us(page_type, reduced_timing)
        tail = self.timing.t_dma_page_us + self.timing.t_ecc_us
        response = (default_step + self.timing.t_set_feature_us
                    + retry_steps * reduced_t_r + tail)
        die_busy = (response + self.timing.t_reset_read_us
                    + self.timing.t_set_feature_us)
        return ReadLatencyBreakdown(
            response_us=response,
            die_busy_us=die_busy,
            channel_busy_us=(retry_steps + 1) * self.timing.t_dma_page_us,
            ecc_busy_us=(retry_steps + 1) * self.timing.t_ecc_us,
            retry_steps=retry_steps,
        )

    def no_retry(self, page_type: PageType) -> ReadLatencyBreakdown:
        """The ideal NoRR configuration: every read succeeds immediately."""
        return self.baseline(0, page_type)

    # -- helpers ------------------------------------------------------------------
    @staticmethod
    def _check_steps(retry_steps: int) -> None:
        if retry_steps < 0:
            raise ValueError("retry_steps must be non-negative")
