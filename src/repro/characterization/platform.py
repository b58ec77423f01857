"""The virtual NAND flash characterization platform.

The paper's methodology (Section 4): 160 chips, 120 randomly selected blocks
per chip, read tests on every page of every selected block, a temperature
controller that keeps the chip within +/-1 degC and accelerates retention
loss via Arrhenius's law, and a flash controller that can change read-timing
parameters per read with SET FEATURE.

The virtual platform reproduces that setup against the calibrated error
model.  Because the error model is analytic, "testing a page" means
evaluating the model for that page's process-variation sample under the
requested operating condition — which is exactly how the paper's simulator
consumes the characterization too (per-block lookup tables).

The platform purposely exposes a *sampled* population (chips x blocks x
wordlines x page types); the population size is configurable so unit tests
stay fast while benchmarks can scale to the paper's full 11-million-page
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors.batch import BatchErrorModel, VariationArrays
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel, RetryOutcome
from repro.errors.retention import required_bake_hours
from repro.errors.timing import TimingReduction
from repro.errors.variation import ProcessVariation, VariationSample
from repro.nand.geometry import PageType
from repro.nand.voltage import ReadRetryTable


@dataclass(frozen=True)
class PageSample:
    """One (chip, block, wordline, page type) sampled by the platform."""

    chip: int
    block: int
    wordline: int
    page_type: PageType
    variation: VariationSample

    def label(self) -> str:
        return (f"chip{self.chip}/blk{self.block}/wl{self.wordline}"
                f"/{self.page_type.value}")


class VirtualTestPlatform:
    """A population of NAND flash pages plus the measurement procedures.

    :param num_chips: number of chips in the population (160 in the paper).
    :param blocks_per_chip: sampled blocks per chip (120 in the paper).
    :param wordlines_per_block: sampled wordlines per block.
    :param page_types: which page types to include (all three by default).
    :param seed: seed of the process-variation population.
    :param error_model: calibrated codeword error model.
    :param retry_table: manufacturer read-retry table.
    """

    def __init__(self,
                 num_chips: int = 20,
                 blocks_per_chip: int = 6,
                 wordlines_per_block: int = 3,
                 page_types=None,
                 seed: int = 0,
                 error_model: CodewordErrorModel = None,
                 retry_table: ReadRetryTable = None):
        if num_chips < 1 or blocks_per_chip < 1 or wordlines_per_block < 1:
            raise ValueError("population dimensions must be positive")
        self.num_chips = num_chips
        self.blocks_per_chip = blocks_per_chip
        self.wordlines_per_block = wordlines_per_block
        self.page_types = tuple(page_types or
                                (PageType.LSB, PageType.CSB, PageType.MSB))
        self.error_model = error_model or CodewordErrorModel()
        self.retry_table = retry_table or ReadRetryTable()
        self._batch = BatchErrorModel(self.error_model)
        self._variation = ProcessVariation(seed=seed)
        self._samples: Optional[List[PageSample]] = None
        self._variation_arrays: Optional[VariationArrays] = None

    @classmethod
    def paper_scale(cls, seed: int = 0) -> "VirtualTestPlatform":
        """A platform with the paper's population (160 chips x 120 blocks).

        Intended for offline sweeps; the default constructor uses a smaller
        population so the test-suite stays fast.
        """
        return cls(num_chips=160, blocks_per_chip=120, wordlines_per_block=4,
                   seed=seed)

    # -- population ------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return (self.num_chips * self.blocks_per_chip
                * self.wordlines_per_block * len(self.page_types))

    def pages(self) -> List[PageSample]:
        """The sampled page population (materialized once and cached)."""
        if self._samples is None:
            self._samples = list(self.iter_pages())
        return self._samples

    def iter_pages(self) -> Iterator[PageSample]:
        for chip, block, wordline, variation in self._wordlines():
            for page_type in self.page_types:
                yield PageSample(chip=chip, block=block, wordline=wordline,
                                 page_type=page_type, variation=variation)

    def _wordlines(self) -> Iterator[Tuple[int, int, int, VariationSample]]:
        """``(chip, block, wordline, variation)`` of every sampled wordline."""
        for chip in range(self.num_chips):
            for block in range(self.blocks_per_chip):
                for wordline in range(self.wordlines_per_block):
                    yield chip, block, wordline, self._variation.sample(
                        chip=chip, block=block, wordline=wordline)

    # -- measurement procedures ---------------------------------------------------
    def read_test(self, sample: PageSample, condition: OperatingCondition,
                  timing_reduction: TimingReduction = None,
                  retry_timing_reduction: TimingReduction = None,
                  rng: np.random.Generator = None) -> RetryOutcome:
        """Full read test of one page: initial read plus read-retry walk."""
        return self.error_model.walk_retry_table(
            condition, sample.page_type, table=self.retry_table,
            variation=sample.variation, timing_reduction=timing_reduction,
            retry_timing_reduction=retry_timing_reduction, rng=rng)

    def final_step_errors(self, condition: OperatingCondition,
                          timing_reduction: TimingReduction = None
                          ) -> np.ndarray:
        """Errors at the near-optimal (final) retry step of every page.

        One value per page of :meth:`pages`, in that order, from one
        batched evaluation per page type over the population's variation
        (one corner per wordline, built once like :meth:`pages`); each
        equals the scalar
        :meth:`CodewordErrorModel.near_optimal_step_errors` of its page bit
        for bit.
        """
        if self._variation_arrays is None:
            self._variation_arrays = VariationArrays.from_samples(
                variation for *_, variation in self._wordlines())
        per_type = [self._batch.near_optimal_step_errors(
                        condition, page_type, self._variation_arrays,
                        table=self.retry_table,
                        timing_reduction=timing_reduction)
                    for page_type in self.page_types]
        # Page order: every page type of a wordline, wordline by wordline.
        return np.stack(per_type, axis=1).ravel()

    def retry_steps(self, sample: PageSample,
                    condition: OperatingCondition,
                    timing_reduction: TimingReduction = None) -> Optional[int]:
        """Number of retry steps a read of this page needs."""
        return self.read_test(sample, condition,
                              timing_reduction=timing_reduction).retry_steps

    def bake_plan_hours(self, retention_months: float,
                        bake_temperature_c: float = 85.0) -> float:
        """Bake duration emulating a retention age (documentation helper).

        The virtual platform does not need to physically wait, but the
        equivalent bake time is reported so experiments can document their
        methodology the way the paper does (e.g. "13 hours at 85 degC is
        about 1 year at 30 degC").
        """
        return required_bake_hours(retention_months, bake_temperature_c)

    # -- aggregation helpers ----------------------------------------------------------
    def max_final_step_errors(self, condition: OperatingCondition,
                              timing_reduction: TimingReduction = None,
                              quantile: float = 1.0) -> float:
        """Robust maximum of final-retry-step errors across the population.

        ``quantile=1.0`` is the true maximum (the paper's M_ERR definition);
        smaller values give outlier-robust maxima used when the analytic
        model's marginal tail should be excluded.
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        values = self.final_step_errors(condition, timing_reduction)
        if quantile >= 1.0:
            return float(values.max())
        return float(np.quantile(values, quantile))

    def retry_step_counts(self, condition: OperatingCondition,
                          timing_reduction: TimingReduction = None) -> List[Optional[int]]:
        """Retry-step count of every page in the population."""
        return [self.retry_steps(sample, condition, timing_reduction)
                for sample in self.pages()]
