"""Vectorized evaluation of the codeword error model.

The simulator's read hot path asks one question over and over: *how many
read-retry steps does a read need under a given operating condition, page
type and process-variation corner?*  The scalar answer
(:meth:`repro.errors.rber.CodewordErrorModel.walk_retry_table`) re-derives
the threshold-voltage distributions for every retry step of every query.

This module evaluates the same model over *arrays* of variation corners and
retry steps in one numpy pass, with results that are **bit-for-bit
identical** to the scalar code.  The characterization code (the default
RPT's M_ERR profiling, the virtual test platform, Figure 7's sweep) uses it
for whole page populations.  The simulator's retry grid does not: it needs
only the rows its reads touch, and prices each with
:class:`repro.ssd.retry_grid.RowWalk`, which repeats
:meth:`BatchErrorModel.read_behaviour_lattice`'s operations on one row in
Python floats.  The lattice stays the vectorized oracle those rows are
tested against.  Exactness is achieved by construction:

* per-condition scalars (retention shift, sigma widening, temperature
  extras, timing-error phase sums) are computed by the *scalar* model
  helpers themselves — ``numpy``'s transcendental ufuncs (``np.log1p``,
  ``np.power``) are not guaranteed to round identically to the ``math``
  module, so they are never used for condition math;
* everything vectorized uses only IEEE-754 basic operations (add, subtract,
  multiply, divide, min), which numpy evaluates exactly like Python floats,
  applied in the same order as the scalar code;
* the complementary error function is evaluated elementwise through
  ``math.erfc`` (:func:`_erfc`), the exact function the scalar path calls.

The payoff is structural, not transcendental.  The scalar walk rebuilds the
boundary distributions for each of up to 41 steps; the batch kernel builds
them once per (condition, corner), and each page type evaluates only its own
sensed boundaries.  The read-behaviour lattice also stops where the read
does: like the scalar walk, it stops at the first retry step the ECC decodes.
It evaluates the retry-table columns on a fixed chunk schedule (step 0
alone, then six retry steps at a time), and each chunk covers only the
(page type, corner) rows whose default walk, or whose reduced-timing walk,
is still running.  Fresh data decodes at step 0, so its lattice costs one column
instead of 41.  Stopping early never changes a value: every element is
computed by the same operations whichever rows and columns share its chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.errors.variation import VariationSample
from repro.nand.geometry import PageType
from repro.nand.voltage import (
    BOUNDARY_SHIFT_WEIGHTS,
    ReadRetryTable,
    default_read_references_mv,
    fresh_state_means_mv,
)

_SQRT2 = math.sqrt(2.0)

#: Retry steps per chunk of the lattice walk after step 0, which goes alone
#: because fresh data stops there.  Aged data needs 7 to 30 steps; six-step
#: chunks balance the steps computed past a corner's stop against the fixed
#: cost of each chunk.
_CHUNK_STEPS = 6


def _erfc(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.erfc``.

    ``scipy.special.erfc`` and any polynomial approximation differ from
    ``math.erfc`` in the last ulp on this platform, which would break the
    bit-for-bit guarantee, so every element goes through the identical libm
    routine the scalar path calls.
    """
    tails = map(math.erfc, values.ravel().tolist())
    return np.fromiter(tails, dtype=np.float64, count=values.size).reshape(values.shape)


def _step_chunks(columns: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` column ranges of the lattice walk, in order.

    Column 0 is the default read and column ``s`` retry step ``s``.
    """
    yield 0, 1
    for start in range(1, columns, _CHUNK_STEPS):
        yield start, min(start + _CHUNK_STEPS, columns)


def _table_shifts(table: ReadRetryTable) -> np.ndarray:
    """V_REF shift of every walk column: 0 for the default read, then each retry step."""
    return np.array([0.0] + [table.shift_for_step(step) for step in table.steps()])


def _record_first(first: np.ndarray, rows: np.ndarray, success: np.ndarray, offset: int) -> None:
    """Store the first successful column of each row of ``rows`` still at ``-1``.

    ``success`` has one row per entry of ``rows``; its column ``c`` is
    column ``offset + c`` of the walk.
    """
    found = success.any(axis=1) & (first[rows] < 0)
    first[rows[found]] = offset + success[found].argmax(axis=1)


@dataclass(frozen=True)
class VariationArrays:
    """Structure-of-arrays counterpart of :class:`VariationSample`.

    One entry per variation corner; all three arrays share the same length.
    """

    shift: np.ndarray
    sigma: np.ndarray
    timing: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.shift) == len(self.sigma) == len(self.timing)):
            raise ValueError("variation arrays must have equal lengths")

    def __len__(self) -> int:
        return len(self.shift)

    @classmethod
    def nominal(cls, count: int) -> "VariationArrays":
        ones = np.ones(count)
        return cls(shift=ones, sigma=ones.copy(), timing=ones.copy())

    @classmethod
    def from_samples(cls, samples: Iterable[VariationSample]) -> "VariationArrays":
        samples = list(samples)
        return cls(
            shift=np.array([s.shift_multiplier for s in samples]),
            sigma=np.array([s.sigma_multiplier for s in samples]),
            timing=np.array([s.timing_multiplier for s in samples]),
        )

    def sample_at(self, index: int) -> VariationSample:
        return VariationSample(
            shift_multiplier=float(self.shift[index]),
            sigma_multiplier=float(self.sigma[index]),
            timing_multiplier=float(self.timing[index]),
        )

    def take(self, indices: np.ndarray) -> "VariationArrays":
        return VariationArrays(
            shift=self.shift[indices],
            sigma=self.sigma[indices],
            timing=self.timing[indices],
        )


@dataclass(frozen=True)
class BatchRetryOutcome:
    """Vectorized counterpart of :class:`repro.errors.rber.RetryOutcome`.

    :param retry_steps: per-corner retry-step count; ``-1`` encodes the
        scalar model's ``None`` (table exhausted, a read failure).
    :param errors_per_step: full ``(corners, steps + 1)`` error matrix,
        column 0 being the initial default-V_REF read.  Unlike the scalar
        walk, the batch walk always evaluates every step; the scalar
        ``errors_per_step`` tuple is the row prefix up to the stop step.
    """

    retry_steps: np.ndarray
    final_errors: np.ndarray
    best_step_errors: np.ndarray
    errors_per_step: np.ndarray

    @property
    def succeeded(self) -> np.ndarray:
        return self.retry_steps >= 0


@dataclass(frozen=True)
class BatchReadBehaviour:
    """Structure-of-arrays counterpart of the retry grid's behaviours.

    Mirrors :class:`repro.ssd.flash_backend.ReadBehaviour` across a lattice
    of variation corners: retry steps with default timings, retry steps with
    the RPT-reduced timings, and the rare reduced-timing fallback flag.
    """

    retry_steps: np.ndarray
    retry_steps_reduced: np.ndarray
    reduced_timing_fallback: np.ndarray

    def __len__(self) -> int:
        return len(self.retry_steps)


class BatchErrorModel:
    """Array-at-a-time view of a :class:`CodewordErrorModel`."""

    def __init__(self, model: CodewordErrorModel = None):
        self._model = model or CodewordErrorModel()
        self._fresh_means = np.asarray(fresh_state_means_mv(), dtype=float)
        self._default_refs = np.asarray(default_read_references_mv())
        self._shift_weights = np.asarray(BOUNDARY_SHIFT_WEIGHTS)

    @property
    def model(self) -> CodewordErrorModel:
        return self._model

    # -- per-condition distribution parameters --------------------------------
    def _boundary_parameters(
        self,
        condition: OperatingCondition,
        variation: VariationArrays,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(means, sigmas)`` arrays of shape ``(corners, 8)``.

        Bitwise-equal to calling
        :meth:`ThresholdVoltageModel.state_means_mv` /
        :meth:`~ThresholdVoltageModel.state_sigmas_mv` per corner: the
        condition-only scalars come from the scalar helpers and the
        variation multipliers are applied with the same elementary
        operations in the same order.
        """
        vth = self._model.vth_model
        cal = vth.calibration
        count = len(variation)

        base_shift = vth.retention_shift_mv(condition)
        shift = base_shift * variation.shift
        means = np.empty((count, self._fresh_means.size))
        means[:, 0] = self._fresh_means[0] - shift * cal.erased_shift_fraction
        means[:, 1:] = self._fresh_means[1:][None, :] - shift[:, None]

        base_multiplier = vth.sigma_multiplier(condition)
        multiplier = base_multiplier * variation.sigma
        sigmas = np.empty_like(means)
        sigmas[:, 0] = cal.sigma_erased_fresh_mv * multiplier
        sigmas[:, 1:] = (cal.sigma_programmed_fresh_mv * multiplier)[:, None]
        return means, sigmas

    def _timing_extra(
        self,
        reduction: Optional[TimingReduction],
        condition: OperatingCondition,
        variation: VariationArrays,
    ) -> Optional[np.ndarray]:
        """Per-corner extra errors from reduced timings (``None`` if default).

        Vectorizes
        :meth:`ReadTimingErrorModel.additional_errors_per_codeword` over the
        timing multipliers: the condition-only pieces (phase-error sum,
        severity, temperature amplification) are scalar calls, the
        variation multiplier enters through the same multiply/min sequence.
        """
        if reduction is None or reduction.is_default:
            return None
        timing = self._model.timing_model
        cal = timing.calibration
        severity = timing.severity(condition) * variation.timing
        base_errors = timing.phase_error_sum(reduction) * severity

        temperature_factor = timing.temperature_amplification(condition)
        temperature_fraction = max(0.0, temperature_factor - 1.0)
        if cal.temperature_amplification_at_30c > 0:
            temperature_share = temperature_fraction / cal.temperature_amplification_at_30c
        else:
            temperature_share = 0.0
        temperature_extra = np.minimum(
            base_errors * temperature_fraction,
            cal.temperature_extra_error_cap_at_30c * temperature_share,
        )
        return base_errors + temperature_extra

    def _page_errors(
        self,
        page_type: PageType,
        shifts_mv: np.ndarray,
        means: np.ndarray,
        sigmas: np.ndarray,
        temperature_extra: float,
    ) -> np.ndarray:
        """Expected errors of one page type, shape ``(corners, shifts)``.

        ``means``/``sigmas`` are rows of :meth:`_boundary_parameters`.
        ``shifts_mv`` is either one row of V_REF shifts that every corner
        reads at, or a ``(corners, shifts)`` array of each corner's own
        shifts.  Each sensed boundary adds
        ``cells_per_state * (low_tail + high_tail)`` at every V_REF shift, in
        the scalar model's iteration order, and the temperature extra comes
        last, so every element reproduces the scalar
        :meth:`CodewordErrorModel.expected_errors` float exactly (timing
        extras are the caller's to add).  Only the page type's own
        boundaries are evaluated, both tails of all of them in one
        :func:`_erfc` call.
        """
        boundaries = np.array(page_type.sensed_boundaries)
        voltages = (
            self._default_refs[boundaries, None]
            + shifts_mv[..., None, :] * self._shift_weights[boundaries, None]
        )
        low_z = (voltages - means[:, boundaries, None]) / sigmas[:, boundaries, None]
        high_z = (means[:, boundaries + 1, None] - voltages) / sigmas[:, boundaries + 1, None]
        tails = 0.5 * _erfc(np.stack((low_z, high_z)) / _SQRT2)
        contributions = self._model.cells_per_state * (tails[0] + tails[1])
        errors = np.zeros((len(means), shifts_mv.shape[-1]))
        for sensed in range(len(boundaries)):
            errors = errors + contributions[:, sensed]
        return errors + temperature_extra

    # -- public API -----------------------------------------------------------
    def expected_errors_grid(
        self,
        condition: OperatingCondition,
        page_type: PageType,
        shifts_mv: Sequence[float],
        variation: VariationArrays,
        timing_reduction: TimingReduction = None,
    ) -> np.ndarray:
        """Expected errors over a (corner x V_REF-shift) grid.

        Returns shape ``(len(variation), len(shifts_mv))``; element
        ``[i, s]`` equals the scalar
        :meth:`CodewordErrorModel.expected_errors` bit for bit.
        """
        shifts = np.asarray(shifts_mv, dtype=float)
        means, sigmas = self._boundary_parameters(condition, variation)
        temperature_extra = self._model.vth_model.temperature_extra_errors_per_kib(condition)
        errors = self._page_errors(page_type, shifts, means, sigmas, temperature_extra)
        timing_extra = self._timing_extra(timing_reduction, condition, variation)
        if timing_extra is not None:
            errors = errors + timing_extra[:, None]
        return errors

    def expected_errors(
        self,
        pe_cycles,
        retention_months,
        temperature_c,
        page_type: PageType,
        reference_shift_mv=0.0,
        variation: VariationArrays = None,
        timing_reduction: TimingReduction = None,
    ) -> np.ndarray:
        """Elementwise expected errors over arrays of operating conditions.

        All array arguments are broadcast to a common length ``N``; the
        result is the ``(N,)`` array of per-item scalar
        :meth:`CodewordErrorModel.expected_errors` values.  Items are
        grouped by distinct condition so each group runs as one vector op.
        """
        pe = np.atleast_1d(np.asarray(pe_cycles))
        ret = np.atleast_1d(np.asarray(retention_months, dtype=float))
        temp = np.atleast_1d(np.asarray(temperature_c, dtype=float))
        shift_mv = np.atleast_1d(np.asarray(reference_shift_mv, dtype=float))
        count = max(
            len(pe),
            len(ret),
            len(temp),
            len(shift_mv),
            len(variation) if variation is not None else 1,
        )
        pe = np.broadcast_to(pe, (count,))
        ret = np.broadcast_to(ret, (count,))
        temp = np.broadcast_to(temp, (count,))
        shift_mv = np.broadcast_to(shift_mv, (count,))
        if variation is None:
            variation = VariationArrays.nominal(count)
        elif len(variation) == 1 and count > 1:
            variation = VariationArrays(
                shift=np.broadcast_to(variation.shift, (count,)),
                sigma=np.broadcast_to(variation.sigma, (count,)),
                timing=np.broadcast_to(variation.timing, (count,)),
            )
        if len(variation) != count:
            raise ValueError(
                f"variation arrays of length {len(variation)} do not broadcast to {count} items"
            )

        result = np.empty(count)
        item_keys = [
            (int(p), float(r), float(t), float(s)) for p, r, t, s in zip(pe, ret, temp, shift_mv)
        ]
        groups: Dict[tuple, list] = {}
        for index, key in enumerate(item_keys):
            groups.setdefault(key, []).append(index)
        for (p, r, t, s), indices in groups.items():
            condition = OperatingCondition(pe_cycles=p, retention_months=r, temperature_c=t)
            idx = np.asarray(indices)
            grid = self.expected_errors_grid(
                condition,
                page_type,
                [s],
                variation.take(idx),
                timing_reduction=timing_reduction,
            )
            result[idx] = grid[:, 0]
        return result

    def walk_retry_table(
        self,
        condition: OperatingCondition,
        page_type: PageType,
        variation: VariationArrays,
        table: ReadRetryTable = None,
        timing_reduction: TimingReduction = None,
        retry_timing_reduction: TimingReduction = None,
        capability: int = None,
    ) -> BatchRetryOutcome:
        """Vectorized :meth:`CodewordErrorModel.walk_retry_table`.

        Walks every corner of ``variation`` through the retry table under
        one operating condition; retry-step counts, final errors and
        best-step errors match the scalar walk bit for bit (``-1`` stands
        in for the scalar ``None``).  Only the deterministic expected-value
        walk is vectorized; Poisson-sampled walks stay scalar.
        """
        table = table or ReadRetryTable()
        capability = capability if capability is not None else self._model.ecc_capability
        if retry_timing_reduction is None:
            retry_timing_reduction = timing_reduction
        shifts = _table_shifts(table)
        means, sigmas = self._boundary_parameters(condition, variation)
        temperature_extra = self._model.vth_model.temperature_extra_errors_per_kib(condition)
        initial_extra = self._timing_extra(timing_reduction, condition, variation)
        retry_extra = self._timing_extra(retry_timing_reduction, condition, variation)
        base = self._page_errors(page_type, shifts, means, sigmas, temperature_extra)
        errors = base.copy()
        if initial_extra is not None:
            errors[:, 0] = base[:, 0] + initial_extra
        if retry_extra is not None:
            errors[:, 1:] = base[:, 1:] + retry_extra[:, None]
        return self._walk_from_errors(errors, capability)

    @staticmethod
    def _walk_from_errors(errors: np.ndarray, capability: float) -> BatchRetryOutcome:
        success = errors <= capability
        any_success = success.any(axis=1)
        first = np.argmax(success, axis=1)
        retry_steps = np.where(any_success, first, -1)

        rows = np.arange(errors.shape[0])
        # The scalar walk stops at the first success, so its running best
        # only covers the attempted prefix; failed walks attempt everything.
        stop = np.where(any_success, first, errors.shape[1] - 1)
        running_best = np.minimum.accumulate(errors, axis=1)
        best = running_best[rows, stop]
        final = np.where(any_success, errors[rows, first], best)
        return BatchRetryOutcome(
            retry_steps=retry_steps,
            final_errors=final,
            best_step_errors=best,
            errors_per_step=errors,
        )

    def near_optimal_step_errors(
        self,
        condition: OperatingCondition,
        page_type: PageType,
        variation: VariationArrays,
        table: ReadRetryTable = None,
        timing_reduction: TimingReduction = None,
    ) -> np.ndarray:
        """Vectorized :meth:`CodewordErrorModel.near_optimal_step_errors`.

        Each corner reads at the retry-table entry closest to its own optimal
        uniform V_REF shift; element ``i`` equals the scalar value of corner
        ``i`` bit for bit.  The optimal shift repeats
        :meth:`ThresholdVoltageModel.optimal_shift_mv`'s operations on the
        rows of :meth:`_boundary_parameters`, and each corner's step comes
        from the table's :meth:`~ReadRetryTable.closest_step`.
        """
        table = table or ReadRetryTable()
        means, sigmas = self._boundary_parameters(condition, variation)
        optimal = self._optimal_shifts(means, sigmas).tolist()
        shifts = np.array([table.shift_for_step(table.closest_step(shift)) for shift in optimal])
        temperature_extra = self._model.vth_model.temperature_extra_errors_per_kib(condition)
        errors = self._page_errors(page_type, shifts[:, None], means, sigmas, temperature_extra)
        timing_extra = self._timing_extra(timing_reduction, condition, variation)
        if timing_extra is not None:
            errors = errors + timing_extra[:, None]
        return errors[:, 0]

    def _optimal_shifts(self, means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Per-corner :meth:`ThresholdVoltageModel.optimal_shift_mv`.

        ``means``/``sigmas`` are rows of :meth:`_boundary_parameters`.  The
        V_OPT of the programmed-state boundaries 1-6 comes from the scalar's
        operations, and the mean over a C-contiguous array's rows sums each
        row as the scalar's 1-D ``np.mean`` does.
        """
        low_means, high_means = means[:, 1:-1], means[:, 2:]
        low_sigmas, high_sigmas = sigmas[:, 1:-1], sigmas[:, 2:]
        optimal = (low_means * high_sigmas + high_means * low_sigmas) / (low_sigmas + high_sigmas)
        return np.mean(optimal - self._default_refs[1:], axis=1)

    def read_behaviour_lattice(
        self,
        condition: OperatingCondition,
        variation: VariationArrays,
        pre_reduction: float,
        page_types: Sequence[PageType] = tuple(PageType),
        table: ReadRetryTable = None,
        capability: int = None,
    ) -> Dict[PageType, BatchReadBehaviour]:
        """The retry grid's read behaviour across a corner lattice.

        For each page type, reproduces for every corner in one pass the
        behaviour :meth:`repro.ssd.retry_grid.RetryStepGrid.behaviour_at`
        walks row by row (:class:`~repro.ssd.retry_grid.RowWalk`) and the
        scalar recipe computes: the default-timing walk, the RPT-reduced
        retry walk (the per-corner timing extra added to the shared step
        errors, exactly the scalar operation order) and the reduced-timing
        fallback flag.  Like the scalar walks, it evaluates a corner's retry
        steps only up to where its walks stop (see
        :meth:`_first_decodable_steps`).
        """
        table = table or ReadRetryTable()
        capability = capability if capability is not None else self._model.ecc_capability
        shifts = _table_shifts(table)
        means, sigmas = self._boundary_parameters(condition, variation)
        temperature_extra = self._model.vth_model.temperature_extra_errors_per_kib(condition)
        timing_extra = None
        if pre_reduction > 0.0:
            reduction = TimingReduction(pre=pre_reduction)
            timing_extra = self._timing_extra(reduction, condition, variation)

        lattice: Dict[PageType, BatchReadBehaviour] = {}
        for page_type in page_types:
            default_first, reduced_first = self._first_decodable_steps(
                page_type, shifts, means, sigmas, temperature_extra, timing_extra, capability
            )
            # A failed default walk charges the whole table (footnote 13).
            default_steps = np.where(default_first >= 0, default_first, table.num_entries)
            if timing_extra is not None:
                needs_reduced = default_steps > 0
                reduced_ok = reduced_first >= 0
                fallback = needs_reduced & ~reduced_ok
                reduced_steps = np.where(needs_reduced & reduced_ok, reduced_first, default_steps)
            else:
                reduced_steps = default_steps.copy()
                fallback = np.zeros(len(variation), dtype=bool)
            lattice[page_type] = BatchReadBehaviour(
                retry_steps=default_steps,
                retry_steps_reduced=reduced_steps,
                reduced_timing_fallback=fallback,
            )
        return lattice

    def _first_decodable_steps(
        self,
        page_type: PageType,
        shifts: np.ndarray,
        means: np.ndarray,
        sigmas: np.ndarray,
        temperature_extra: float,
        timing_extra: Optional[np.ndarray],
        capability: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First decodable step per corner of the default and reduced walks.

        ``-1`` marks a walk that exhausted the table.  The reduced-timing
        walk (only with a ``timing_extra``) starts at retry step 1 and
        matters only where step 0 failed.  The columns are evaluated chunk
        by chunk (:func:`_step_chunks`); a corner leaves the walk once its
        default walk decoded at step 0, or once every walk it needs decoded,
        so a corner's later columns are never computed.
        """
        count = len(means)
        default_first = np.full(count, -1, dtype=np.int64)
        reduced_first = np.full(count, -1, dtype=np.int64)
        walking = np.arange(count)
        for start, stop in _step_chunks(len(shifts)):
            errors = self._page_errors(
                page_type, shifts[start:stop], means[walking], sigmas[walking], temperature_extra
            )
            _record_first(default_first, walking, errors <= capability, start)
            default = default_first[walking]
            keep = default < 0
            if timing_extra is not None:
                # The reduced-timing walk starts at retry step 1, which is
                # where the second chunk starts.
                if start:
                    reduced = errors + timing_extra[walking, None]
                    _record_first(reduced_first, walking, reduced <= capability, start)
                keep |= (default > 0) & (reduced_first[walking] < 0)
            walking = walking[keep]
            if not walking.size:
                break
        return default_first, reduced_first
