"""Capability-model ECC engine.

The SSD controller of the paper's simulated SSD decodes one 1-KiB codeword
in ``tECC`` = 20 us and corrects up to 72 raw bit errors (Section 7.1).  For
system-level studies the only properties that matter are the *capability*
(how many errors are correctable) and the *latency*; this module provides
that abstraction, which both the characterization harness and the SSD
simulator consume.  The real BCH codec in :mod:`repro.ecc.bch`
demonstrates that the abstraction matches bounded-distance decoding
behaviour.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors.calibration import ECC_CALIBRATION, EccCalibration


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one codeword."""

    success: bool
    raw_bit_errors: int
    corrected_bits: int
    latency_us: float

    @property
    def uncorrectable(self) -> bool:
        return not self.success


class EccEngine(abc.ABC):
    """Interface of an ECC engine attached to one SSD channel."""

    @property
    @abc.abstractmethod
    def capability_bits(self) -> int:
        """Maximum number of correctable raw bit errors per codeword."""

    @property
    @abc.abstractmethod
    def decode_latency_us(self) -> float:
        """Latency of decoding one codeword."""

    @abc.abstractmethod
    def decode(self, raw_bit_errors: int) -> DecodeOutcome:
        """Attempt to decode a codeword containing ``raw_bit_errors`` errors."""

    def margin(self, raw_bit_errors: int) -> int:
        """ECC-capability margin for a codeword (Section 3.2.2, footnote 5)."""
        return self.capability_bits - raw_bit_errors

    def decode_page(self, codeword_errors) -> DecodeOutcome:
        """Decode a whole page given the error count of each codeword.

        A page read fails if *any* codeword is uncorrectable; the reported
        error count is the worst codeword's and the latency accounts for the
        pipelined decode of all codewords (the engine decodes codewords
        back-to-back while the next page is being sensed, so the page-level
        contribution to the critical path stays one ``tECC``, as the paper's
        latency equations assume).
        """
        errors = list(codeword_errors)
        if not errors:
            raise ValueError("decode_page needs at least one codeword")
        worst = max(errors)
        outcome = self.decode(worst)
        corrected = sum(e for e in errors if e <= self.capability_bits)
        return DecodeOutcome(success=outcome.success, raw_bit_errors=worst,
                             corrected_bits=corrected,
                             latency_us=self.decode_latency_us)


class CapabilityEccEngine(EccEngine):
    """A bounded-distance ECC engine characterized by (capability, latency).

    :param capability_bits: correctable bits per codeword (72 by default).
    :param decode_latency_us: decode latency per codeword (20 us by default).
    """

    def __init__(self, capability_bits: int = None,
                 decode_latency_us: float = None,
                 calibration: EccCalibration = ECC_CALIBRATION):
        self._capability = (capability_bits if capability_bits is not None
                            else calibration.capability_bits)
        self._latency = (decode_latency_us if decode_latency_us is not None
                         else calibration.decode_latency_us)
        if self._capability <= 0:
            raise ValueError("capability_bits must be positive")
        if self._latency < 0:
            raise ValueError("decode_latency_us must be non-negative")

    @property
    def capability_bits(self) -> int:
        return self._capability

    @property
    def decode_latency_us(self) -> float:
        return self._latency

    def decode(self, raw_bit_errors: int) -> DecodeOutcome:
        if raw_bit_errors < 0:
            raise ValueError("raw_bit_errors must be non-negative")
        success = raw_bit_errors <= self._capability
        return DecodeOutcome(success=success, raw_bit_errors=raw_bit_errors,
                             corrected_bits=raw_bit_errors if success else 0,
                             latency_us=self._latency)
