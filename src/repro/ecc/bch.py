"""Binary BCH codes over GF(2^m).

A from-scratch implementation of the Bose–Chaudhuri–Hocquenghem codes that
SSD controllers have used for NAND flash error correction (Section 2.4).
The implementation covers the full pipeline:

* GF(2^m) arithmetic with exponential/log tables,
* generator-polynomial construction from the minimal polynomials of the
  first ``2t`` powers of the primitive element,
* systematic encoding by polynomial division,
* decoding with syndrome computation, the Berlekamp–Massey algorithm and a
  Chien search.

The test-suite and the chip-level example use it to validate the
bounded-distance "capability" rule the simulator applies for speed: a
codeword decodes iff it holds at most ``t`` raw bit errors
(:attr:`repro.errors.rber.CodewordErrorModel.ecc_capability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: Primitive polynomials (as bit masks, LSB = x^0) for GF(2^m), m = 3 .. 14.
_PRIMITIVE_POLYNOMIALS = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
}


class GaloisField:
    """GF(2^m) arithmetic backed by exp/log tables."""

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLYNOMIALS:
            raise ValueError(f"unsupported field order 2^{m}")
        self.m = m
        self.size = 1 << m
        self.order = self.size - 1
        self._exp = [0] * (2 * self.order)
        self._log = [0] * self.size
        poly = _PRIMITIVE_POLYNOMIALS[m]
        value = 1
        for power in range(self.order):
            self._exp[power] = value
            self._log[value] = power
            value <<= 1
            if value & self.size:
                value ^= poly
        # Duplicate the table so products of logs never need a modulo.
        for power in range(self.order, 2 * self.order):
            self._exp[power] = self._exp[power - self.order]

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def multiply(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def divide(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % self.order]

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return self._exp[self.order - self._log[a]]

    def power(self, a: int, exponent: int) -> int:
        if a == 0:
            return 0 if exponent > 0 else 1
        return self._exp[(self._log[a] * exponent) % self.order]

    def alpha_power(self, exponent: int) -> int:
        """alpha^exponent for the primitive element alpha."""
        return self._exp[exponent % self.order]

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("log of zero is undefined")
        return self._log[a]

    # -- polynomial helpers (coefficients low-degree first) --------------------
    def poly_multiply(self, p: Sequence[int], q: Sequence[int]) -> List[int]:
        result = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a == 0:
                continue
            for j, b in enumerate(q):
                if b:
                    result[i + j] ^= self.multiply(a, b)
        return result

    def poly_evaluate(self, p: Sequence[int], x: int) -> int:
        result = 0
        for coefficient in reversed(p):
            result = self.multiply(result, x) ^ coefficient
        return result


def _minimal_polynomial(field: GaloisField, element_log: int) -> List[int]:
    """Minimal polynomial (over GF(2)) of alpha^element_log."""
    # Collect the conjugacy class {alpha^(e*2^k)}.
    conjugates = set()
    exponent = element_log % field.order
    while exponent not in conjugates:
        conjugates.add(exponent)
        exponent = (exponent * 2) % field.order
    poly = [1]
    for exponent in sorted(conjugates):
        root = field.alpha_power(exponent)
        poly = field.poly_multiply(poly, [root, 1])
    # The product of (x - conjugates) has coefficients in GF(2).
    return [coefficient & 1 for coefficient in poly]


def _poly_mod2_multiply(p: Sequence[int], q: Sequence[int]) -> List[int]:
    result = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    result[i + j] ^= 1
    return result


@dataclass(frozen=True)
class BchDecodeResult:
    """Result of decoding one BCH codeword."""

    success: bool
    corrected_positions: Tuple[int, ...]
    codeword: np.ndarray

    @property
    def corrected_bits(self) -> int:
        return len(self.corrected_positions)


class BchCode:
    """A binary primitive BCH code of length ``2^m - 1`` correcting ``t`` errors.

    :param m: Galois-field degree; the code length is ``2^m - 1``.
    :param t: designed error-correction capability.

    The code is systematic: :meth:`encode` appends ``n - k`` parity bits to
    the message.
    """

    def __init__(self, m: int = 8, t: int = 8):
        if t < 1:
            raise ValueError("t must be at least 1")
        self.field = GaloisField(m)
        self.n = self.field.order
        self.t = t
        self.generator = self._build_generator()
        self.n_parity = len(self.generator) - 1
        self.k = self.n - self.n_parity
        if self.k <= 0:
            raise ValueError(
                f"BCH(m={m}, t={t}) has no payload (parity {self.n_parity} >= "
                f"length {self.n}); use a smaller t or larger m")

    def _build_generator(self) -> List[int]:
        generator = [1]
        seen = set()
        for i in range(1, 2 * self.t + 1):
            exponent = i % self.field.order
            # Skip exponents whose conjugacy class was already included.
            conjugate = exponent
            duplicate = False
            while True:
                if conjugate in seen:
                    duplicate = True
                    break
                seen.add(conjugate)
                conjugate = (conjugate * 2) % self.field.order
                if conjugate == exponent:
                    break
            if duplicate:
                continue
            generator = _poly_mod2_multiply(
                generator, _minimal_polynomial(self.field, exponent))
        return generator

    # -- encode ---------------------------------------------------------------
    def encode(self, message: Iterable[int]) -> np.ndarray:
        """Encode ``k`` message bits into an ``n``-bit systematic codeword."""
        message = np.asarray(list(message), dtype=np.uint8)
        if message.size != self.k:
            raise ValueError(f"message must have {self.k} bits, got {message.size}")
        if np.any(message > 1):
            raise ValueError("message must be binary")
        # Polynomial view: codeword(x) = message(x) * x^(n-k) + remainder(x).
        register = np.zeros(self.n_parity, dtype=np.uint8)
        generator = np.asarray(self.generator[:-1], dtype=np.uint8)
        for bit in message[::-1]:
            feedback = bit ^ register[-1]
            register[1:] = register[:-1]
            register[0] = 0
            if feedback:
                register ^= generator
        return np.concatenate([register, message]).astype(np.uint8)

    # -- decode ---------------------------------------------------------------
    def decode(self, received: Iterable[int]) -> BchDecodeResult:
        """Decode an ``n``-bit word, correcting up to ``t`` bit errors."""
        received = np.asarray(list(received), dtype=np.uint8).copy()
        if received.size != self.n:
            raise ValueError(f"codeword must have {self.n} bits, got {received.size}")
        syndromes = self._syndromes(received)
        if not any(syndromes):
            return BchDecodeResult(True, (), received)
        locator = self._berlekamp_massey(syndromes)
        error_positions = self._chien_search(locator)
        if error_positions is None or len(error_positions) != len(locator) - 1:
            return BchDecodeResult(False, (), received)
        corrected = received.copy()
        for position in error_positions:
            corrected[position] ^= 1
        if any(self._syndromes(corrected)):
            return BchDecodeResult(False, (), received)
        return BchDecodeResult(True, tuple(sorted(error_positions)), corrected)

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        """Recover the ``k`` message bits from a (corrected) codeword."""
        codeword = np.asarray(codeword, dtype=np.uint8)
        return codeword[self.n_parity:]

    # -- decoding internals -----------------------------------------------------
    def _syndromes(self, received: np.ndarray) -> List[int]:
        positions = np.flatnonzero(received)
        syndromes = []
        for i in range(1, 2 * self.t + 1):
            value = 0
            for position in positions:
                value ^= self.field.alpha_power(int(position) * i)
            syndromes.append(value)
        return syndromes

    def _berlekamp_massey(self, syndromes: List[int]) -> List[int]:
        field = self.field
        locator = [1]
        previous = [1]
        shift = 1
        previous_discrepancy = 1
        for step, syndrome in enumerate(syndromes):
            discrepancy = syndrome
            for i in range(1, len(locator)):
                if i <= step:
                    discrepancy ^= field.multiply(locator[i], syndromes[step - i])
            if discrepancy == 0:
                shift += 1
                continue
            scale = field.divide(discrepancy, previous_discrepancy)
            candidate = locator[:]
            shifted = [0] * shift + [field.multiply(scale, c) for c in previous]
            length = max(len(candidate), len(shifted))
            candidate += [0] * (length - len(candidate))
            shifted += [0] * (length - len(shifted))
            updated = [a ^ b for a, b in zip(candidate, shifted)]
            if 2 * (len(locator) - 1) <= step:
                previous = locator
                previous_discrepancy = discrepancy
                shift = 1
            else:
                shift += 1
            locator = updated
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        return locator

    def _chien_search(self, locator: List[int]):
        degree = len(locator) - 1
        if degree == 0:
            return []
        if degree > self.t:
            return None
        positions = []
        field = self.field
        for position in range(self.n):
            # A position p is in error iff alpha^{-p} is a root of the locator.
            x = field.alpha_power(-position % field.order)
            if field.poly_evaluate(locator, x) == 0:
                positions.append(position)
        return positions

    # -- convenience -------------------------------------------------------------
    def correct_random_errors(self, message: Iterable[int], num_errors: int,
                              rng: np.random.Generator) -> BchDecodeResult:
        """Encode, inject ``num_errors`` random bit flips, and decode."""
        if num_errors < 0:
            raise ValueError("num_errors must be non-negative")
        codeword = self.encode(message)
        corrupted = codeword.copy()
        if num_errors:
            positions = rng.choice(self.n, size=min(num_errors, self.n),
                                   replace=False)
            corrupted[positions] ^= 1
        return self.decode(corrupted)
