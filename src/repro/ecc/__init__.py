"""Error-correcting-code substrate.

Modern SSDs protect every 1-KiB codeword with a strong ECC (BCH or LDPC) able to
correct several tens of raw bit errors (Section 2.4 of the paper; the
simulated SSD uses 72 bits per 1-KiB codeword with a 20 us decode latency).

The simulator and the characterization harness treat ECC as the paper does,
as a fixed capability: a codeword decodes iff its raw bit error count is at
most :attr:`repro.errors.rber.CodewordErrorModel.ecc_capability`, which
:class:`repro.errors.calibration.EccCalibration` sets.  Neither imports this
package.

:class:`repro.ecc.bch.BchCode` is a real binary BCH encoder/decoder over
GF(2^m) (syndrome computation, Berlekamp–Massey, Chien search).  The unit
tests and the chip-level example use it to show that the capability rule is
faithful for bounded-distance decoding.
"""

from repro.ecc.bch import BchCode

__all__ = ["BchCode"]
