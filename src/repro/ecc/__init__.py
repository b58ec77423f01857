"""Error-correcting-code substrate.

Modern SSDs protect every 1-KiB codeword with a strong ECC (BCH or LDPC) able to
correct several tens of raw bit errors (Section 2.4 of the paper; the
simulated SSD uses 72 bits per 1-KiB codeword with a 20 us decode latency).

Two engines are provided:

* :class:`repro.ecc.engine.CapabilityEccEngine` — the abstraction the SSD
  simulator and the characterization harness use: a codeword decodes iff its
  raw bit error count is at most the configured capability.  This mirrors
  how the paper itself treats ECC.
* :class:`repro.ecc.bch.BchCode` — a real binary BCH encoder/decoder over
  GF(2^m) (syndrome computation, Berlekamp–Massey, Chien search), used by
  the unit tests and examples to demonstrate that the capability abstraction
  is faithful for bounded-distance decoding.
"""

from repro.ecc.engine import CapabilityEccEngine, DecodeOutcome, EccEngine
from repro.ecc.bch import BchCode
from repro.ecc.codeword import PageLayout

__all__ = [
    "EccEngine",
    "CapabilityEccEngine",
    "DecodeOutcome",
    "BchCode",
    "PageLayout",
]
