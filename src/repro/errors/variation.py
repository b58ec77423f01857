"""Process variation across chips, blocks and wordlines.

The paper's characterization spans 160 chips and 120 randomly selected
blocks per chip precisely because NAND flash behaviour varies with process
corner, physical block location and wordline (layer) position.  The models
in :mod:`repro.errors.rber` and :mod:`repro.errors.timing` take a
:class:`VariationSample` describing the multiplicative deviation of a
particular (chip, block, wordline) from the population mean.

Samples are generated deterministically from the identifiers via a hashed
counter-based RNG, so that re-reading the same wordline always sees the same
"silicon" without the caller having to store per-page state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors.calibration import VARIATION_CALIBRATION, VariationCalibration


@dataclass(frozen=True)
class VariationSample:
    """Multiplicative deviations of one wordline from the population mean.

    * ``shift_multiplier`` scales the retention-induced V_TH shift (a value
      above 1 means the wordline ages faster and needs more retry steps).
    * ``sigma_multiplier`` scales the V_TH distribution width (more raw bit
      errors at the optimal read voltage).
    * ``timing_multiplier`` scales the population of slow bitlines (more
      additional errors when read-timing parameters are reduced).
    """

    shift_multiplier: float = 1.0
    sigma_multiplier: float = 1.0
    timing_multiplier: float = 1.0

    def __post_init__(self) -> None:
        for name in ("shift_multiplier", "sigma_multiplier",
                     "timing_multiplier"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def nominal(cls) -> "VariationSample":
        """The population-mean wordline (no variation)."""
        return cls()


class ProcessVariation:
    """Deterministic generator of :class:`VariationSample` objects.

    :param seed: global seed; two generators with the same seed produce the
        same silicon population.
    :param calibration: variation magnitudes (defaults to the paper-fitted
        :data:`repro.errors.calibration.VARIATION_CALIBRATION`).
    """

    def __init__(self, seed: int = 0,
                 calibration: VariationCalibration = VARIATION_CALIBRATION):
        self._seed = int(seed)
        self._calibration = calibration
        self._cache = {}
        # Chip-level draws are shared by every block of a chip; caching them
        # avoids re-seeding an RNG per block when a whole lattice is
        # enumerated (there are only a handful of chips, so this stays tiny).
        self._chip_draws = {}

    @property
    def seed(self) -> int:
        return self._seed

    def sample(self, chip: int = 0, block: int = 0,
               wordline: int = 0) -> VariationSample:
        """Variation of a particular wordline (deterministic in its address)."""
        key = (chip, block, wordline)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        cal = self._calibration
        chip_draws = self._chip_draws.get(chip)
        if chip_draws is None:
            chip_draws = self._draws(("chip", chip), 3)
            self._chip_draws[chip] = chip_draws
        block_draws = self._draws(("block", chip, block), 3)
        wl_draws = self._draws(("wl", chip, block, wordline), 2)

        shift = np.exp(chip_draws[0] * cal.chip_shift_sigma
                       + block_draws[0] * cal.block_shift_sigma
                       + wl_draws[0] * cal.wordline_shift_sigma)
        sigma = np.exp(chip_draws[1] * cal.chip_sigma_sigma
                       + block_draws[1] * cal.block_sigma_sigma
                       + wl_draws[1] * cal.wordline_sigma_sigma)
        timing = np.exp(chip_draws[2] * cal.chip_timing_sigma
                        + block_draws[2] * cal.block_timing_sigma)
        sample = VariationSample(shift_multiplier=float(shift),
                                 sigma_multiplier=float(sigma),
                                 timing_multiplier=float(timing))
        if len(self._cache) < 200_000:
            self._cache[key] = sample
        return sample

    def block_sample(self, chip: int, block: int) -> VariationSample:
        """Variation averaged over a block (used by the SSD retry grid)."""
        return self.sample(chip=chip, block=block, wordline=0)

    # -- internals -----------------------------------------------------------
    _KIND_CODES = {"chip": 1, "block": 2, "wl": 3}

    def _draws(self, key: tuple, count: int) -> np.ndarray:
        """Standard-normal draws tied deterministically to ``key``.

        The key is converted to integers only (no Python string hashing, which
        is salted per process), so the generated silicon population is stable
        across runs and interpreters.
        """
        kind, *indices = key
        spawn_key = (self._KIND_CODES[kind],) + tuple(int(i) for i in indices)
        generator = np.random.default_rng(
            np.random.SeedSequence(entropy=self._seed, spawn_key=spawn_key))
        return generator.standard_normal(count)
