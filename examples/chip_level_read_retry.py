#!/usr/bin/env python3
"""Chip-level walk-through of a read-retry operation and of AR2's mechanism.

This example drives the behavioural NAND chip model directly, the way the
paper's FPGA test platform drives real chips:

1. program a page, then age it (P/E cycling + accelerated retention),
2. read it with the default read-reference voltages and watch ECC fail,
3. walk the manufacturer read-retry table until the page decodes,
4. install a reduced tPRE with SET FEATURE (AR2) and repeat, comparing the
   total sensing latency,
5. show with the real BCH codec why the final step's error count is easily
   correctable while earlier steps are not.

Usage::

    python examples/chip_level_read_retry.py
"""

import numpy as np

from repro.core.rpt import ReadTimingParameterTable
from repro.ecc import BchCode
from repro.nand.chip import NandChip
from repro.nand.geometry import ChipGeometry


def main() -> None:
    chip = NandChip(geometry=ChipGeometry.small(), codewords_per_read=4,
                    temperature_c=30.0, seed=1)
    address = chip.geometry.make_address(die=0, plane=0, block=2, page=4)
    print(f"Target page: {address} (N_SENSE={address.page_type.n_sense})")

    # --- age the block the way the test platform does -----------------------
    chip.set_block_condition(address, pe_cycles=2000, retention_months=12.0,
                             programmed=True)
    condition = chip.condition_for(address)
    print(f"Operating condition: {condition.label()}\n")

    # --- a regular read: initial attempt fails, retry steps follow ----------
    result = chip.read_with_retry(address)
    default_tr = chip.timing.read.sensing_latency_us(address.page_type)
    print("Regular read-retry operation:")
    print(f"  retry steps           : {result.retry_steps}")
    print(f"  worst codeword errors : {result.final_errors} "
          f"(ECC capability {chip.ecc_capability})")
    print(f"  total sensing latency : {result.total_sensing_latency_us:.0f} us "
          f"({result.retry_steps + 1} x tR = {default_tr:.0f} us)\n")

    # --- AR2: install the RPT-prescribed reduced tPRE for the retry steps ----
    rpt = ReadTimingParameterTable.default()
    entry = rpt.entry_for(condition.pe_cycles, condition.retention_months)
    reduced = rpt.reduced_timing_for(condition.pe_cycles,
                                     condition.retention_months)
    print(f"AR2 consults the RPT: tPRE {chip.timing.read.t_pre_us:.0f} us -> "
          f"{entry.t_pre_us:.2f} us ({entry.pre_reduction:.0%} reduction)")
    chip.set_feature(reduced)
    ar2_result = chip.read_with_retry(address)
    chip.set_feature()  # roll back, as AR2 does after the retry operation
    print("Read-retry with reduced tPRE (AR2):")
    print(f"  retry steps           : {ar2_result.retry_steps}")
    print(f"  worst codeword errors : {ar2_result.final_errors}")
    print(f"  total sensing latency : {ar2_result.total_sensing_latency_us:.0f} us")
    saved = result.total_sensing_latency_us - ar2_result.total_sensing_latency_us
    print(f"  sensing latency saved : {saved:.0f} us "
          f"({saved / result.total_sensing_latency_us:.0%})\n")

    # --- why the margin exists: decode the final step with a real BCH code ---
    print("ECC view of the final retry step (BCH(255, k, t=8) scaled down by "
          "the same capability-to-errors ratio):")
    code = BchCode(m=8, t=8)
    rng = np.random.default_rng(0)
    scale = code.t / chip.ecc_capability
    for label, errors in (("one step before the final", 3 * chip.ecc_capability),
                          ("final retry step", ar2_result.final_errors)):
        scaled_errors = int(round(errors * scale))
        outcome = code.correct_random_errors(rng.integers(0, 2, code.k),
                                             scaled_errors, rng)
        verdict = "decodes" if outcome.success else "fails"
        print(f"  {label:<28}: {errors:>4} errors/KiB "
              f"(~{scaled_errors} per scaled codeword) -> {verdict}")


if __name__ == "__main__":
    main()
