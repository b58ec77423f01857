"""Print the default RPT, freshly profiled, in the format ``core/rpt.py`` ships.

The simulator reads its default Read-timing Parameter Table from
:data:`repro.core.rpt.DEFAULT_RPT_PROFILE` and never profiles it.  After a
change to the error model, its calibration or the profiler
(``repro.characterization.rpt_builder``), regenerate the data from the
repository root::

    PYTHONPATH=src python scripts/generate_default_rpt.py

and replace the ``DEFAULT_RPT_PROFILE = (...)`` assignment in
``src/repro/core/rpt.py`` with its output.  ``--check`` prints nothing and
exits 0 when the shipped table equals a fresh ``build_rpt()`` (bin edges,
default timing and every entry, compared with ``==``), and otherwise names
what differs and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.characterization.rpt_builder import build_rpt
from repro.core.rpt import ReadTimingParameterTable

REGENERATE = "PYTHONPATH=src python scripts/generate_default_rpt.py"


def render(rpt: ReadTimingParameterTable) -> str:
    """``rpt`` as the ``DEFAULT_RPT_PROFILE`` assignment of ``core/rpt.py``."""
    entries = dict(rpt.iter_entries())
    lines = ["DEFAULT_RPT_PROFILE = ("]
    for pec_bin, pec_edge in enumerate(rpt.pec_bin_edges):
        lines.append(f"    # P/E cycles up to {pec_edge}")
        lines.append("    (")
        for retention_bin, months in enumerate(rpt.retention_bin_edges_months):
            entry = entries[(pec_bin, retention_bin)]
            label = "retention up to " if retention_bin == 0 else ""
            lines.append(
                f"        ({entry.pre_reduction!r}, {entry.margin_bits!r}),"
                f"  # {label}{months:g} months"
            )
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def differences(shipped: ReadTimingParameterTable, fresh: ReadTimingParameterTable) -> List[str]:
    """Every way the shipped table differs from a fresh profile, one line each."""
    found = []
    for name in ("pec_bin_edges", "retention_bin_edges_months", "default_timing"):
        ours, theirs = getattr(shipped, name), getattr(fresh, name)
        if ours != theirs:
            found.append(f"{name}: shipped {ours}, profiled {theirs}")
    fresh_entries = dict(fresh.iter_entries())
    for key, entry in shipped.iter_entries():
        if fresh_entries.get(key) != entry:
            found.append(f"bin {key}: shipped {entry}, profiled {fresh_entries.get(key)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the shipped table differs from a fresh profile",
    )
    args = parser.parse_args(argv)
    profiled = build_rpt()
    if not args.check:
        print(render(profiled))
        return 0
    found = differences(ReadTimingParameterTable.default(), profiled)
    for line in found:
        print(line)
    if found:
        print(f"the shipped default RPT is stale; regenerate it with {REGENERATE}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
