"""Table 2 of the paper: the twelve evaluated workloads.

Each entry records the workload's suite, read ratio and cold ratio exactly as
listed in Table 2, plus the generator preset used to synthesize an
equivalent request stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workloads.msrc import msrc_shape
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.ycsb import ycsb_shape


@dataclass(frozen=True)
class WorkloadSpec:
    """One row of Table 2."""

    name: str
    suite: str  # "MSRC" or "YCSB"
    read_ratio: float
    cold_ratio: float
    scan_heavy: bool = False

    def __post_init__(self) -> None:
        if self.suite not in ("MSRC", "YCSB"):
            raise ValueError("suite must be 'MSRC' or 'YCSB'")
        for name in ("read_ratio", "cold_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def read_dominant(self) -> bool:
        """The paper calls workloads with read ratio >= 0.75 read-dominant."""
        return self.read_ratio >= 0.75

    def build(
        self,
        footprint_pages: int,
        seed: int = 0,
        mean_interarrival_us: Optional[float] = None,
        num_requests: Optional[int] = None,
    ) -> SyntheticWorkload:
        """Instantiate the synthetic generator for this workload."""
        # Omitting the kwarg (rather than passing None) lets each suite
        # preset keep its own default arrival rate.
        kwargs = {}
        if mean_interarrival_us is not None:
            kwargs["mean_interarrival_us"] = mean_interarrival_us
        if self.suite == "MSRC":
            shape = msrc_shape(self.read_ratio, self.cold_ratio, **kwargs)
        else:
            shape = ycsb_shape(
                self.read_ratio, self.cold_ratio, scan_heavy=self.scan_heavy, **kwargs
            )
        return SyntheticWorkload(
            shape, footprint_pages=footprint_pages, seed=seed, num_requests=num_requests
        )


#: Table 2, in the order the paper lists the workloads.
WORKLOAD_CATALOG: Dict[str, WorkloadSpec] = {
    "stg_0": WorkloadSpec("stg_0", "MSRC", read_ratio=0.15, cold_ratio=0.38),
    "hm_0": WorkloadSpec("hm_0", "MSRC", read_ratio=0.36, cold_ratio=0.22),
    "prn_1": WorkloadSpec("prn_1", "MSRC", read_ratio=0.75, cold_ratio=0.72),
    "proj_1": WorkloadSpec("proj_1", "MSRC", read_ratio=0.89, cold_ratio=0.96),
    "mds_1": WorkloadSpec("mds_1", "MSRC", read_ratio=0.92, cold_ratio=0.98),
    "usr_1": WorkloadSpec("usr_1", "MSRC", read_ratio=0.96, cold_ratio=0.73),
    "YCSB-A": WorkloadSpec("YCSB-A", "YCSB", read_ratio=0.98, cold_ratio=0.72),
    "YCSB-B": WorkloadSpec("YCSB-B", "YCSB", read_ratio=0.99, cold_ratio=0.59),
    "YCSB-C": WorkloadSpec("YCSB-C", "YCSB", read_ratio=0.99, cold_ratio=0.60),
    "YCSB-D": WorkloadSpec("YCSB-D", "YCSB", read_ratio=0.98, cold_ratio=0.58),
    "YCSB-E": WorkloadSpec("YCSB-E", "YCSB", read_ratio=0.99, cold_ratio=0.98, scan_heavy=True),
    "YCSB-F": WorkloadSpec("YCSB-F", "YCSB", read_ratio=0.98, cold_ratio=0.87),
}

#: The paper splits Figure 14/15 into write-dominant and read-dominant groups.
WRITE_DOMINANT_WORKLOADS: Tuple[str, ...] = ("stg_0", "hm_0")
READ_DOMINANT_WORKLOADS: Tuple[str, ...] = tuple(
    name for name in WORKLOAD_CATALOG if name not in WRITE_DOMINANT_WORKLOADS
)


def workload_names() -> List[str]:
    """The twelve workload names in Table 2 order."""
    return list(WORKLOAD_CATALOG)


def catalog_workload(
    name: str,
    footprint_pages: int,
    seed: int = 0,
    mean_interarrival_us: Optional[float] = None,
    num_requests: Optional[int] = None,
) -> SyntheticWorkload:
    """The named Table 2 workload as a ready ``SyntheticWorkload`` source."""
    if name not in WORKLOAD_CATALOG:
        raise KeyError(f"unknown workload {name!r}; available: {workload_names()}")
    return WORKLOAD_CATALOG[name].build(
        footprint_pages,
        seed=seed,
        mean_interarrival_us=mean_interarrival_us,
        num_requests=num_requests,
    )


def table2_rows() -> List[dict]:
    """Table 2 rendered as printable rows."""
    return [
        {
            "workload": spec.name,
            "suite": spec.suite,
            "read_ratio": spec.read_ratio,
            "cold_ratio": spec.cold_ratio,
            "class": "read-dominant" if spec.read_dominant else "write-dominant",
        }
        for spec in WORKLOAD_CATALOG.values()
    ]
