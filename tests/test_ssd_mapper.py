"""The Mapper contract, exercised the same way on both FTLs.

``SsdSimulator`` builds one mapper from ``SsdConfig.mapping`` and drives it
only through :class:`repro.ssd.ftl.Mapper`; each test here runs once per
mapping.
"""

import pytest

from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.dftl import DftlMapper
from repro.ssd.ftl import FlashTranslationLayer, PageAddressing

MAPPERS = {"block": FlashTranslationLayer, "page": DftlMapper}
#: LPNs 0..FILL-1 hold preconditioned cold data.
FILL = 64


@pytest.fixture(params=sorted(MAPPERS))
def mapping(request):
    return request.param


def _mapper(mapping):
    mapper = MAPPERS[mapping](SsdConfig.tiny(mapping=mapping))
    mapper.precondition_fill(FILL, retention_months=6.0, pe_cycles=1000)
    return mapper


def test_simulator_builds_the_configured_mapper(mapping):
    simulator = SsdSimulator(SsdConfig.tiny(mapping=mapping))
    assert type(simulator.mapper) is MAPPERS[mapping]
    for attribute in ("ftl", "dftl", "gc"):
        assert not hasattr(simulator, attribute)


def test_read_of_unwritten_lpn_maps_cold_data(mapping):
    mapper = _mapper(mapping)
    assert not mapper.is_mapped(FILL)
    physical, _ = mapper.read_target(FILL, now_us=0.0)
    assert mapper.is_mapped(FILL)
    assert mapper.read_condition(physical, now_us=0.0) == (1000, 6.0)


def test_program_maps_fresh_data(mapping):
    mapper = _mapper(mapping)
    physical, _ = mapper.program(3, now_us=0.0)
    assert mapper.read_target(3, now_us=0.0)[0] == physical
    assert mapper.read_condition(physical, now_us=0.0) == (1000, 0.0)


def test_packed_reads_agree_with_the_physical_page_view(mapping):
    # Mapped and never-written LPNs: the read path's packed entry points
    # and the PhysicalPage adapters over them name the same page and
    # condition.
    mapper = _mapper(mapping)
    addressing = PageAddressing(mapper.config)
    for lpn in (0, 5, FILL, FILL + 3):
        packed, _ = mapper.read_target_packed(lpn, now_us=0.0)
        physical, _ = mapper.read_target(lpn, now_us=0.0)
        assert addressing.unpack(packed) == physical
        assert (mapper.read_condition_packed(packed, now_us=0.0)
                == mapper.read_condition(physical, now_us=0.0))


def test_trim_unmaps_once(mapping):
    mapper = _mapper(mapping)
    assert mapper.is_mapped(5)
    mapper.trim(5, now_us=0.0)
    assert not mapper.is_mapped(5)
    assert list(mapper.trim(5, now_us=0.0)) == []


def test_read_translation_traffic_matches_the_declared_flag(mapping):
    # Block mode keeps its table in DRAM; the DFTL's cold cache misses and
    # fetches the translation page.
    mapper = _mapper(mapping)
    _, ops = mapper.read_target(0, now_us=0.0)
    assert bool(ops) == mapper.reads_need_translation
    assert mapper.cmt_misses == (1 if mapper.reads_need_translation else 0)


def test_out_of_range_lpns_raise(mapping):
    # Flat per-LPN tables would read their tail for a negative index; every
    # entry point refuses LPNs outside [0, logical_pages) instead.
    mapper = _mapper(mapping)
    logical_pages = mapper.config.logical_pages
    entry_points = {
        "read_target": lambda lpn: mapper.read_target(lpn, now_us=0.0),
        "read_target_packed": lambda lpn: mapper.read_target_packed(lpn, now_us=0.0),
        "program": lambda lpn: mapper.program(lpn, now_us=0.0),
        "trim": lambda lpn: mapper.trim(lpn, now_us=0.0),
        "is_mapped": mapper.is_mapped,
    }
    if mapping == "block":
        entry_points["lookup"] = mapper.lookup
    for lpn in (-1, -logical_pages, logical_pages, logical_pages + 7):
        for name, call in entry_points.items():
            with pytest.raises(ValueError, match=rf"LPN {lpn} .*{logical_pages}\)"):
                call(lpn)
    assert mapper.mapped_pages == FILL
    assert mapper.is_mapped(logical_pages - 1) is False
    assert mapper.is_mapped(0)
