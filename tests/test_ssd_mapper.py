"""The Mapper contract, exercised the same way on both FTLs.

``SsdSimulator`` builds one mapper from ``SsdConfig.mapping`` and drives it
only through :class:`repro.ssd.ftl.Mapper`; each test here runs once per
mapping.
"""

import ast
import gc
import pathlib
import random
import weakref

import pytest

from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.dftl import DftlMapper
from repro.ssd.ftl import FlashTranslationLayer, PageAddressing, PhysicalPage
from repro.ssd.request import TransactionKind

SSD = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "ssd"

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
    packed, _ = mapper.read_target_packed(FILL, now_us=0.0)
    assert mapper.is_mapped(FILL)
    assert mapper.read_condition_packed(packed, now_us=0.0) == (1000, 6.0)


def test_program_maps_fresh_data(mapping):
    mapper = _mapper(mapping)
    packed, _ = mapper.program(3, now_us=0.0)
    assert mapper.read_target_packed(3, now_us=0.0)[0] == packed
    assert mapper.read_condition_packed(packed, now_us=0.0) == (1000, 0.0)


def _collect_with_relocations(mapper):
    """Write seeded-random LPNs over half the logical space, collecting
    after each write, until a collection relocates pages; the OOB LPNs of
    every page just before that collection, and its GC records."""
    rng = random.Random(7)
    for _ in range(20000):
        mapper.program(rng.randrange(mapper.config.logical_pages // 2), now_us=0.0)
        before = [[list(block.page_lpns) for block in plane.blocks] for plane in mapper.planes]
        operations = mapper.collect_if_needed(now_us=0.0)
        if any(operation.relocated_pages for operation in operations):
            return before, operations
    raise AssertionError("no collection relocated a page")


def test_packed_gc_records_agree_with_the_physical_page_view(mapping):
    # Every page of a GC record is a packed index: the erase target is the
    # victim's first page, each relocation a page of the victim, and each
    # destination a page of the same plane that now holds what the
    # relocated page held.
    mapper = _mapper(mapping)
    addressing = PageAddressing(mapper.config)
    before, operations = _collect_with_relocations(mapper)
    for operation in operations:
        plane = mapper.planes[operation.plane_index]
        where = (plane.channel, plane.die, plane.plane)
        victim = operation.victim_block
        assert addressing.unpack(operation.erase_target) == PhysicalPage(*where, victim, 0)
        assert len(operation.destinations) == operation.relocated_pages
        for source, destination in zip(operation.relocations, operation.destinations):
            read_from = addressing.unpack(source)
            written_to = addressing.unpack(destination)
            assert (read_from.channel, read_from.die, read_from.plane) == where
            assert (written_to.channel, written_to.die, written_to.plane) == where
            assert read_from.block == victim != written_to.block
            moved = before[operation.plane_index][victim][read_from.page]
            assert moved is not None
            assert plane.blocks[written_to.block].page_lpns[written_to.page] == moved


def test_controller_and_dftl_build_no_physical_page():
    # The write, GC and translation paths hand packed indices to the
    # controller; PhysicalPage is built only by PageAddressing.unpack.
    for name in ("controller.py", "dftl.py"):
        path = SSD / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert called != "PhysicalPage", f"{name}:{node.lineno} builds a PhysicalPage"


def test_only_the_ftl_module_names_a_physical_page_or_packs_one():
    # One page address in the simulator core: the mappers, the retry grid,
    # the fault injector and the controller divide packed indices, and only
    # ssd/ftl.py, which defines the format, names PhysicalPage or calls
    # PageAddressing.pack/unpack (no other pack/unpack exists in src/repro).
    src = SSD.parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src).as_posix()
        if where == "ssd/ftl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
                if node.attr in ("pack", "unpack"):
                    offenders.append(f"{where}:{node.lineno} calls .{node.attr}")
            else:
                continue
            if "PhysicalPage" in names:
                offenders.append(f"{where}:{node.lineno} names PhysicalPage")
    assert offenders == []


def test_planes_that_start_below_the_gc_trigger_are_counted(mapping):
    # Three blocks per plane, under the default trigger of four free ones:
    # every plane is below it from the start, and each call counts one
    # invocation per plane.
    mapper = MAPPERS[mapping](SsdConfig.tiny(mapping=mapping, blocks_per_plane=3))
    assert mapper.planes_below_trigger == set(range(len(mapper.planes)))
    assert mapper.collect_if_needed(now_us=0.0) == []
    mapper.collect_if_needed(now_us=0.0)
    assert mapper.gc_invocations == 2 * len(mapper.planes)


def test_a_dropped_mapper_needs_no_cycle_collection(mapping):
    # Planes share the trigger set with their mapper instead of pointing
    # back at it, so a dropped mapper is freed at once, not whenever the
    # cyclic garbage collector next runs over all its blocks.
    gc.disable()
    try:
        mapper = _mapper(mapping)
        dropped = weakref.ref(mapper)
        del mapper
        assert dropped() is None
    finally:
        gc.enable()


def test_trim_unmaps_once(mapping):
    mapper = _mapper(mapping)
    assert mapper.is_mapped(5)
    mapper.trim(5, now_us=0.0)
    assert not mapper.is_mapped(5)
    assert list(mapper.trim(5, now_us=0.0)) == []


def test_only_a_page_mode_read_miss_costs_translation_traffic(mapping):
    # Block mode keeps its table in DRAM; the DFTL's cold cache misses and
    # fetches the translation page.
    mapper = _mapper(mapping)
    _, ops = mapper.read_target_packed(0, now_us=0.0)
    if mapping == "page":
        assert [kind for kind, _ in ops] == [TransactionKind.TRANS_READ]
        assert mapper.cmt_misses == 1
    else:
        assert list(ops) == []
        assert mapper.cmt_misses == 0


def test_out_of_range_lpns_raise(mapping):
    # Flat per-LPN tables would read their tail for a negative index; every
    # entry point refuses LPNs outside [0, logical_pages) instead.
    mapper = _mapper(mapping)
    logical_pages = mapper.config.logical_pages
    entry_points = {
        "read_target_packed": lambda lpn: mapper.read_target_packed(lpn, now_us=0.0),
        "program": lambda lpn: mapper.program(lpn, now_us=0.0),
        "trim": lambda lpn: mapper.trim(lpn, now_us=0.0),
        "is_mapped": mapper.is_mapped,
    }
    for lpn in (-1, -logical_pages, logical_pages, logical_pages + 7):
        for name, call in entry_points.items():
            with pytest.raises(ValueError, match=rf"LPN {lpn} .*{logical_pages}\)"):
                call(lpn)
    assert mapper.mapped_pages == FILL
    assert mapper.is_mapped(logical_pages - 1) is False
    assert mapper.is_mapped(0)
