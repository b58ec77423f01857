"""The Mapper contract, exercised the same way on both FTLs.

``SsdSimulator`` builds one mapper from ``SsdConfig.mapping`` and drives it
only through :class:`repro.ssd.ftl.Mapper`; each test here runs once per
mapping.
"""

import ast
import gc
from array import array
import pathlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    every page and their valid bits just before that collection, and its GC
    records."""
    rng = random.Random(7)
    for _ in range(20000):
        mapper.program(rng.randrange(mapper.config.logical_pages // 2), now_us=0.0)
        before = list(mapper.page_lpn), bytes(mapper.page_valid)
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
    (lpns_before, valid_before), operations = _collect_with_relocations(mapper)
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
            assert valid_before[source]
            assert mapper.page_valid[destination]
            assert mapper.page_lpn[destination] == lpns_before[source]


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


# -- the rules each mapper keeps its own ------------------------------------------
#: Among equally worn free blocks, the block FTL opens the one that joined the
#: free pool first and the DFTL the lowest-numbered one.
REOPENED = {"block": 2, "page": 1}
#: Among the emptiest full blocks, the block FTL collects the one filled
#: first and the DFTL the lowest-numbered one.
COLLECTED = {"block": 2, "page": 1}


def _program_planes(mapper, lpns):
    """Program ``lpns`` in turn; each LPN's ``(plane index, block)``."""
    addressing = PageAddressing(mapper.config)
    placed = {}
    for lpn in lpns:
        packed, _ = mapper.program(lpn, now_us=0.0)
        placed[lpn] = (packed // addressing.pages_per_plane,
                       packed % addressing.pages_per_plane // addressing.pages_per_block)
    return placed


def _trim_blocks(mapper, placed, blocks, keep=0):
    """Trim all but ``keep`` LPNs of each of plane 0's ``blocks``."""
    for block in blocks:
        lpns = [lpn for lpn, where in placed.items() if where == (0, block)]
        for lpn in lpns[keep:]:
            mapper.trim(lpn, now_us=0.0)


def _fill_four_blocks_and_empty_two(mapping, **overrides):
    """Blocks 0-3 of every plane full, then blocks 1 and 2 of plane 0 trimmed
    empty: the mapper, and where the next LPN goes."""
    mapper = MAPPERS[mapping](SsdConfig.tiny(mapping=mapping, **overrides))
    config = mapper.config
    lpns = range(4 * config.pages_per_block * len(mapper.planes))
    _trim_blocks(mapper, _program_planes(mapper, lpns), (1, 2))
    return mapper, len(lpns)


def test_equally_worn_free_blocks_open_by_each_mappers_rule(mapping):
    # Wear plane 0's other blocks, then erase 2 and then 1: both rejoin the
    # pool at one erase each, 2 first.
    mapper, next_lpn = _fill_four_blocks_and_empty_two(mapping)
    plane = mapper.planes[0]
    for block in range(4, mapper.config.blocks_per_plane):
        plane.erase(block)
        plane.erase(block)
    plane.erase(2)
    plane.erase(1)
    assert _program_planes(mapper, [next_lpn])[next_lpn] == (0, REOPENED[mapping])


def test_the_gc_victim_ties_by_each_mappers_rule(mapping):
    # Wear makes both mappers reopen block 2 and then block 1 of plane 0;
    # trimming the same number of pages in each leaves them tied as the
    # emptiest full blocks when the plane falls below its GC trigger.
    mapper, next_lpn = _fill_four_blocks_and_empty_two(mapping, blocks_per_plane=8)
    plane = mapper.planes[0]
    for block in range(4, 8):
        for _ in range(3):
            plane.erase(block)
    plane.erase(2)
    plane.erase(1)
    plane.erase(1)
    planes = len(mapper.planes)
    pages_per_block = mapper.config.pages_per_block
    placed = _program_planes(mapper, range(next_lpn, next_lpn + 2 * pages_per_block * planes + 1))
    assert [placed[lpn][1] for lpn in sorted(placed) if placed[lpn][0] == 0][::pages_per_block] == [2, 1, 4]
    assert plane.needs_gc()
    _trim_blocks(mapper, placed, (1, 2), keep=4)
    victims = [operation.victim_block for operation in mapper.collect_if_needed(now_us=0.0)
               if operation.plane_index == 0]
    assert victims[0] == COLLECTED[mapping]


def test_only_the_block_ftl_collects_a_fully_valid_block(mapping):
    # Five full blocks per plane and nothing invalid: the block FTL takes
    # the first one filled, the DFTL finds no victim.
    mapper = MAPPERS[mapping](SsdConfig.tiny(mapping=mapping, blocks_per_plane=8))
    planes = len(mapper.planes)
    _program_planes(mapper, range(5 * mapper.config.pages_per_block * planes + planes))
    assert mapper.planes_below_trigger == set(range(planes))
    operations = mapper.collect_if_needed(now_us=0.0)
    if mapping == "block":
        assert [(operation.plane_index, operation.victim_block) for operation in operations] == [
            (index, 0) for index in range(planes)
        ]
    else:
        assert operations == []


# -- one consistency check over the store ------------------------------------------
STEPS = st.lists(
    st.tuples(st.sampled_from(["program", "trim", "read", "collect", "retire"]),
              st.integers(min_value=0, max_value=2**20)),
    max_size=40,
)


@pytest.mark.parametrize("mapping", sorted(MAPPERS))
@settings(max_examples=15, deadline=None)
@given(fill=st.sampled_from([0.5, 0.85]), steps=STEPS)
def test_every_step_keeps_the_store_consistent(mapping, fill, steps):
    """Programs, trims, reads (of never-written LPNs too), collections and,
    in page mode, retirements each leave the map, the OOB state, the valid
    counts, the free pools and the trigger set agreeing.  A trim unmaps a
    run of up to a block per plane, so collections can empty whole blocks
    and lift a plane back over its trigger."""
    config = SsdConfig.tiny(mapping=mapping)
    mapper = MAPPERS[mapping](config)
    mapper.precondition_fill(int(config.logical_pages * fill), retention_months=6.0, pe_cycles=1000)
    mapper.check_consistency()
    stripe = config.pages_per_block * len(mapper.planes)
    for kind, number in steps:
        lpn = number % config.logical_pages
        if kind == "program":
            mapper.program(lpn, now_us=0.0)
        elif kind == "trim":
            run = 1 + number // config.logical_pages % stripe
            for trimmed in range(lpn, min(lpn + run, config.logical_pages)):
                mapper.trim(trimmed, now_us=0.0)
        elif kind == "read":
            mapper.read_target_packed(lpn, now_us=0.0)
        elif kind == "collect":
            mapper.collect_if_needed(now_us=0.0)
        elif mapping == "page":
            # The fault injector's guard: a retirement must not starve GC.
            plane_index = number % len(mapper.planes)
            block = number // len(mapper.planes) % config.blocks_per_plane
            plane = mapper.planes[plane_index]
            if not plane.is_retired(block) and (
                plane.free_block_count > config.gc_free_block_threshold + 1
            ):
                mapper.retire_block(plane_index, block, now_us=0.0)
        mapper.check_consistency()


def test_the_check_catches_a_map_the_oob_disagrees_with(mapping):
    mapper = _mapper(mapping)
    mapper._mapping[0], mapper._mapping[1] = mapper._mapping[1], mapper._mapping[0]
    with pytest.raises(AssertionError, match="LPN 0"):
        mapper.check_consistency()


def test_the_check_catches_a_stale_valid_count(mapping):
    mapper = _mapper(mapping)
    mapper.valid_count[0] += 1
    with pytest.raises(AssertionError):
        mapper.check_consistency()


# -- one block store, one plane class ----------------------------------------------
def test_one_plane_class_over_one_block_store():
    # Both mappers keep their block and page state in the flat arrays of one
    # BlockStore, over one Plane class; the per-block object models and
    # their per-mapper plane classes are gone.
    classes = {}
    for name in ("ftl.py", "dftl.py"):
        path = SSD / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = name
    assert [name for name in classes if "Plane" in name or "Block" in name] == ["Plane", "BlockStore"]
    assert classes["Plane"] == classes["BlockStore"] == "ftl.py"
    for mapper in MAPPERS.values():
        assert mapper.__mro__[1].__name__ == "BlockStore"


def test_both_mappers_keep_a_flat_lpn_map(mapping):
    mapper = _mapper(mapping)
    assert isinstance(mapper._mapping, array)
    assert mapper._mapping.typecode == "q"
    assert len(mapper._mapping) == mapper.config.logical_pages
