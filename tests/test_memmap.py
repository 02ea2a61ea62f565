import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmemsim.loader import check_bounds
from gmemsim.memmap import (CPU_OWNER, AddressLayout, FrameRegion, PagePolicy,
                            PageTable, Pool, build_color_map)

from page_table_reference import ReferencePageTable

DEFAULT = AddressLayout(byte_offset_bits=6, column_bits=7, channel_bits=1,
                        bank_bits=4, row_bits=14, page_offset_bits=12)
SMALL = AddressLayout(byte_offset_bits=2, column_bits=3, channel_bits=1,
                      bank_bits=2, row_bits=5, page_offset_bits=4)


def mask_decompose(addr, layout):
    """Independent shift/mask reference for the field extraction."""
    widths = [layout.byte_offset_bits, layout.column_bits, layout.channel_bits,
              layout.bank_bits, layout.row_bits]
    vals = []
    shift = 0
    for w in widths:
        vals.append((addr >> shift) & ((1 << w) - 1))
        shift += w
    byte, column, channel, bank, row = vals
    return channel, bank, row, column, byte


def test_decompose_zero():
    d = DEFAULT.decompose(0)
    assert (d.channel, d.bank, d.row, d.column, d.byte) == (0, 0, 0, 0, 0)


def test_compose_known_value():
    addr = DEFAULT.compose(channel=1, bank=3, row=2, column=5, byte=0)
    assert addr == 0x8E140


def test_round_trip_random_addresses():
    rng = random.Random(1234)
    for layout in (DEFAULT, SMALL):
        hi = 1 << layout.address_bits
        for _ in range(10_000):
            addr = rng.randrange(hi)
            d = layout.decompose(addr)
            assert layout.compose(d.channel, d.bank, d.row, d.column, d.byte) == addr
            assert mask_decompose(addr, layout) == (
                d.channel, d.bank, d.row, d.column, d.byte)


def test_out_of_range_address_faults():
    with pytest.raises(ValueError):
        SMALL.decompose(1 << SMALL.address_bits)


def validate(layout: AddressLayout, coloring: bool = False):
    # a layout's widths carry their bounds; validate checks the rest
    check_bounds(layout, "layout")
    layout.validate(coloring=coloring)


def test_coloring_feasibility_rejected():
    bad = AddressLayout(byte_offset_bits=6, column_bits=7, channel_bits=1,
                        bank_bits=4, row_bits=14, page_offset_bits=14)
    validate(bad, coloring=False)
    with pytest.raises(ValueError, match=r"coloring infeasible: "
                       r"layout\.page_offset_bits \(14\) exceeds"):
        validate(bad, coloring=True)


@pytest.mark.parametrize("fields, message", [
    ({"row_bits": -1}, "layout.row_bits must be >= 0, not -1"),
    ({"page_offset_bits": 20},
     "layout.page_offset_bits (20) must not exceed the address width (19)"),
    ({"row_bits": 56},
     "layout spans 65 address bits (byte_offset_bits + column_bits + "
     "channel_bits + bank_bits + row_bits), more than the 64 of one "
     "physical address word"),
])
def test_malformed_layout_names_its_field(fields, message):
    widths = dict(byte_offset_bits=2, column_bits=4, channel_bits=1,
                  bank_bits=2, row_bits=10, page_offset_bits=5)
    with pytest.raises(ValueError) as err:
        validate(AddressLayout(**dict(widths, **fields)))
    assert str(err.value) == message


def test_default_layout_has_coloring_slack():
    validate(DEFAULT, coloring=True)
    assert DEFAULT.page_offset_bits + 1 == (
        DEFAULT.column_bits + DEFAULT.byte_offset_bits)
    assert DEFAULT.pages_per_row == 2


def test_color_map_even_division():
    cm = build_color_map(8, DEFAULT)
    assert all(len(v) == 4 for v in cm.values())
    flat = [p for v in cm.values() for p in v]
    assert len(flat) == len(set(flat)) == 32


def test_color_map_too_many_sms():
    with pytest.raises(ValueError):
        build_color_map(64, SMALL)


def make_table(policy, num_sms=2, region=None, cpu_pool=Pool.DDR):
    layouts = {Pool.GDDR: SMALL,
               Pool.DDR: AddressLayout(2, 3, 0, 2, 5, 4)}
    cm = build_color_map(num_sms, SMALL)
    return PageTable(policy, layouts, cm, region=region, cpu_pool=cpu_pool)


def test_first_touch_fills_gddr_in_frame_order():
    t = make_table(PagePolicy.FIRST_TOUCH)
    frames = [t.allocate_page(v, 0).frame for v in range(4)]
    assert frames == [0, 1, 2, 3]
    assert t.pool_pages[Pool.GDDR] == 4


def test_coloring_respects_owner_colors():
    t = make_table(PagePolicy.COLORING)
    for v in range(6):
        e = t.allocate_page(v, 1)
        assert (e.channel, e.bank) in t.color_map[1]
    assert t.spilled_pages == 0


def test_coloring_packs_rows_before_opening_new_ones():
    # single SM owning one bank: two pages per row
    layouts = {Pool.GDDR: SMALL, Pool.DDR: AddressLayout(2, 3, 0, 2, 5, 4)}
    cm = {0: ((0, 0),)}
    t = PageTable(PagePolicy.COLORING, layouts, cm)
    entries = [t.allocate_page(v, 0) for v in range(4)]
    assert [e.row for e in entries] == [0, 0, 1, 1]
    assert all((e.channel, e.bank) == (0, 0) for e in entries)


def test_coloring_spills_when_colors_exhausted():
    layouts = {Pool.GDDR: SMALL, Pool.DDR: AddressLayout(2, 3, 0, 2, 5, 4)}
    # one SM restricted to one bank: 32 rows * 2 pages per row = 64 frames
    t = PageTable(PagePolicy.COLORING, layouts, {0: ((0, 0),)})
    for v in range(64):
        t.allocate_page(v, 0)
    assert t.spilled_pages == 0
    e = t.allocate_page(64, 0)
    assert t.spilled_pages == 1
    assert (e.channel, e.bank) != (0, 0)


def test_bw_aware_ratio():
    t = make_table(PagePolicy.BW_AWARE)
    t.bw_ratio = (2, 1)
    for v in range(300):
        t.allocate_page(v, 0)
    assert t.pool_pages[Pool.GDDR] == 200
    assert t.pool_pages[Pool.DDR] == 100


def test_hetero_row_split():
    region = FrameRegion.split(SMALL.num_rows, 0.5)
    t = make_table(PagePolicy.COLORING_HETERO, region=region,
                   cpu_pool=Pool.GDDR)
    gpu = [t.allocate_page(v, 0) for v in range(8)]
    cpu = [t.allocate_page(100 + v, CPU_OWNER) for v in range(8)]
    g_lo, g_hi = region.gpu_rows
    c_lo, c_hi = region.cpu_rows
    assert all(g_lo <= e.row < g_hi for e in gpu)
    assert all(c_lo <= e.row < c_hi for e in cpu)
    assert all(e.pool is Pool.GDDR for e in gpu + cpu)


def test_hetero_requires_region():
    with pytest.raises(ValueError, match="frame region"):
        make_table(PagePolicy.COLORING_HETERO)


def test_frame_injectivity():
    t = make_table(PagePolicy.COLORING)
    seen = set()
    for v in range(40):
        e = t.allocate_page(v, v % 2)
        key = (e.pool, e.frame)
        assert key not in seen
        seen.add(key)


def test_translate_allocates_once():
    t = make_table(PagePolicy.FIRST_TOUCH)
    pool_a, pa = t.translate(0x13, 0)
    pool_b, pb = t.translate(0x17, 1)  # same page, later touch ignored
    assert pool_a is pool_b
    assert pa // 16 == pb // 16
    assert len(t.entries) == 1


def test_classification():
    t = make_table(PagePolicy.COLORING)
    e0 = t.allocate_page(0, 0)
    assert t.is_local(0, e0.pool, e0.channel, e0.bank)
    assert not t.is_local(1, e0.pool, e0.channel, e0.bank)


def test_ddr_never_local():
    t = make_table(PagePolicy.FIRST_TOUCH)
    e = t.allocate_page(5, CPU_OWNER)
    assert e.pool is Pool.DDR
    assert not t.is_local(0, e.pool, e.channel, e.bank)


def test_pool_exhaustion_faults():
    layouts = {Pool.GDDR: AddressLayout(2, 2, 0, 0, 1, 4),
               Pool.DDR: AddressLayout(2, 2, 0, 0, 1, 4)}
    t = PageTable(PagePolicy.FIRST_TOUCH, layouts, {0: ((0, 0),)})
    t.allocate_page(0, 0)  # 2 rows x 1 page per row
    t.allocate_page(1, 0)
    with pytest.raises(ValueError, match=r"gddr pool exhausted.*rows \[0, 2\)"):
        t.allocate_page(2, 0)


def test_region_split_covers_bank():
    region = FrameRegion.split(32, 0.25)
    assert region.gpu_rows == (0, 24)
    assert region.cpu_rows == (24, 32)


@settings(max_examples=100, deadline=None)
@given(num_rows=st.integers(2, 1 << 16),
       fraction=st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_region_split_is_two_nonempty_ranges_that_cover_the_bank(
        num_rows, fraction):
    # the GPU's rows, then the CPU's: each range non-empty, the two disjoint,
    # together every row of the bank
    region = FrameRegion.split(num_rows, fraction)
    (g_lo, g_hi), (c_lo, c_hi) = region.gpu_rows, region.cpu_rows
    assert g_lo == 0 and g_hi == c_lo and c_hi == num_rows
    assert g_lo < g_hi and c_lo < c_hi


@settings(max_examples=60, deadline=None)
@given(byte=st.integers(0, 6), col=st.integers(0, 7), ch=st.integers(0, 2),
       bank=st.integers(0, 4), row=st.integers(1, 10), data=st.data())
def test_round_trip_property(byte, col, ch, bank, row, data):
    layout = AddressLayout(byte, col, ch, bank, row,
                           page_offset_bits=min(byte + col, byte + col))
    validate(layout)
    addr = data.draw(st.integers(0, (1 << layout.address_bits) - 1))
    d = layout.decompose(addr)
    assert layout.compose(d.channel, d.bank, d.row, d.column, d.byte) == addr


def allocate_both(table: PageTable, ref: ReferencePageTable,
                  owners: list[int]) -> list[str]:
    """Allocate page i for owners[i] in both tables, asserting after each
    that they map it alike, or fail it with the same message, and agree on
    the spill and per-pool counts; the messages of the failed ones."""
    failures = []
    for vpn, owner in enumerate(owners):
        outcome = []
        for t in (table, ref):
            try:
                outcome.append(t.allocate_page(vpn, owner))
            except ValueError as e:
                outcome.append(str(e))
        assert outcome[0] == outcome[1], (vpn, owner)
        if isinstance(outcome[0], str):
            failures.append(outcome[0])
        assert table.spilled_pages == ref.spilled_pages
        assert table.pool_pages == ref.pool_pages
    assert table.entries == ref.entries
    return failures


def both_tables(policy, gddr, ddr, num_sms, **kwargs):
    layouts = {Pool.GDDR: gddr, Pool.DDR: ddr}
    color_map = build_color_map(num_sms, gddr)
    return (PageTable(policy, layouts, color_map, **kwargs),
            ReferencePageTable(policy, layouts, color_map, **kwargs))


@st.composite
def allocator_cases(draw):
    """A small colorable GDDR layout and a DDR one of the same page size,
    a policy, its options and an owner sequence longer than both pools.
    A page may be narrower than the byte offset field."""
    pob = draw(st.integers(0, 2))
    slot = draw(st.integers(0, 1))
    byte = draw(st.integers(0, pob + slot))
    gddr = AddressLayout(byte, pob + slot - byte, draw(st.integers(0, 1)),
                         draw(st.integers(0, 2)), draw(st.integers(1, 2)), pob)
    ddr = AddressLayout(pob, draw(st.integers(0, 1)), draw(st.integers(0, 1)),
                        draw(st.integers(0, 1)), draw(st.integers(0, 2)), pob)
    policy = draw(st.sampled_from(list(PagePolicy)))
    num_sms = draw(st.integers(1, min(3, gddr.num_channels * gddr.num_banks)))
    kwargs = {"cpu_pool": draw(st.sampled_from(list(Pool))),
              "bw_ratio": (draw(st.integers(1, 3)), draw(st.integers(1, 3)))}
    if policy is PagePolicy.COLORING_HETERO:
        kwargs["region"] = FrameRegion.split(
            gddr.num_rows, draw(st.sampled_from([0.25, 0.5, 0.75])))
    n = gddr.num_frames + ddr.num_frames
    owners = draw(st.lists(st.sampled_from([CPU_OWNER, *range(num_sms)]),
                           min_size=n + 1, max_size=n + 8))
    return policy, gddr, ddr, num_sms, kwargs, owners


@settings(max_examples=200, deadline=None)
@given(case=allocator_cases())
def test_page_table_matches_the_reference_until_exhaustion(case):
    # every PageEntry, spill and pool count, and each exhaustion message,
    # against walks listed from the layouts' bit widths; the owners ask for
    # more pages than both pools hold, so some allocation always fails
    policy, gddr, ddr, num_sms, kwargs, owners = case
    table, ref = both_tables(policy, gddr, ddr, num_sms, **kwargs)
    assert allocate_both(table, ref, owners)


@pytest.mark.parametrize("cpu_pool", list(Pool))
def test_hetero_spills_inside_the_gpu_rows_until_the_region_runs_out(
        cpu_pool):
    # SM 0 owns channel 0's 4 banks, half of SMALL's 8 (channel, bank)
    # pairs: 192 colored frames in the 24 GPU rows at 2 pages per row.  Its
    # next 192 pages spill onto channel 1's frames in the GPU rows, and the
    # 385th finds the region full.  The CPU's 8 rows hold 128 GDDR pages.
    region = FrameRegion.split(SMALL.num_rows, 0.25)
    table, ref = both_tables(PagePolicy.COLORING_HETERO, SMALL,
                             AddressLayout(2, 3, 0, 2, 5, 4), 2,
                             region=region, cpu_pool=cpu_pool)
    failures = allocate_both(table, ref, [0] * 390 + [CPU_OWNER] * 130)
    assert table.spilled_pages == 192
    assert all(0 <= e.row < 24 for e in table.entries.values()
               if e.owner == 0)
    expected = ["gddr pool exhausted: every frame of rows [0, 24) is "
                "in use"] * 6
    if cpu_pool is Pool.GDDR:
        expected += ["gddr pool exhausted: every frame of rows [24, 32) is "
                     "in use"] * 2
    assert failures == expected
