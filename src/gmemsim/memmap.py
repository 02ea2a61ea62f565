"""Physical page allocation and bit-exact DRAM address decomposition.

Physical addresses decompose, least-significant bits first, into byte offset,
column, channel, bank, and row fields.  A page's frame number is the address
shifted down by the page-offset width, so a frame pins the page's channel,
bank, row, and row slot.  Page coloring is possible exactly when the page
offset fits inside the column and byte fields: the channel and bank bits then
sit above the page offset and the allocator is free to choose them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

# the width of one physical address word, which bounds a layout's fields
ADDRESS_WORD_BITS = 64


class Pool(str, Enum):
    GDDR = "gddr"
    DDR = "ddr"


class PagePolicy(str, Enum):
    FIRST_TOUCH = "first_touch"
    COLORING = "coloring"
    BW_AWARE = "bw_aware"
    COLORING_HETERO = "coloring_hetero"


class DecodedAddress(NamedTuple):
    channel: int
    bank: int
    row: int
    column: int
    byte: int


@dataclass(frozen=True)
class AddressLayout:
    """Bit-field widths of a pool's physical address, LSB to MSB."""

    byte_offset_bits: int = field(metadata={"min": 0})
    column_bits: int = field(metadata={"min": 0})
    channel_bits: int = field(metadata={"min": 0})
    bank_bits: int = field(metadata={"min": 0})
    row_bits: int = field(metadata={"min": 0})
    page_offset_bits: int = field(metadata={"min": 0})

    @property
    def address_bits(self) -> int:
        return (self.byte_offset_bits + self.column_bits + self.channel_bits
                + self.bank_bits + self.row_bits)

    @property
    def num_channels(self) -> int:
        return 1 << self.channel_bits

    @property
    def num_banks(self) -> int:
        return 1 << self.bank_bits

    @property
    def num_rows(self) -> int:
        return 1 << self.row_bits

    @property
    def page_size(self) -> int:
        return 1 << self.page_offset_bits

    @property
    def row_bytes(self) -> int:
        return 1 << (self.byte_offset_bits + self.column_bits)

    @property
    def pages_per_row(self) -> int:
        return self.row_bytes // self.page_size

    @property
    def num_frames(self) -> int:
        return 1 << (self.address_bits - self.page_offset_bits)

    def validate(self, where: str = "layout", coloring: bool = False):
        """The rules across the fields; `loader.check_bounds` checks that
        each width is >= 0."""
        if self.address_bits > ADDRESS_WORD_BITS:
            raise ValueError(
                f"{where} spans {self.address_bits} address bits "
                "(byte_offset_bits + column_bits + channel_bits + bank_bits "
                f"+ row_bits), more than the {ADDRESS_WORD_BITS} of one "
                "physical address word")
        if self.page_offset_bits > self.address_bits:
            raise ValueError(
                f"{where}.page_offset_bits ({self.page_offset_bits}) must "
                f"not exceed the address width ({self.address_bits})")
        if coloring and self.page_offset_bits > self.column_bits + self.byte_offset_bits:
            raise ValueError(
                f"coloring infeasible: {where}.page_offset_bits "
                f"({self.page_offset_bits}) exceeds column+byte bits "
                f"({self.column_bits + self.byte_offset_bits})"
            )

    def decompose(self, addr: int) -> DecodedAddress:
        channel_at = self.byte_offset_bits + self.column_bits
        bank_at = channel_at + self.channel_bits
        row_at = bank_at + self.bank_bits
        if not 0 <= addr < (1 << (row_at + self.row_bits)):
            raise ValueError(f"address {addr:#x} outside {self.address_bits}-bit space")
        return DecodedAddress(
            (addr >> channel_at) & ((1 << self.channel_bits) - 1),
            (addr >> bank_at) & ((1 << self.bank_bits) - 1),
            addr >> row_at,
            (addr >> self.byte_offset_bits) & ((1 << self.column_bits) - 1),
            addr & ((1 << self.byte_offset_bits) - 1))

    def compose(self, channel: int, bank: int, row: int,
                column: int = 0, byte: int = 0) -> int:
        for val, width, name in ((byte, self.byte_offset_bits, "byte"),
                                 (column, self.column_bits, "column"),
                                 (channel, self.channel_bits, "channel"),
                                 (bank, self.bank_bits, "bank"),
                                 (row, self.row_bits, "row")):
            if not 0 <= val < (1 << width):
                raise ValueError(f"{name} value {val} does not fit in {width} bits")
        addr = row
        addr = (addr << self.bank_bits) | bank
        addr = (addr << self.channel_bits) | channel
        addr = (addr << self.column_bits) | column
        addr = (addr << self.byte_offset_bits) | byte
        return addr

    def frame_number(self, channel: int, bank: int, row: int, slot: int) -> int:
        """Frame holding the slot-th page of one (channel, bank) row."""
        page_cols = self.page_size >> self.byte_offset_bits
        return self.compose(channel, bank, row,
                            column=slot * page_cols) >> self.page_offset_bits

    def frame_fields(self, frame: int) -> DecodedAddress:
        return self.decompose(frame << self.page_offset_bits)


@dataclass(frozen=True)
class FrameRegion:
    """Per-bank row split reserving low rows for the GPU and the high rows for
    the CPU."""

    gpu_rows: tuple[int, int]
    cpu_rows: tuple[int, int]

    @staticmethod
    def split(num_rows: int, cpu_fraction: float) -> FrameRegion:
        """Rows [0, num_rows) cut into two non-empty ranges that cover them,
        the CPU's about `cpu_fraction` of the rows.  Needs num_rows >= 2,
        which `RunConfig.validate` checks under coloring_hetero."""
        cpu_rows = max(1, min(num_rows - 1, round(num_rows * cpu_fraction)))
        return FrameRegion(gpu_rows=(0, num_rows - cpu_rows),
                           cpu_rows=(num_rows - cpu_rows, num_rows))


def build_color_map(num_sms: int, layout: AddressLayout) -> dict[int, tuple]:
    """Evenly divide the pool's (channel, bank) pairs among SMs.

    Pairs are handed out in (channel, bank) order; when the division is not
    exact the low SM ids take one extra color.
    """
    pairs = [(ch, b) for ch in range(layout.num_channels)
             for b in range(layout.num_banks)]
    if num_sms > len(pairs):
        raise ValueError(
            f"config.hardware.num_sms ({num_sms}) must not exceed the "
            f"{len(pairs)} GDDR banks, as each SM owns at least one")
    base, extra = divmod(len(pairs), num_sms)
    color_map, i = {}, 0
    for sm in range(num_sms):
        take = base + (1 if sm < extra else 0)
        color_map[sm] = tuple(pairs[i:i + take])
        i += take
    return color_map


@dataclass(frozen=True)
class PageEntry:
    pool: Pool
    frame: int
    channel: int
    bank: int
    row: int
    owner: int  # the SM that first touched the page, or CPU_OWNER


CPU_OWNER = -1


class PageTable:
    """First-touch virtual-to-physical page mapping under a pluggable policy.

    Frames are handed out lazily from per-policy orderings; a used-frame set
    guarantees injectivity.  Colored GPU allocation walks (row, color, slot)
    order so that consecutive pages of a batch fill a row before a new row is
    opened and successive rows rotate over the SM's banks.
    """

    def __init__(self, policy: PagePolicy, layouts: dict[Pool, AddressLayout],
                 color_map: dict[int, tuple], *,
                 region: FrameRegion | None = None,
                 bw_ratio: tuple[int, int] = (2, 1),
                 cpu_pool: Pool = Pool.DDR):
        self.policy = policy
        self.layouts = layouts
        self.color_map = color_map
        self.region = region
        self.bw_ratio = bw_ratio
        self.cpu_pool = cpu_pool
        self.entries: dict[int, PageEntry] = {}
        self.spilled_pages = 0
        self.pool_pages = {Pool.GDDR: 0, Pool.DDR: 0}
        self._used: dict[Pool, set[int]] = {Pool.GDDR: set(), Pool.DDR: set()}
        # walk positions, keyed by pool (first-touch scans), SM id (colored
        # walks), "cpu" and "spill" (region walks)
        self._cursors: dict = {Pool.GDDR: 0, Pool.DDR: 0}
        gddr = layouts[Pool.GDDR]
        self._all_pairs = [(ch, b) for ch in range(gddr.num_channels)
                           for b in range(gddr.num_banks)]
        # `HardwareConfig.validate` makes the pools share one page size
        self.page_size = gddr.page_size
        if policy is PagePolicy.COLORING_HETERO and region is None:
            raise ValueError("coloring_hetero requires a frame region split")

    # frame orderings ------------------------------------------------------

    def _pool_scan(self, pool: Pool) -> int:
        layout = self.layouts[pool]
        used = self._used[pool]
        f = self._cursors[pool]
        while f < layout.num_frames and f in used:
            f += 1
        if f >= layout.num_frames:
            raise ValueError(f"{pool.value} pool exhausted: every frame of "
                             f"rows [0, {layout.num_rows}) is in use")
        self._cursors[pool] = f + 1
        return f

    def _row_walk(self, pairs, rows: tuple[int, int], cursor) -> int | None:
        """Next free GDDR frame in (row, (channel, bank), slot) order over
        the given pairs and row range, resuming at self._cursors[cursor]; a
        batch's pages fill a row before the next row opens, and successive
        rows rotate over the pairs.  None once the range is used up."""
        layout = self.layouts[Pool.GDDR]
        slots = layout.pages_per_row
        per_row = len(pairs) * slots
        row_lo, row_hi = rows
        total = (row_hi - row_lo) * per_row
        used = self._used[Pool.GDDR]
        idx = self._cursors.get(cursor, 0)
        while idx < total:
            row = row_lo + idx // per_row
            rem = idx % per_row
            ch, bank = pairs[rem // slots]
            frame = layout.frame_number(ch, bank, row, rem % slots)
            idx += 1
            if frame not in used:
                self._cursors[cursor] = idx
                return frame
        self._cursors[cursor] = idx
        return None

    def _region_frame(self, rows: tuple[int, int], cursor) -> int:
        """Any-bank frame limited to a row range of the GDDR pool."""
        frame = self._row_walk(self._all_pairs, rows, cursor)
        if frame is None:
            raise ValueError(f"gddr pool exhausted: every frame of rows "
                             f"[{rows[0]}, {rows[1]}) is in use")
        return frame

    def _bw_pool(self) -> Pool:
        g, d = self.bw_ratio
        # place so that counts track the bandwidth ratio (largest remainder)
        if self.pool_pages[Pool.GDDR] * d <= self.pool_pages[Pool.DDR] * g:
            return Pool.GDDR
        return Pool.DDR

    # allocation -----------------------------------------------------------

    def allocate_page(self, vpn: int, owner_sm: int) -> PageEntry:
        """Map a virtual page on first touch; owner_sm is CPU_OWNER for CPU
        pages.  Colored allocation that runs out of its color set spills to
        any free frame and counts the spill."""
        if vpn in self.entries:
            raise ValueError(f"vpn {vpn} already mapped")
        if owner_sm == CPU_OWNER:
            pool = self.cpu_pool
            if self.policy is PagePolicy.COLORING_HETERO and pool is Pool.GDDR:
                frame = self._region_frame(self.region.cpu_rows, "cpu")
            else:
                frame = self._pool_scan(pool)
        elif self.policy in (PagePolicy.FIRST_TOUCH, PagePolicy.BW_AWARE):
            pool = (self._bw_pool() if self.policy is PagePolicy.BW_AWARE
                    else Pool.GDDR)
            frame = self._pool_scan(pool)
        elif self.policy is PagePolicy.COLORING:
            pool = Pool.GDDR
            frame = self._row_walk(self.color_map[owner_sm],
                                   (0, self.layouts[pool].num_rows), owner_sm)
            if frame is None:
                frame = self._pool_scan(pool)
                self.spilled_pages += 1
        else:  # COLORING_HETERO
            pool = Pool.GDDR
            frame = self._row_walk(self.color_map[owner_sm],
                                   self.region.gpu_rows, owner_sm)
            if frame is None:
                # spill stays inside the GPU row region so the CPU/GPU row
                # split is never violated
                frame = self._region_frame(self.region.gpu_rows, "spill")
                self.spilled_pages += 1
        self._used[pool].add(frame)
        fields = self.layouts[pool].frame_fields(frame)
        entry = PageEntry(pool=pool, frame=frame, channel=fields.channel,
                          bank=fields.bank, row=fields.row, owner=owner_sm)
        self.entries[vpn] = entry
        self.pool_pages[pool] += 1
        return entry

    def translate(self, vaddr: int, owner_sm: int) -> tuple[Pool, int]:
        """Physical (pool, address) for a virtual address, allocating the page
        on first touch."""
        page_size = self.page_size
        vpn = vaddr // page_size
        entry = self.entries.get(vpn)
        if entry is None:
            entry = self.allocate_page(vpn, owner_sm)
        return entry.pool, (entry.frame << self.layouts[entry.pool].page_offset_bits) \
            | (vaddr % page_size)

    def is_local(self, sm_id: int, pool: Pool, channel: int, bank: int) -> bool:
        """Local means the bank belongs to the issuing SM's color set; the
        reference color map applies under every policy so reports stay
        comparable.  DDR frames are never local to an SM."""
        if pool is not Pool.GDDR:
            return False
        return (channel, bank) in self.color_map.get(sm_id, ())

    def dump_rows(self) -> list[tuple]:
        return [
            (vpn, e.pool.value, e.channel, e.bank, e.row, e.owner)
            for vpn, e in sorted(self.entries.items())
        ]
