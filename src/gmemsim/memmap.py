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
        """The address of the given fields, each within its width."""
        addr = row
        addr = (addr << self.bank_bits) | bank
        addr = (addr << self.channel_bits) | channel
        addr = (addr << self.column_bits) | column
        addr = (addr << self.byte_offset_bits) | byte
        return addr

    def frame_number(self, channel: int, bank: int, row: int, slot: int) -> int:
        """Frame holding the slot-th page of one (channel, bank) row."""
        return (self.compose(channel, bank, row) >> self.page_offset_bits) + slot

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

    Frames are handed out from fixed walks, each a generator made once and
    resumed with `next`, which skips the frames in use as it reaches them;
    no frame is freed, so no walk looks back, and the used-frame sets keep
    the mapping injective.  A pool's scan walks its frame numbers in order.
    A colored GPU walk goes in (row, color, slot) order over its SM's
    colors, so that consecutive pages of a batch fill a row before a new row
    is opened and successive rows rotate over the SM's banks.  `coloring`
    walks every row and spills to the GDDR scan.  `coloring_hetero` walks
    the GPU rows and spills to them in any bank, so that no GPU page enters
    the CPU's rows, and walks the CPU rows in any bank for CPU pages in
    GDDR.
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
        gddr = layouts[Pool.GDDR]
        # `HardwareConfig.validate` makes the pools share one page size
        self.page_size = gddr.page_size
        hetero = policy is PagePolicy.COLORING_HETERO
        if hetero and region is None:
            raise ValueError("coloring_hetero requires a frame region split")
        # (free frames, pool, rows) per walk that can run out
        self._scans = {pool: (self._free(pool, range(layout.num_frames)), pool,
                              (0, layout.num_rows))
                       for pool, layout in layouts.items()}
        gpu_rows = region.gpu_rows if hetero else (0, gddr.num_rows)
        self._colored = {sm: self._row_frames(colors, gpu_rows)
                         for sm, colors in color_map.items()}
        all_pairs = [(ch, b) for ch in range(gddr.num_channels)
                     for b in range(gddr.num_banks)]
        self._spill = ((self._row_frames(all_pairs, gpu_rows), Pool.GDDR,
                        gpu_rows) if hetero else self._scans[Pool.GDDR])
        self._cpu = ((self._row_frames(all_pairs, region.cpu_rows), Pool.GDDR,
                      region.cpu_rows) if hetero and cpu_pool is Pool.GDDR
                     else self._scans[cpu_pool])

    # frame walks ------------------------------------------------------------

    def _free(self, pool: Pool, frames):
        """The frames of `frames` that are not in use as the walk reaches
        them."""
        used = self._used[pool]
        return (f for f in frames if f not in used)

    def _row_frames(self, pairs, rows: tuple[int, int]):
        """Free GDDR frames in (row, (channel, bank), slot) order over the
        given pairs and rows [lo, hi)."""
        layout = self.layouts[Pool.GDDR]
        slots = range(layout.pages_per_row)
        return self._free(Pool.GDDR, (
            layout.frame_number(ch, bank, row, slot)
            for row in range(*rows) for ch, bank in pairs for slot in slots))

    @staticmethod
    def _take(walk) -> tuple[Pool, int]:
        """The next free frame of a (frames, pool, rows) walk, with its
        pool."""
        frames, pool, (lo, hi) = walk
        frame = next(frames, None)
        if frame is None:
            raise ValueError(f"{pool.value} pool exhausted: every frame of "
                             f"rows [{lo}, {hi}) is in use")
        return pool, frame

    def _bw_pool(self) -> Pool:
        g, d = self.bw_ratio
        # place so that counts track the bandwidth ratio (largest remainder)
        if self.pool_pages[Pool.GDDR] * d <= self.pool_pages[Pool.DDR] * g:
            return Pool.GDDR
        return Pool.DDR

    # allocation -----------------------------------------------------------

    def allocate_page(self, vpn: int, owner_sm: int) -> PageEntry:
        """Map an unmapped virtual page on first touch; owner_sm is
        CPU_OWNER for CPU pages.  Colored allocation that runs out of its
        color set spills and counts the spill."""
        if owner_sm == CPU_OWNER:
            pool, frame = self._take(self._cpu)
        elif self.policy is PagePolicy.FIRST_TOUCH:
            pool, frame = self._take(self._scans[Pool.GDDR])
        elif self.policy is PagePolicy.BW_AWARE:
            pool, frame = self._take(self._scans[self._bw_pool()])
        else:  # COLORING, COLORING_HETERO
            pool, frame = Pool.GDDR, next(self._colored[owner_sm], None)
            if frame is None:
                _, frame = self._take(self._spill)
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
