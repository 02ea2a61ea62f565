"""The page allocator as plain lists, kept as the reference that
`gmemsim.memmap.PageTable` is compared against.

Each walk is the full list of its frames in walk order, worked out from the
layout's bit widths alone, and every allocation takes the first frame of its
list that is not in use.  Frames are never freed, so the first free frame of
a walk is the one a walk that resumes where it stopped would reach.

A frame number is the physical address shifted down by the page-offset
width.  Its bits, LSB first, are the row slot (the column bits above the
page offset), the channel, the bank and the row.
"""

from gmemsim.memmap import CPU_OWNER, PageEntry, PagePolicy, Pool


def _widths(layout) -> tuple[int, int, int, int]:
    """(slot, channel, bank, whole frame number) bit widths of a layout's
    frame numbers; `slot` is negative when a page spans more than a row."""
    slot = layout.byte_offset_bits + layout.column_bits - layout.page_offset_bits
    return (slot, layout.channel_bits, layout.bank_bits,
            slot + layout.channel_bits + layout.bank_bits + layout.row_bits)


def frame_scan(layout) -> list[int]:
    """Every frame of a pool, in frame-number order."""
    return list(range(1 << _widths(layout)[3]))


def row_walk(layout, pairs, rows: tuple[int, int]) -> list[int]:
    """The frames of the given (channel, bank) pairs in the rows [lo, hi), in
    (row, pair, slot) order: a row's slots fill before the next pair, and
    the pairs' row before the next row."""
    slot, channel, bank, _ = _widths(layout)
    return [(((row << bank | b) << channel | ch) << slot) | s
            for row in range(*rows) for ch, b in pairs
            for s in range(1 << slot)]


def frame_fields(layout, frame: int) -> tuple[int, int, int]:
    """(channel, bank, row) of a frame."""
    _, channel, bank, _ = _widths(layout)
    shift = layout.page_offset_bits - layout.byte_offset_bits - layout.column_bits
    rest = frame << shift if shift > 0 else frame >> -shift
    return (rest & ((1 << channel) - 1), (rest >> channel) & ((1 << bank) - 1),
            rest >> (channel + bank))


class ReferencePageTable:
    def __init__(self, policy: PagePolicy, layouts: dict, color_map: dict, *,
                 region=None, bw_ratio=(2, 1), cpu_pool: Pool = Pool.DDR):
        self.policy = policy
        self.layouts = layouts
        self.color_map = color_map
        self.region = region
        self.bw_ratio = bw_ratio
        self.cpu_pool = cpu_pool
        self.entries: dict[int, PageEntry] = {}
        self.spilled_pages = 0
        self.pool_pages = {Pool.GDDR: 0, Pool.DDR: 0}
        self.used = {Pool.GDDR: set(), Pool.DDR: set()}

    def _first_free(self, pool: Pool, frames: list[int],
                    rows: tuple[int, int]) -> int:
        for frame in frames:
            if frame not in self.used[pool]:
                return frame
        raise ValueError(f"{pool.value} pool exhausted: every frame of rows "
                         f"[{rows[0]}, {rows[1]}) is in use")

    def _scan(self, pool: Pool) -> int:
        layout = self.layouts[pool]
        return self._first_free(pool, frame_scan(layout),
                                (0, 1 << layout.row_bits))

    def allocate_page(self, vpn: int, owner: int) -> PageEntry:
        gddr = self.layouts[Pool.GDDR]
        all_pairs = [(ch, b) for ch in range(1 << gddr.channel_bits)
                     for b in range(1 << gddr.bank_bits)]
        hetero = self.policy is PagePolicy.COLORING_HETERO
        if owner == CPU_OWNER:
            pool = self.cpu_pool
            if hetero and pool is Pool.GDDR:
                rows = self.region.cpu_rows
                frame = self._first_free(pool, row_walk(gddr, all_pairs, rows),
                                         rows)
            else:
                frame = self._scan(pool)
        elif self.policy is PagePolicy.FIRST_TOUCH:
            pool = Pool.GDDR
            frame = self._scan(pool)
        elif self.policy is PagePolicy.BW_AWARE:
            g, d = self.bw_ratio
            pool = (Pool.GDDR if self.pool_pages[Pool.GDDR] * d
                    <= self.pool_pages[Pool.DDR] * g else Pool.DDR)
            frame = self._scan(pool)
        else:
            pool = Pool.GDDR
            rows = (self.region.gpu_rows if hetero
                    else (0, 1 << gddr.row_bits))
            colored = [f for f in row_walk(gddr, self.color_map[owner], rows)
                       if f not in self.used[pool]]
            if colored:
                frame = colored[0]
            else:
                frame = (self._first_free(pool, row_walk(gddr, all_pairs, rows),
                                          rows)
                         if hetero else self._scan(pool))
                self.spilled_pages += 1
        self.used[pool].add(frame)
        channel, bank, row = frame_fields(self.layouts[pool], frame)
        entry = PageEntry(pool=pool, frame=frame, channel=channel, bank=bank,
                          row=row, owner=owner)
        self.entries[vpn] = entry
        self.pool_pages[pool] += 1
        return entry
