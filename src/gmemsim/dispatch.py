"""Thread block dispatch: interleaved baseline vs. serial per-SM ranges.

Serial dispatch gives every SM a contiguous [head, tail) range of block ids,
computed once before launch so that batch boundaries are respected and the
maximum per-SM block load is minimal.  Block `i` belongs to batch
`i // stride`, so every batch holds `stride` blocks but the last, which holds
the rest.  Each SM then pops ids locally and never waits on a central
dispatcher.

Both dispatchers answer the same three calls: `has_block(sm_id)`, whether a
block is left for that SM; `next_block(sm_id)`, which hands it out (None
exactly when `has_block` is false); and `order_idle_sms(idle)`, the order in
which SMs with room are served.
"""

from __future__ import annotations

import random
from enum import Enum


class DispatchKind(str, Enum):
    INTERLEAVED = "interleaved"
    SERIAL = "serial"


def _fits(sizes: list[int], num_sms: int, cap: int) -> bool:
    runs, load = 1, 0
    for s in sizes:
        if load + s <= cap:
            load += s
        else:
            runs += 1
            load = s
            if runs > num_sms:
                return False
    return True


def partition_blocks(total_blocks: int, num_sms: int,
                     stride: int = 1) -> list[tuple[int, int]]:
    """Contiguous per-SM [head, tail) block ranges balanced at batch granularity.

    The split minimizes the maximum per-SM block count without cutting a batch
    in half; ties resolve by filling lower SM ids first.  If a single batch is
    larger than an even share, batch boundaries cannot balance the load and
    the split falls back to an even block-granular partition.
    """
    if num_sms < 1:
        raise ValueError("num_sms must be >= 1")
    if total_blocks == 0:
        return [(0, 0)] * num_sms
    full, rest = divmod(total_blocks, stride)
    sizes = [stride] * full + ([rest] if rest else [])
    even_share = -(-total_blocks // num_sms)
    if max(sizes) > even_share:
        ranges = []
        start = 0
        for sm in range(num_sms):
            take = total_blocks // num_sms + (1 if sm < total_blocks % num_sms else 0)
            ranges.append((start, start + take))
            start += take
        return ranges
    lo, hi = max(max(sizes), even_share), total_blocks
    while lo < hi:
        mid = (lo + hi) // 2
        if _fits(sizes, num_sms, mid):
            hi = mid
        else:
            lo = mid + 1
    cap = lo
    ranges = []
    boundary, i = 0, 0
    for sm in range(num_sms):
        load = 0
        begin = boundary
        while i < len(sizes) and load + sizes[i] <= cap:
            load += sizes[i]
            boundary += sizes[i]
            i += 1
        ranges.append((begin, boundary))
    if i != len(sizes):
        raise AssertionError("batch partition failed to place every batch")
    return ranges


class SerialDispatcher:
    """Serial dispatch: each SM pops ids from its own [head, tail) range,
    kept as `ranges[sm_id] == [head, tail]`."""

    def __init__(self, ranges: list[tuple[int, int]]):
        self.ranges = [[head, tail] for head, tail in ranges]

    def order_idle_sms(self, idle_sms: list[int]) -> list[int]:
        return idle_sms

    def has_block(self, sm_id: int) -> bool:
        head, tail = self.ranges[sm_id]
        return head < tail

    def next_block(self, sm_id: int) -> int | None:
        if not self.has_block(sm_id):
            return None
        self.ranges[sm_id][0] += 1
        return self.ranges[sm_id][0] - 1


class InterleavedDispatcher:
    """Baseline dispatcher: a global sequential id counter handed to whichever
    SM reports an idle slot, lowest SM id first on ties.  A seeded mode
    shuffles the per-cycle idle order instead, standing in for hardware that
    picks SMs randomly."""

    def __init__(self, total_blocks: int, seed: int | None = None):
        self.total_blocks = total_blocks
        self.next_id = 0
        self._rng = random.Random(seed) if seed is not None else None

    def order_idle_sms(self, idle_sms: list[int]) -> list[int]:
        idle = sorted(idle_sms)
        if self._rng is not None:
            self._rng.shuffle(idle)
        return idle

    def has_block(self, sm_id: int) -> bool:
        return self.next_id < self.total_blocks

    def next_block(self, sm_id: int) -> int | None:
        if not self.has_block(sm_id):
            return None
        self.next_id += 1
        return self.next_id - 1
