"""Thread block dispatch: interleaved baseline vs. serial per-SM ranges.

Both are one rule, `Dispatcher`: an SM pops the next id of its `[head,
tail)` range of block ids.  Interleaved dispatch gives every SM one shared
range, `[0, total_blocks)`, served lowest SM id first, or in a shuffled
order when `random_dispatch_seed` is set.  Serial dispatch gives each SM a
contiguous range of its own from `partition_blocks`, computed once before
launch so that batches stay whole and the maximum per-SM block load is
minimal, and is never shuffled.  Block `i` belongs to batch `i // stride`
(the plan's stride, see `gmemsim.batching`), so every batch holds `stride`
blocks but the last, which holds the rest.  The SM count and the stride
are at least 1 by their config bounds, which are checked at load.

The dispatcher answers three calls: `has_block(sm_id)`, whether a block is
left for that SM; `next_block(sm_id)`, which hands it out (None exactly
when `has_block` is false); and `order_idle_sms(idle)`, the order in which
the SMs with room, listed in SM-id order, are served.
"""

from __future__ import annotations

import random
from enum import Enum


class DispatchKind(str, Enum):
    INTERLEAVED = "interleaved"
    SERIAL = "serial"


def _pack(sizes: list[int], num_sms: int, cap: int) -> list[int] | None:
    """Each SM's range tail when the SMs in turn, lowest id first, take
    whole batches of `sizes` blocks while their load stays within `cap`
    (at least the largest batch), or None when `num_sms` SMs cannot hold
    every batch so.  Filling each SM as far as it goes is optimal: if this
    fails at `cap`, no contiguous split does."""
    tails, tail, load = [], 0, 0
    for s in sizes:
        if load + s > cap:
            tails.append(tail)
            load = 0
        load += s
        tail += s
    if len(tails) >= num_sms:
        return None
    return tails + [tail] * (num_sms - len(tails))


def partition_blocks(total_blocks: int, num_sms: int,
                     stride: int = 1) -> list[list[int]]:
    """Contiguous per-SM [head, tail) block ranges balanced at batch granularity.

    The split minimizes the maximum per-SM block count without cutting a batch
    in half; ties resolve by filling lower SM ids first.  If a single batch is
    larger than an even share, batch boundaries cannot balance the load and
    the split falls back to an even block-granular partition.
    """
    full, rest = divmod(total_blocks, stride)
    sizes = [stride] * full + ([rest] if rest else [])
    even_share = -(-total_blocks // num_sms)
    if max(sizes, default=0) > even_share:
        q, r = divmod(total_blocks, num_sms)
        return [[i * q + min(i, r), (i + 1) * q + min(i + 1, r)]
                for i in range(num_sms)]
    lo, hi = even_share, total_blocks
    while lo < hi:
        mid = (lo + hi) // 2
        if _pack(sizes, num_sms, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    tails = _pack(sizes, num_sms, lo)
    return [[head, tail] for head, tail in zip([0, *tails], tails)]


class Dispatcher:
    """Each SM pops ids from its range `ranges[sm_id] == [head, tail]`;
    SMs whose entries are one list object share its blocks.  A seed
    shuffles the order in which SMs with room are served, standing in for
    hardware that picks SMs randomly."""

    def __init__(self, ranges: list[list[int]], seed: int | None = None):
        self.ranges = ranges
        self._rng = random.Random(seed) if seed is not None else None

    def order_idle_sms(self, idle_sms: list[int]) -> list[int]:
        if self._rng is not None:
            self._rng.shuffle(idle_sms)
        return idle_sms

    def has_block(self, sm_id: int) -> bool:
        head, tail = self.ranges[sm_id]
        return head < tail

    def next_block(self, sm_id: int) -> int | None:
        if not self.has_block(sm_id):
            return None
        self.ranges[sm_id][0] += 1
        return self.ranges[sm_id][0] - 1
