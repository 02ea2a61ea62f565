"""Per-SM warp scheduling.

All policies keep a small running set and throttle the rest of the resident
warps in a pending set; a warp that stalls on memory is demoted and a
replacement is promoted.  The policies differ in what the running set holds
and in who gets promoted:

    ccws    running set of individual warps; promote the longest-pending
            ready warp (arrival order).
    tbas_c  running set is one whole thread batch; when the batch runs out of
            ready warps the batch is demoted and the pending batch with the
            most ready warps is promoted, blind to locality.
    tbas_d  as tbas_c, but promote the sequential successor of the demoted
            batch, which under packed page allocation is the batch most
            likely to hit the same DRAM row.
    tbas_e  as tbas_c, but promote the oldest pending batch (earliest first
            dispatch) with a ready warp, damping request bursts by finishing
            old batches before touching new rows.

Readiness is event-driven.  A warp is ready when it has no outstanding reads
and its `ready_at` cycle has passed (`WarpState.is_ready`).  Rather than ask
every warp on every query, each scheduler keeps an index of its ready warps
(a ready bitmask per batch under tbas_*, a ready set under ccws), and the
engine reports each change of a warp's readiness:

    add_warp(w)     w arrives at dispatch, ready; the scheduler indexes it
    on_issue(w)     w issued an instruction, so it is not ready; the engine
                    calls this before on_long_stall
    on_long_stall(w)
                    w, the warp that select_warp just returned, issued a
                    read and waits for it
    wake(w)         w is ready again: its count of outstanding reads is 0
                    and the cycle has reached its ready_at
    on_finish(w)    w finished; the scheduler forgets it

The schedulers keep no clock.  The engine's `World` holds the one heap of
future wake-ups and, at the start of each step and of each skip check, calls
`wake` for every warp whose `ready_at` has come, before it asks any
scheduler anything.  `is_ready` stays the oracle: the tests compare every
warp's place in the index against it, after each action of the scheduler
tests and after each engine step; a run does not check the index itself.

`World` asks `has_issuable` again after every engine action that calls one
of these hooks, and keeps the SMs whose answer is True in one set,
`World.issuable`; the issue phase and the skip check read the set, not the
schedulers.  The query never changes the schedule, so an extra ask cannot
move it, and whenever the answer is False `select_warp` returns None and
changes nothing either, so an SM outside the set need not be asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class SchedPolicy(str, Enum):
    CCWS = "ccws"
    TBAS_C = "tbas_c"
    TBAS_D = "tbas_d"
    TBAS_E = "tbas_e"


@dataclass(eq=False)
class WarpState:
    """A resident warp's program position and stall state.

    slots is the warp's memory instruction stream, which gen_block_trace
    works out from the warp's element runs: per issue slot, one (virtual
    address, is_read) per distinct line its lanes touch (a lane touches the
    line of its element's first byte), in first-lane order, with the first
    such lane's address.  A line never spans two pages, so the lines stay
    distinct after translation, and each reply settles exactly one of the
    slot's reads.  lines, bound and missed are the engine's issue plan for
    the current slot, kept until the slot issues: lines its translated
    lines, from its first issue attempt; bound those lines decoded and the
    number bound for each controller, from its first attempt that sends a
    line; missed the SM's L1 fill count at its last probe that hit nothing,
    None when there is none.  pending counts the reads issued and not yet
    replied to.  The warp may issue when pending is 0 and its wakeup cycle
    has passed; it is finished once every slot has issued and completed.
    """

    warp_id: int
    batch_id: int
    block_linear: int
    slots: list
    next_slot: int = 0
    lines: list | None = None
    bound: tuple | None = None
    missed: int | None = None
    ready_at: int = 0
    pending: int = 0
    finished: bool = False

    def is_ready(self, cycle: int) -> bool:
        return not self.finished and not self.pending and cycle >= self.ready_at


class CcwsScheduler:
    """Static wavefront limiting with demote-on-stall.

    The running set holds at most `capacity` warps (the config's
    `running_set_warps`, at least 1 by its bound); a long (memory) stall
    demotes the warp to the pending set and the earliest-pending ready warp
    takes its place.  Round-robin among ready running warps.
    """

    policy = SchedPolicy.CCWS

    def __init__(self, capacity: int = 2):
        self.capacity = capacity
        self.running: list[WarpState] = []
        self.pending: list[WarpState] = []
        # the ready warps, each of them either running or pending
        self.ready: set[WarpState] = set()
        self._rr = 0

    def add_warp(self, warp: WarpState):
        self.pending.append(warp)
        self.ready.add(warp)

    def wake(self, warp: WarpState):
        self.ready.add(warp)

    def on_issue(self, warp: WarpState):
        self.ready.discard(warp)

    def _pending_ready(self) -> bool:
        # every ready warp is either running or pending
        n = len(self.ready)
        for w in self.running:
            if w in self.ready:
                n -= 1
        return n > 0

    def _refill(self):
        while len(self.running) < self.capacity and self._pending_ready():
            i = next(i for i, w in enumerate(self.pending) if w in self.ready)
            self.running.append(self.pending.pop(i))

    def on_long_stall(self, warp: WarpState):
        self.running.remove(warp)
        self.pending.append(warp)
        self._refill()

    def on_finish(self, warp: WarpState):
        self.ready.discard(warp)
        if warp in self.running:
            self.running.remove(warp)
        else:  # every unfinished warp is running or pending
            self.pending.remove(warp)

    def select_warp(self) -> WarpState | None:
        self._refill()
        n = len(self.running)
        for k in range(n):
            i = (self._rr + 1 + k) % n
            w = self.running[i]
            if w in self.ready:
                self._rr = i
                return w
        return None

    def has_issuable(self) -> bool:
        """Whether select_warp would return a warp now, without changing the
        schedule."""
        for w in self.running:
            if w in self.ready:
                return True
        # no running warp is ready, so every ready warp is pending
        return len(self.running) < self.capacity and bool(self.ready)


class TbasScheduler:
    """Batch-granularity running set with pluggable promotion order."""

    def __init__(self, policy: SchedPolicy, threshold: int = 1):
        self.policy = policy
        self.threshold = threshold
        self.batch_warps: dict[int, list[WarpState]] = {}
        # bit i of ready_mask[b] is set when batch_warps[b][i] is ready
        self.ready_mask: dict[int, int] = {}
        self._bit: dict[WarpState, int] = {}
        self.unfinished: dict[int, int] = {}
        self.ages: dict[int, int] = {}
        self.pending: list[int] = []
        self.running_batch: int | None = None
        self.last_demoted: int | None = None
        self._rr = 0

    def wake(self, warp: WarpState):
        self.ready_mask[warp.batch_id] |= self._bit[warp]

    def on_issue(self, warp: WarpState):
        self.ready_mask[warp.batch_id] &= ~self._bit[warp]

    def add_warp(self, warp: WarpState):
        b = warp.batch_id
        if b not in self.batch_warps:
            self.batch_warps[b] = []
            self.ready_mask[b] = 0
            self.ages[b] = len(self.ages)
            self.unfinished[b] = 0
        # a new batch, or one whose earlier warps have all finished (then
        # `on_finish` took it off), waits for promotion; it keeps its first age
        if self.unfinished[b] == 0:
            self.pending.append(b)
        self._bit[warp] = 1 << len(self.batch_warps[b])
        self.batch_warps[b].append(warp)
        self.unfinished[b] += 1
        self.wake(warp)

    def _pick_promotion(self) -> int | None:
        cands = [b for b in self.pending if self.ready_mask[b]]
        if not cands:
            return None
        if self.policy is SchedPolicy.TBAS_C:
            # locality-blind pick: the batch offering the most ready warps,
            # pending order breaking ties
            return max(cands, key=lambda b: self.ready_mask[b].bit_count())
        # the first candidate in age order (ages are 0, 1, ... in dispatch
        # order): from age 0 under tbas_e, and under tbas_d cyclically from
        # the batch after the demoted one
        start = 0
        if self.policy is SchedPolicy.TBAS_D and self.last_demoted is not None:
            start = self.ages[self.last_demoted] + 1
        n = len(self.ages)
        return min(cands, key=lambda b: (self.ages[b] - start) % n)

    def _promote(self):
        b = self._pick_promotion()
        if b is not None:
            self.pending.remove(b)
            self.running_batch = b
            self._rr = 0

    def on_long_stall(self, warp: WarpState):
        b = self.running_batch
        if self.ready_mask[b].bit_count() < self.threshold:
            # a running batch has unfinished warps: on_finish clears it
            self.running_batch = None
            self.last_demoted = b
            self.pending.append(b)
            self._promote()

    def on_finish(self, warp: WarpState):
        b = warp.batch_id
        self.ready_mask[b] &= ~self._bit[warp]
        self.unfinished[b] -= 1
        if self.unfinished[b] == 0:
            if b == self.running_batch:
                self.running_batch = None
            else:  # every batch with unfinished warps is running or pending
                self.pending.remove(b)

    def select_warp(self) -> WarpState | None:
        if self.running_batch is None:
            self._promote()
        if self.running_batch is None:
            return None
        mask = self.ready_mask[self.running_batch]
        if not mask:
            return None
        # round-robin: the next ready warp after the last pick, cyclically
        after = mask >> (self._rr + 1)
        if after:
            i = self._rr + (after & -after).bit_length()
        else:
            i = (mask & -mask).bit_length() - 1
        self._rr = i
        return self.batch_warps[self.running_batch][i]

    def has_issuable(self) -> bool:
        """Whether select_warp would return a warp now, without changing the
        schedule."""
        b = self.running_batch
        if b is not None:
            return self.ready_mask[b] != 0
        return any(self.ready_mask[b] for b in self.pending)


def make_scheduler(policy: SchedPolicy, *, capacity: int = 2, threshold: int = 1):
    if policy is SchedPolicy.CCWS:
        return CcwsScheduler(capacity=capacity)
    return TbasScheduler(policy, threshold=threshold)
