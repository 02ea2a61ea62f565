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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class SchedPolicy(str, Enum):
    CCWS = "ccws"
    TBAS_C = "tbas_c"
    TBAS_D = "tbas_d"
    TBAS_E = "tbas_e"


@dataclass(eq=False)
class WarpState:
    """A resident warp's program position and stall state.

    slots is the warp's memory instruction stream: per issue slot, one
    (virtual address, is_read) entry per distinct line its lanes touch, in
    first-lane order.  lines is the engine's translation of the current slot,
    None until the slot's first issue attempt.  The warp may issue when it has
    no outstanding reads and its wakeup cycle has passed; it is finished once
    every slot has issued and completed.
    """

    warp_id: int
    batch_id: int
    block_linear: int
    slots: list
    next_slot: int = 0
    lines: list | None = None
    ready_at: int = 0
    pending_lines: set = field(default_factory=set)
    finished: bool = False

    def is_ready(self, cycle: int) -> bool:
        return (not self.finished and not self.pending_lines
                and cycle >= self.ready_at)


def sufficient_active(warps: list[WarpState], threshold: int, cycle: int) -> bool:
    """True when at least `threshold` warps of the batch are ready to issue."""
    count = 0
    for w in warps:
        if w.is_ready(cycle):
            count += 1
            if count >= threshold:
                return True
    return False


class CcwsScheduler:
    """Static wavefront limiting with demote-on-stall.

    The running set holds at most `capacity` warps; a long (memory) stall
    demotes the warp to the pending set and the earliest-pending ready warp
    takes its place.  Round-robin among ready running warps.
    """

    policy = SchedPolicy.CCWS

    def __init__(self, capacity: int = 2):
        if capacity < 1:
            raise ValueError("running set capacity must be >= 1")
        self.capacity = capacity
        self.running: list[WarpState] = []
        self.pending: list[WarpState] = []
        self._rr = 0

    def add_warp(self, warp: WarpState, cycle: int):
        self.pending.append(warp)

    def _refill(self, cycle: int):
        while len(self.running) < self.capacity:
            idx = next((i for i, w in enumerate(self.pending)
                        if w.is_ready(cycle)), None)
            if idx is None:
                return
            self.running.append(self.pending.pop(idx))

    def demote_and_promote(self, warp: WarpState, cycle: int):
        if warp in self.running:
            self.running.remove(warp)
            self.pending.append(warp)
        self._refill(cycle)

    def on_long_stall(self, warp: WarpState, cycle: int):
        self.demote_and_promote(warp, cycle)

    def on_finish(self, warp: WarpState, cycle: int):
        if warp in self.running:
            self.running.remove(warp)
        elif warp in self.pending:
            self.pending.remove(warp)

    def select_warp(self, cycle: int) -> WarpState | None:
        self._refill(cycle)
        n = len(self.running)
        for k in range(n):
            i = (self._rr + 1 + k) % n
            w = self.running[i]
            if w.is_ready(cycle):
                self._rr = i
                return w
        return None

    def has_issuable(self, cycle: int) -> bool:
        """Whether select_warp would return a warp now; never mutates state."""
        if any(w.is_ready(cycle) for w in self.running):
            return True
        return (len(self.running) < self.capacity
                and any(w.is_ready(cycle) for w in self.pending))

    def assert_invariants(self, cycle: int):
        if len(self.running) > self.capacity:
            raise AssertionError("running set exceeds capacity")


class TbasScheduler:
    """Batch-granularity running set with pluggable promotion order."""

    def __init__(self, policy: SchedPolicy, threshold: int = 1):
        if policy is SchedPolicy.CCWS:
            raise ValueError("use CcwsScheduler for ccws")
        self.policy = policy
        self.threshold = threshold
        self.batch_warps: dict[int, list[WarpState]] = {}
        self.unfinished: dict[int, int] = {}
        self.ages: dict[int, int] = {}
        self.pending: list[int] = []
        self.running_batch: int | None = None
        self.last_demoted: int | None = None
        self._age_seq = 0
        self._rr = 0

    def add_warp(self, warp: WarpState, cycle: int):
        b = warp.batch_id
        if b not in self.batch_warps:
            self.batch_warps[b] = []
            self.ages[b] = self._age_seq
            self._age_seq += 1
            self.unfinished[b] = 0
        # a new batch, or one whose earlier warps have all finished (it left
        # the pending list then), waits for promotion; it keeps its first age
        if self.unfinished[b] == 0 and b != self.running_batch \
                and b not in self.pending:
            self.pending.append(b)
        self.batch_warps[b].append(warp)
        if not warp.finished:
            self.unfinished[b] += 1

    def _batch_finished(self, b: int) -> bool:
        return self.unfinished[b] == 0

    def _candidates(self, cycle: int) -> list[int]:
        return [b for b in self.pending
                if not self._batch_finished(b)
                and sufficient_active(self.batch_warps[b], 1, cycle)]

    def _pick_promotion(self, cycle: int) -> int | None:
        cands = self._candidates(cycle)
        if not cands:
            return None
        if self.policy is SchedPolicy.TBAS_C:
            # locality-blind pick: the batch offering the most ready warps,
            # pending order breaking ties
            def ready_count(b):
                return sum(1 for w in self.batch_warps[b] if w.is_ready(cycle))
            return max(cands, key=ready_count)
        if self.policy is SchedPolicy.TBAS_E:
            best = min(cands, key=lambda b: self.ages[b])
            assert self.ages[best] == min(self.ages[b] for b in cands)
            return best
        # tbas_d: walk the dispatch sequence starting after the demoted batch
        seq = sorted(self.ages, key=lambda b: self.ages[b])
        anchor = self.last_demoted if self.last_demoted in self.ages else None
        if anchor is None:
            return min(cands, key=lambda b: self.ages[b])
        i = seq.index(anchor)
        order = seq[i + 1:] + seq[:i + 1]
        for b in order:
            if b in cands:
                return b
        return None

    def _promote(self, cycle: int):
        b = self._pick_promotion(cycle)
        if b is not None:
            self.pending.remove(b)
            self.running_batch = b
            self._rr = 0

    def demote_and_promote(self, batch_id: int, cycle: int):
        if batch_id != self.running_batch:
            return
        self.running_batch = None
        self.last_demoted = batch_id
        if not self._batch_finished(batch_id):
            self.pending.append(batch_id)
        self._promote(cycle)

    def on_long_stall(self, warp: WarpState, cycle: int):
        b = self.running_batch
        if b is None or warp.batch_id != b:
            return
        if not sufficient_active(self.batch_warps[b], self.threshold, cycle):
            self.demote_and_promote(b, cycle)

    def on_finish(self, warp: WarpState, cycle: int):
        b = warp.batch_id
        self.unfinished[b] -= 1
        if self._batch_finished(b):
            if b == self.running_batch:
                self.running_batch = None
            elif b in self.pending:
                self.pending.remove(b)

    def select_warp(self, cycle: int) -> WarpState | None:
        if self.running_batch is None or self._batch_finished(self.running_batch):
            if self.running_batch is not None:
                self.running_batch = None
            self._promote(cycle)
        if self.running_batch is None:
            return None
        warps = self.batch_warps[self.running_batch]
        n = len(warps)
        for k in range(n):
            i = (self._rr + 1 + k) % n
            w = warps[i]
            if w.is_ready(cycle):
                self._rr = i
                return w
        return None

    def has_issuable(self, cycle: int) -> bool:
        """Whether select_warp would return a warp now; never mutates state."""
        b = self.running_batch
        if b is not None and not self._batch_finished(b):
            return any(w.is_ready(cycle) for w in self.batch_warps[b])
        return bool(self._candidates(cycle))

    def assert_invariants(self, cycle: int):
        if self.running_batch is not None:
            batches = {w.batch_id for w in self.batch_warps[self.running_batch]}
            if batches - {self.running_batch}:
                raise AssertionError("running set mixes thread batches")


def make_scheduler(policy: SchedPolicy, *, capacity: int = 2, threshold: int = 1):
    if policy is SchedPolicy.CCWS:
        return CcwsScheduler(capacity=capacity)
    return TbasScheduler(policy, threshold=threshold)
