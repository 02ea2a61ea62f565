import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmemsim.sched import (CcwsScheduler, SchedPolicy, TbasScheduler,
                           WarpState, make_scheduler)


def warp(wid, batch=0, slots=2):
    return WarpState(warp_id=wid, batch_id=batch,
                     block_linear=batch, slots=[[None]] * slots)


def stall(s, w, cycle=0):
    """w issues a read at `cycle` and waits for it."""
    s.on_issue(w, cycle)
    w.pending_lines.add(("gddr", w.warp_id))


def wake(s, w, cycle=0):
    """w's reads are delivered; it may issue again from `cycle`."""
    w.pending_lines.clear()
    w.ready_at = cycle
    s.wake(w, cycle)


def test_long_stall_demotes_below_threshold():
    # tbas_d promotes the demoted batch's successor, so the demotion shows
    s = TbasScheduler(SchedPolicy.TBAS_D, threshold=2)
    warps = [warp(i, batch=0) for i in range(3)] + [warp(3, batch=1)]
    for w in warps:
        s.add_warp(w, 0)
    first = s.select_warp(0)
    stall(s, first)
    s.on_long_stall(first, 0)  # 2 of batch 0's warps are still ready
    assert s.running_batch == 0
    second = s.select_warp(0)
    stall(s, second)
    s.on_long_stall(second, 0)  # 1 ready warp is fewer than 2
    assert s.running_batch == 1
    assert s.pending == [0]


def test_ccws_round_robin_among_ready():
    s = CcwsScheduler(capacity=2)
    w0, w1 = warp(0), warp(1)
    s.add_warp(w0, 0)
    s.add_warp(w1, 0)
    first = s.select_warp(0)
    second = s.select_warp(0)
    assert {first, second} == {w0, w1}
    assert first is not second


def test_ccws_skips_stalled_runner():
    s = CcwsScheduler(capacity=2)
    w0, w1 = warp(0), warp(1)
    s.add_warp(w0, 0)
    s.add_warp(w1, 0)
    s.select_warp(0)
    stall(s, w0)
    assert s.select_warp(0) is w1


def test_ccws_demote_promotes_arrival_order():
    s = CcwsScheduler(capacity=2)
    warps = [warp(i) for i in range(4)]
    for w in warps:
        s.add_warp(w, 0)
    s.select_warp(0)
    stall(s, warps[0])
    s.on_long_stall(warps[0], 0)
    assert set(s.running) == {warps[1], warps[2]}
    assert warps[0] in s.pending


def test_ccws_all_finished_returns_none():
    s = CcwsScheduler(capacity=2)
    w = warp(0)
    s.add_warp(w, 0)
    s.select_warp(0)
    w.finished = True
    s.on_finish(w, 0)
    assert s.select_warp(1) is None


def test_ccws_capacity_invariant():
    s = CcwsScheduler(capacity=2)
    for i in range(6):
        s.add_warp(warp(i), 0)
    s.select_warp(0)
    s.assert_invariants(0)
    assert len(s.running) == 2


def test_tbas_running_set_single_batch():
    s = TbasScheduler(SchedPolicy.TBAS_E)
    warps = [warp(i, batch=i // 2) for i in range(8)]
    for w in warps:
        s.add_warp(w, 0)
    picked = s.select_warp(0)
    assert picked.batch_id == 0
    s.assert_invariants(0)
    # both warps of batch 0 issue before any other batch
    second = s.select_warp(1)
    assert second.batch_id == 0 and second is not picked


def test_tbas_demotes_whole_batch_when_insufficient():
    s = TbasScheduler(SchedPolicy.TBAS_C)
    warps = [warp(i, batch=i // 2) for i in range(4)]
    for w in warps:
        s.add_warp(w, 0)
    w = s.select_warp(0)
    stall(s, w)
    s.on_long_stall(w, 0)  # other batch-0 warp still ready: batch stays
    assert s.running_batch == 0
    other = s.select_warp(0)
    stall(s, other)
    s.on_long_stall(other, 0)
    assert s.running_batch == 1
    assert 0 in s.pending


def test_tbas_d_promotes_successor():
    s = TbasScheduler(SchedPolicy.TBAS_D)
    warps = [warp(i, batch=i) for i in range(4)]
    for w in warps:
        s.add_warp(w, 0)
    s.select_warp(0)
    assert s.running_batch == 0
    stall(s, warps[0])
    s.on_long_stall(warps[0], 0)
    assert s.running_batch == 1


def test_tbas_d_wraps_and_skips_unready():
    s = TbasScheduler(SchedPolicy.TBAS_D)
    warps = [warp(i, batch=i) for i in range(4)]
    for w in warps:
        s.add_warp(w, 0)
    s.select_warp(0)
    stall(s, warps[0])
    stall(s, warps[1])  # successor not ready
    s.on_long_stall(warps[0], 0)
    assert s.running_batch == 2


def test_tbas_e_promotes_oldest_ready():
    s = TbasScheduler(SchedPolicy.TBAS_E)
    w1 = warp(1, batch=1)
    w2 = warp(2, batch=2)
    s.add_warp(w1, 5)
    s.add_warp(w2, 10)
    stall(s, w1)
    picked = s.select_warp(0)
    assert picked is w2
    wake(s, w1)
    stall(s, w2)
    s.on_long_stall(w2, 0)
    assert s.running_batch == 1  # oldest ready batch


def test_tbas_no_candidate_shrinks_running_set():
    s = TbasScheduler(SchedPolicy.TBAS_C)
    w0 = warp(0, batch=0)
    w1 = warp(1, batch=1)
    s.add_warp(w0, 0)
    s.add_warp(w1, 0)
    s.select_warp(0)
    stall(s, w0)
    stall(s, w1)
    s.on_long_stall(w0, 0)
    assert s.running_batch is None
    assert s.select_warp(0) is None
    wake(s, w1, cycle=3)
    assert s.select_warp(3) is w1


def test_tbas_batch_finish_promotes_next():
    s = TbasScheduler(SchedPolicy.TBAS_D)
    w0 = warp(0, batch=0, slots=1)
    w1 = warp(1, batch=1, slots=1)
    s.add_warp(w0, 0)
    s.add_warp(w1, 0)
    assert s.select_warp(0) is w0
    w0.finished = True
    s.on_finish(w0, 0)
    assert s.select_warp(1) is w1


def test_has_issuable_is_pure():
    s = TbasScheduler(SchedPolicy.TBAS_E)
    w0 = warp(0, batch=0)
    s.add_warp(w0, 0)
    before = (s.running_batch, list(s.pending))
    assert s.has_issuable(0)
    assert (s.running_batch, list(s.pending)) == before


def test_make_scheduler_dispatches_classes():
    assert isinstance(make_scheduler(SchedPolicy.CCWS), CcwsScheduler)
    for p in (SchedPolicy.TBAS_C, SchedPolicy.TBAS_D, SchedPolicy.TBAS_E):
        sched = make_scheduler(p)
        assert isinstance(sched, TbasScheduler)
        assert sched.policy is p
    with pytest.raises(ValueError):
        TbasScheduler(SchedPolicy.CCWS)


@pytest.mark.parametrize("policy", list(SchedPolicy))
def test_woken_warp_waits_for_its_ready_at(policy):
    s = make_scheduler(policy)
    w = warp(0)
    s.add_warp(w, 0)
    assert s.select_warp(0) is w
    stall(s, w)
    s.on_long_stall(w, 0)
    w.pending_lines.clear()
    w.ready_at = 5
    s.wake(w, 2)  # delivered at 2, computing until 5
    assert s.next_wake(2) == 5
    assert not s.has_issuable(4)
    assert s.select_warp(4) is None
    assert s.has_issuable(5)
    assert s.next_wake(5) is None
    assert s.select_warp(5) is w



@pytest.mark.parametrize("policy", list(SchedPolicy))
def test_finished_warp_leaves_the_index(policy):
    # the engine finishes a warp only once it is no longer indexed as ready;
    # the scheduler still drops a warp that finishes while ready (a) or
    # while it waits for its wake-up (c, d)
    s = make_scheduler(policy)
    a, b, c, d = (warp(i) for i in range(4))
    for w in (a, b, c, d):
        s.add_warp(w, 0)
    for w, at in ((b, 5), (c, 3), (d, 4)):
        s.on_issue(w, 0)
        w.ready_at = at
        s.wake(w, 0)
    for w in (a, c, d):
        w.finished = True
        s.on_finish(w, 1)
    assert not s.has_issuable(3)
    assert s.next_wake(3) == 5
    assert s.select_warp(5) is b

# Reference schedulers that ask every warp `is_ready(cycle)` on each query,
# as the schedulers did before they kept a ready index.

class CcwsReference:
    def __init__(self, capacity):
        self.capacity = capacity
        self.running, self.pending, self.rr = [], [], 0

    def add_warp(self, w, cycle):
        self.pending.append(w)

    def _refill(self, cycle):
        while len(self.running) < self.capacity:
            ready = [w for w in self.pending if w.is_ready(cycle)]
            if not ready:
                return
            self.pending.remove(ready[0])
            self.running.append(ready[0])

    def on_long_stall(self, w, cycle):
        if w in self.running:
            self.running.remove(w)
            self.pending.append(w)
        self._refill(cycle)

    def on_finish(self, w, cycle):
        (self.running if w in self.running else self.pending).remove(w)

    def select_warp(self, cycle):
        self._refill(cycle)
        n = len(self.running)
        for k in range(n):
            i = (self.rr + 1 + k) % n
            if self.running[i].is_ready(cycle):
                self.rr = i
                return self.running[i]
        return None

    def has_issuable(self, cycle):
        return (any(w.is_ready(cycle) for w in self.running)
                or (len(self.running) < self.capacity
                    and any(w.is_ready(cycle) for w in self.pending)))


class TbasReference:
    def __init__(self, policy, threshold):
        self.policy, self.threshold = policy, threshold
        self.batch_warps, self.ages, self.pending = {}, {}, []
        self.running_batch = self.last_demoted = None
        self.rr = 0

    def _live(self, b):
        return any(not w.finished for w in self.batch_warps[b])

    def _ready(self, b, cycle):
        return [w for w in self.batch_warps[b] if w.is_ready(cycle)]

    def add_warp(self, w, cycle):
        b = w.batch_id
        self.ages.setdefault(b, len(self.ages))
        warps = self.batch_warps.setdefault(b, [])
        if not any(not v.finished for v in warps) \
                and b != self.running_batch and b not in self.pending:
            self.pending.append(b)
        warps.append(w)

    def _promote(self, cycle):
        cands = [b for b in self.pending if self._ready(b, cycle)]
        if not cands:
            return
        if self.policy is SchedPolicy.TBAS_C:
            b = max(cands, key=lambda b: len(self._ready(b, cycle)))
        elif self.policy is SchedPolicy.TBAS_E or self.last_demoted is None:
            b = min(cands, key=self.ages.get)
        else:
            seq = sorted(self.ages, key=self.ages.get)
            i = seq.index(self.last_demoted)
            b = next(x for x in seq[i + 1:] + seq[:i + 1] if x in cands)
        self.pending.remove(b)
        self.running_batch, self.rr = b, 0

    def on_long_stall(self, w, cycle):
        b = self.running_batch
        if b != w.batch_id or len(self._ready(b, cycle)) >= self.threshold:
            return
        self.running_batch, self.last_demoted = None, b
        if self._live(b):
            self.pending.append(b)
        self._promote(cycle)

    def on_finish(self, w, cycle):
        b = w.batch_id
        if not self._live(b):
            if b == self.running_batch:
                self.running_batch = None
            elif b in self.pending:
                self.pending.remove(b)

    def select_warp(self, cycle):
        if self.running_batch is None or not self._live(self.running_batch):
            self.running_batch = None
            self._promote(cycle)
        if self.running_batch is None:
            return None
        warps = self.batch_warps[self.running_batch]
        for k in range(len(warps)):
            i = (self.rr + 1 + k) % len(warps)
            if warps[i].is_ready(cycle):
                self.rr = i
                return warps[i]
        return None

    def has_issuable(self, cycle):
        b = self.running_batch
        if b is not None and self._live(b):
            return bool(self._ready(b, cycle))
        return any(self._ready(b, cycle) for b in self.pending)


OPS = st.lists(st.tuples(st.sampled_from(["add", "tick", "issue", "deliver"]),
                         st.integers(0, 7), st.integers(0, 7)),
               max_size=80)


@pytest.mark.parametrize("policy", list(SchedPolicy))
@settings(max_examples=150, deadline=None)
@given(ops=OPS, knob=st.integers(1, 3))
def test_ready_index_matches_rescanning_reference(policy, ops, knob):
    """Random add / issue (stalling on a read, or not) / deliver-with-delay /
    finish sequences, driven through the hooks in the engine's order; the
    scheduler must decide as a reference that rescans every warp does."""
    if policy is SchedPolicy.CCWS:
        s, ref = CcwsScheduler(capacity=knob), CcwsReference(knob)
    else:
        s = TbasScheduler(policy, threshold=knob)
        ref = TbasReference(policy, knob)
    warps, cycle = [], 0

    def finish(w):
        w.finished = True
        s.on_finish(w, cycle)
        ref.on_finish(w, cycle)

    for op, a, b in ops:
        if op == "add":
            w = WarpState(warp_id=len(warps), batch_id=a % 4, block_linear=0,
                          slots=[[None]] * (1 + b % 3), ready_at=cycle)
            warps.append(w)
            s.add_warp(w, cycle)
            ref.add_warp(w, cycle)
        elif op == "tick":
            cycle += a
        elif op == "issue":
            w = s.select_warp(cycle)
            assert w is ref.select_warp(cycle)
            if w is not None:
                assert w.is_ready(cycle)
                w.next_slot += 1
                s.on_issue(w, cycle)
                if a % 2:  # the slot reads: wait for its line
                    w.pending_lines.add(("gddr", w.warp_id))
                    s.on_long_stall(w, cycle)
                    ref.on_long_stall(w, cycle)
                elif w.next_slot >= len(w.slots):
                    finish(w)
                else:
                    w.ready_at = cycle + 1 + b
                    s.wake(w, cycle)
        else:
            waiting = [w for w in warps if w.pending_lines]
            if waiting:
                w = waiting[a % len(waiting)]
                w.pending_lines.clear()
                if w.next_slot >= len(w.slots):
                    finish(w)
                else:
                    w.ready_at = cycle + 1 + b
                    s.wake(w, cycle)
        assert s.has_issuable(cycle) == ref.has_issuable(cycle)
        if policy is SchedPolicy.CCWS:
            assert (s.running, s.pending) == (ref.running, ref.pending)
        else:
            assert (s.running_batch, s.pending) \
                == (ref.running_batch, ref.pending)
        ahead = [w.ready_at for w in warps if not w.finished
                 and not w.pending_lines and w.ready_at > cycle]
        assert s.next_wake(cycle) == (min(ahead) if ahead else None)
        s.assert_invariants(cycle)
