import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clustered_rows_workload, small_hardware
from gmemsim.config import config_from_dict
from gmemsim.engine import SimulationFault, World
from gmemsim.memmap import CPU_OWNER, Pool
from gmemsim.sched import (CcwsScheduler, SchedPolicy, TbasScheduler,
                           WarpState, make_scheduler)
from gmemsim.workload import CpuRequest
from ready_index import assert_ready_index_matches_a_rescan


def warp(wid, batch=0, slots=2):
    """A warp of block `batch` whose slots send nothing."""
    return WarpState(warp_id=wid, batch_id=batch,
                     block_linear=batch, slots=[[]] * slots)


def stall(s, w):
    """w issues a read and waits for it."""
    s.on_issue(w)
    w.pending += 1


def wake(s, w):
    """w's reads are delivered and its ready_at has come."""
    w.pending = 0
    s.wake(w)


def test_long_stall_demotes_below_threshold():
    # tbas_d promotes the demoted batch's successor, so the demotion shows
    s = TbasScheduler(SchedPolicy.TBAS_D, threshold=2)
    warps = [warp(i, batch=0) for i in range(3)] + [warp(3, batch=1)]
    for w in warps:
        s.add_warp(w)
    first = s.select_warp()
    stall(s, first)
    s.on_long_stall(first)  # 2 of batch 0's warps are still ready
    assert s.running_batch == 0
    second = s.select_warp()
    stall(s, second)
    s.on_long_stall(second)  # 1 ready warp is fewer than 2
    assert s.running_batch == 1
    assert s.pending == [0]


def test_ccws_round_robin_among_ready():
    s = CcwsScheduler(capacity=2)
    w0, w1 = warp(0), warp(1)
    s.add_warp(w0)
    s.add_warp(w1)
    first = s.select_warp()
    second = s.select_warp()
    assert {first, second} == {w0, w1}
    assert first is not second


def test_ccws_skips_stalled_runner():
    s = CcwsScheduler(capacity=2)
    w0, w1 = warp(0), warp(1)
    s.add_warp(w0)
    s.add_warp(w1)
    s.select_warp()
    stall(s, w0)
    assert s.select_warp() is w1


def test_ccws_demote_promotes_arrival_order():
    s = CcwsScheduler(capacity=2)
    warps = [warp(i) for i in range(4)]
    for w in warps:
        s.add_warp(w)
    picked = s.select_warp()
    stall(s, picked)
    s.on_long_stall(picked)
    # the earliest-arrived pending warp takes the demoted one's place
    assert set(s.running) == set(warps[:3]) - {picked}
    assert picked in s.pending


def test_ccws_all_finished_returns_none():
    s = CcwsScheduler(capacity=2)
    w = warp(0)
    s.add_warp(w)
    s.select_warp()
    w.finished = True
    s.on_finish(w)
    assert s.select_warp() is None


def test_ccws_capacity_invariant():
    s = CcwsScheduler(capacity=2)
    for i in range(6):
        s.add_warp(warp(i))
    s.select_warp()
    assert_ready_index_matches_a_rescan(s, 0)
    assert len(s.running) == 2


def test_tbas_running_set_single_batch():
    s = TbasScheduler(SchedPolicy.TBAS_E)
    warps = [warp(i, batch=i // 2) for i in range(8)]
    for w in warps:
        s.add_warp(w)
    picked = s.select_warp()
    assert picked.batch_id == 0
    assert_ready_index_matches_a_rescan(s, 0)
    # both warps of batch 0 issue before any other batch
    second = s.select_warp()
    assert second.batch_id == 0 and second is not picked


def test_tbas_demotes_whole_batch_when_insufficient():
    s = TbasScheduler(SchedPolicy.TBAS_C)
    warps = [warp(i, batch=i // 2) for i in range(4)]
    for w in warps:
        s.add_warp(w)
    w = s.select_warp()
    stall(s, w)
    s.on_long_stall(w)  # other batch-0 warp still ready: batch stays
    assert s.running_batch == 0
    other = s.select_warp()
    stall(s, other)
    s.on_long_stall(other)
    assert s.running_batch == 1
    assert 0 in s.pending


def test_tbas_d_promotes_successor():
    s = TbasScheduler(SchedPolicy.TBAS_D)
    warps = [warp(i, batch=i) for i in range(4)]
    for w in warps:
        s.add_warp(w)
    s.select_warp()
    assert s.running_batch == 0
    stall(s, warps[0])
    s.on_long_stall(warps[0])
    assert s.running_batch == 1


def test_tbas_d_wraps_and_skips_unready():
    s = TbasScheduler(SchedPolicy.TBAS_D)
    warps = [warp(i, batch=i) for i in range(4)]
    for w in warps:
        s.add_warp(w)
    s.select_warp()
    stall(s, warps[0])
    stall(s, warps[1])  # successor not ready
    s.on_long_stall(warps[0])
    assert s.running_batch == 2


def test_tbas_e_promotes_oldest_ready():
    s = TbasScheduler(SchedPolicy.TBAS_E)
    w1 = warp(1, batch=1)
    w2 = warp(2, batch=2)
    s.add_warp(w1)
    s.add_warp(w2)
    stall(s, w1)
    picked = s.select_warp()
    assert picked is w2
    wake(s, w1)
    stall(s, w2)
    s.on_long_stall(w2)
    assert s.running_batch == 1  # oldest ready batch


def test_tbas_no_candidate_shrinks_running_set():
    s = TbasScheduler(SchedPolicy.TBAS_C)
    w0 = warp(0, batch=0)
    w1 = warp(1, batch=1)
    s.add_warp(w0)
    s.add_warp(w1)
    s.select_warp()
    stall(s, w0)
    stall(s, w1)
    s.on_long_stall(w0)
    assert s.running_batch is None
    assert s.select_warp() is None
    wake(s, w1)
    assert s.select_warp() is w1


def test_tbas_batch_finish_promotes_next():
    s = TbasScheduler(SchedPolicy.TBAS_D)
    w0 = warp(0, batch=0, slots=1)
    w1 = warp(1, batch=1, slots=1)
    s.add_warp(w0)
    s.add_warp(w1)
    assert s.select_warp() is w0
    w0.finished = True
    s.on_finish(w0)
    assert s.select_warp() is w1


def test_has_issuable_is_pure():
    s = TbasScheduler(SchedPolicy.TBAS_E)
    w0 = warp(0, batch=0)
    s.add_warp(w0)
    before = (s.running_batch, list(s.pending))
    assert s.has_issuable()
    assert (s.running_batch, list(s.pending)) == before


def test_make_scheduler_dispatches_classes():
    assert isinstance(make_scheduler(SchedPolicy.CCWS), CcwsScheduler)
    for p in (SchedPolicy.TBAS_C, SchedPolicy.TBAS_D, SchedPolicy.TBAS_E):
        sched = make_scheduler(p)
        assert isinstance(sched, TbasScheduler)
        assert sched.policy is p


def drained_world(policy: SchedPolicy, compute_gap: int, **config) -> World:
    """A World whose run is over, so that no event of its own is pending.
    Tests hand it warps through `World._make_resident`, which keeps
    `World.issuable` current, and it logs every issue.  `config` overrides
    top-level config fields."""
    world = World(config_from_dict({
        "workload": clustered_rows_workload(compute_gap=compute_gap),
        "scheduler": policy.value, "hardware": small_hardware(), **config}),
        collect_issue_log=True)
    world.run()
    assert world.done() and world._next_event_cycle() is None
    return world


def issue(world) -> WarpState:
    """One issue phase of a drained world in which one SM has a warp to
    issue; returns that warp."""
    issued = len(world.issue_log)
    world._phase_issue()
    assert len(world.issue_log) == issued + 1
    return world.warp_index[world.issue_log[-1][2]]


@pytest.mark.parametrize("policy", list(SchedPolicy))
def test_woken_warp_waits_for_its_ready_at(policy):
    # the schedulers keep no clock: World times each wake-up, and with no
    # other event pending the skip check names the earliest one
    world = drained_world(policy, compute_gap=3)
    sm, now = world.sms[0], world.cycle
    s = sm.scheduler
    w0, w1 = warp(0, slots=4), warp(1, slots=4)
    world._make_resident(sm, 0, [w0, w1])
    assert world._next_event_cycle() == now
    first = issue(world)  # ready at now + 4
    world._tick(1)
    assert world._next_event_cycle() == now + 1
    second = issue(world)  # ready at now + 5
    assert {first, second} == {w0, w1}
    world._tick(1)
    assert world._next_event_cycle() == now + 4
    assert not s.has_issuable() and s.select_warp() is None
    world._tick(2)
    assert world._next_event_cycle() == now + 4
    assert s.has_issuable() and world.calendar[0][0] == now + 5
    assert s.select_warp() is first
    assert issue(world) is first  # ready at now + 8
    assert world._next_event_cycle() == now + 5
    world._tick(1)
    assert world._next_event_cycle() == now + 5
    assert s.select_warp() is second
    assert [e[0] for e in world.calendar] == [now + 8]


@pytest.mark.parametrize("policy", list(SchedPolicy))
def test_finished_warp_leaves_the_index(policy):
    # the engine finishes a warp only once it is no longer indexed as ready;
    # the scheduler still drops a warp that finishes while ready (a) or
    # while it is not (c, d)
    s = make_scheduler(policy)
    a, b, c, d = (warp(i) for i in range(4))
    for w in (a, b, c, d):
        s.add_warp(w)
    for w in (b, c, d):
        s.on_issue(w)
    for w in (a, c, d):
        w.finished = True
        s.on_finish(w)
    assert not s.has_issuable()
    assert s.select_warp() is None
    s.wake(b)
    assert s.select_warp() is b


def test_a_wake_up_for_a_warp_that_is_not_ready_is_a_fault():
    # a warp finished while its wake-up waited: the engine never does that,
    # so popping the stale wake-up raises
    world = drained_world(SchedPolicy.CCWS, compute_gap=0)
    w = warp(0)
    world._make_resident(world.sms[0], 0, [w])
    assert issue(world) is w
    w.finished = True
    world._tick(1)
    with pytest.raises(SimulationFault, match="woke warp 0 on SM 0"):
        world._next_event_cycle()


@pytest.mark.parametrize("policy", list(SchedPolicy))
def test_a_flagged_sm_whose_scheduler_picks_no_warp_is_a_fault(policy):
    # a hook called behind the engine's back leaves the SM in
    # `World.issuable`, and the issue phase that trusts the set raises
    world = drained_world(policy, compute_gap=0)
    sm = world.sms[0]
    w = warp(0)
    world._make_resident(sm, 0, [w])
    sm.scheduler.on_issue(w)
    assert world.issuable == {0} and not sm.scheduler.has_issuable()
    with pytest.raises(SimulationFault, match="SM 0 is flagged issuable, "
                       "but its scheduler picked no warp"):
        world._phase_issue()


@pytest.mark.parametrize("policy", list(SchedPolicy))
def test_a_picked_warp_that_is_not_ready_is_a_fault(policy):
    # a warp made unready behind the scheduler's back stays in its ready
    # index, so the scheduler picks it and the issue phase raises
    world = drained_world(policy, compute_gap=0)
    w = warp(0)
    world._make_resident(world.sms[0], 0, [w])
    w.pending = 1
    with pytest.raises(SimulationFault, match="SM 0 picked warp 0, which is "
                       "not ready"):
        world._phase_issue()


@pytest.mark.parametrize("agent", ["gpu", "cpu"])
def test_a_request_outside_its_agents_rows_is_a_fault(agent):
    # World rejects a CPU region that shares a page with a matrix under
    # coloring_hetero.  Past that check, a warp handed a page the CPU placed
    # in its rows (above the GPU's), or a CPU arrival at a page an SM placed
    # in the GPU's rows (below the CPU's), sends a request there, and the
    # phase that makes it raises
    world = drained_world(SchedPolicy.CCWS, compute_gap=0,
                          allocator="coloring_hetero",
                          hardware=small_hardware(cpu_pool="gddr"))
    vpn = 1000  # a page no matrix touches
    vaddr, region = vpn * world.cfg.page_size, world.page_table.region
    if agent == "gpu":
        row = world.page_table.allocate_page(vpn, CPU_OWNER).row
        lo, hi = region.gpu_rows
        assert row >= hi
        w = WarpState(warp_id=0, batch_id=0, block_linear=0,
                      slots=[[(vaddr, False)]])
        world._make_resident(world.sms[0], 0, [w])
        phase = world._phase_issue
    else:
        row = world.page_table.allocate_page(vpn, 0).row
        lo, hi = region.cpu_rows
        assert row < lo
        world.cpu_stream.append(CpuRequest(world.cycle, vaddr, True))
        world.cpu_next += 1
        phase = world._phase_cpu
    with pytest.raises(SimulationFault, match=rf"{agent} request outside its "
                       rf"row region \(row {row} not in \[{lo}, {hi}\)\)"):
        phase()


def test_a_run_with_no_event_pending_that_is_not_done_is_a_fault():
    # a wake-up lost behind the engine's back leaves a warp that nothing
    # will make ready, and the run raises rather than skip to its horizon
    world = World(config_from_dict({
        "workload": clustered_rows_workload(compute_gap=0),
        "hardware": small_hardware()}))
    at = world._at
    world._at = lambda cycle, fire, *args: (fire == world._wake
                                            or at(cycle, fire, *args))
    with pytest.raises(SimulationFault, match="no event is pending, yet the "
                       "run is not done"):
        world.run()


def test_a_plan_that_undercounts_a_queue_is_a_fault():
    # a slot's plan counts the lines bound for each controller once, and
    # each attempt trusts that count; one that counts 1 of its 2 lines to a
    # one-entry queue passes the space check, and the second enqueue raises
    world = drained_world(SchedPolicy.CCWS, compute_gap=0)
    w = WarpState(warp_id=0, batch_id=0, block_linear=0,
                  slots=[[(0, False), (8, False)]])  # two lines of one page
    world._make_resident(world.sms[0], 0, [w])
    world._slot_lines(w, 0)
    lines, [(queue, n, key)] = world._bind(w)
    assert n == 2 and queue.count == 0
    queue.capacity = 1
    w.bound = (lines, [(queue, 1, key)])
    with pytest.raises(SimulationFault,
                       match="queue overflow after space check"):
        world._phase_issue()


def test_a_retry_probes_l1_again_only_after_a_fill():
    # a probe that hits nothing changes nothing, and only a fill changes
    # what an L1 holds: a back-pressured retry skips its probe until its
    # SM's L1 takes a fill
    world = World(config_from_dict({
        "workload": clustered_rows_workload(compute_gap=0),
        "scheduler": "ccws", "hardware": small_hardware(l1_size=64)}),
        collect_issue_log=True)
    world.run()
    vaddr = 1000 * world.cfg.page_size  # a page no matrix touches
    w = WarpState(warp_id=0, batch_id=0, block_linear=0,
                  slots=[[(vaddr, True)]])
    sm, other = world.sms
    world._make_resident(sm, 0, [w])
    probes = []
    lookup = sm.l1.lookup
    sm.l1.lookup = lambda lines: probes.append(lines) or lookup(lines)
    world._slot_lines(w, 0)
    [(key, _)], (_, [(queue, _, _)]) = w.lines, world._bind(w)
    queue.count = queue.capacity  # full, so every attempt is back-pressured
    bound = w.bound

    def attempt():
        backpressure = world.issue_backpressure
        world._phase_issue()
        return world.issue_backpressure - backpressure

    assert attempt() == 1 and len(probes) == 1  # a miss
    assert w.missed == sm.l1.fills
    assert attempt() == 1 and len(probes) == 1  # no fill since: no probe
    other.l1.fill(key)  # another SM's L1
    assert attempt() == 1 and len(probes) == 1
    sm.l1.fill((key[0], key[1] + 1))  # a line the slot does not touch
    assert attempt() == 1 and len(probes) == 2  # probed again, a miss
    assert attempt() == 1 and len(probes) == 2
    assert w.bound is bound  # no retry binds again
    sm.l1.fill(key)  # the slot's own line: a read hit, so nothing goes out
    assert attempt() == 0 and len(probes) == 3
    assert world.issue_log[-1][1:3] == (0, 0) and not w.pending
    assert (w.lines, w.bound, w.missed) == (None, None, None)


def test_a_due_controller_that_picks_nothing_is_a_fault():
    # a controller put in `World.due` behind the engine's back has no
    # waiting request, and the controller phase that trusts the set raises
    world = drained_world(SchedPolicy.CCWS, compute_gap=0)
    world.due.add((Pool.GDDR, 1))
    with pytest.raises(SimulationFault, match="gddr channel 1 is due, but its "
                       "controller picked no request"):
        world._phase_mc()


def test_a_request_waiting_for_its_pick_holds_the_run_open():
    # between the issue and controller phases a request can wait in a free
    # bank while no bank is busy: then only `World.due` stands for it
    world = drained_world(SchedPolicy.CCWS, compute_gap=0)
    req = copy.copy(world.log[0])
    key = (Pool(req.pool), req.channel)
    assert world._enqueue(key, req)
    assert world.due == {key} and not world.in_service and not world.done()
    world._phase_mc()
    assert not world.due and world.in_service == 1 and not world.done()


def test_a_reply_that_clears_the_running_batch_flags_the_sm():
    # tbas_e.  Running batch B has warps y and x, one slot each.  x's slot
    # reads, so x stalls, while y stays ready and keeps B running; y's slot
    # only writes, so y finishes at issue.  B is then running with no ready
    # warp and the SM has nothing to issue, although pending batch C has a
    # ready warp z.  The reply to x's read finishes x, B leaves the running
    # set, and the SM must be in `World.issuable` from that delivery on
    world = drained_world(SchedPolicy.TBAS_E, compute_gap=0)
    sm = world.sms[0]
    y = WarpState(warp_id=0, batch_id=100, block_linear=100,
                  slots=[[(32, False)]])
    x = WarpState(warp_id=1, batch_id=100, block_linear=100,
                  slots=[[(0, True)]])
    z = warp(2, batch=101)
    world._make_resident(sm, 100, [y, x])
    world._make_resident(sm, 101, [z])
    world.step()  # round robin starts after bit 0: x issues
    assert x.pending and not y.next_slot and 0 in world.issuable
    world.step()
    assert y.finished and sm.scheduler.running_batch == 100
    assert 0 not in world.issuable
    for _ in range(100):
        if x.finished:
            break
        assert 0 not in world.issuable
        world.step()
    assert x.finished and sm.scheduler.running_batch is None
    assert 0 in world.issuable and world._next_event_cycle() == world.cycle
    world.step()
    assert z.next_slot == 1


@pytest.mark.parametrize("policy, promoted", [(SchedPolicy.TBAS_C, 0),
                                              (SchedPolicy.TBAS_D, 1),
                                              (SchedPolicy.TBAS_E, 0)])
def test_promotion_when_the_demoted_batch_is_ready_again(policy, promoted):
    # batch 0 is demoted with no ready warp and no other batch to promote,
    # so none runs; then batch 1 arrives and batch 0's read is delivered.
    # Of the two ready pending batches, tbas_d walks on from the batch
    # after the demoted one, tbas_e takes the oldest and tbas_c the first
    # of the equally ready
    s, ref = TbasScheduler(policy), TbasReference(policy, 1)
    a, b = warp(0, batch=0), warp(1, batch=1)
    s.add_warp(a)
    ref.add_warp(a, 0)
    assert s.select_warp() is ref.select_warp(0) is a
    stall(s, a)
    s.on_long_stall(a)
    ref.on_long_stall(a, 0)
    assert s.running_batch is ref.running_batch is None
    s.add_warp(b)
    ref.add_warp(b, 0)
    wake(s, a)
    assert s.pending == ref.pending == [0, 1]
    picked = s.select_warp()
    assert picked is ref.select_warp(0)
    assert picked.batch_id == promoted

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
    finish sequences, driven through the hooks in the engine's order, with
    each warp woken once the cycle reaches its ready_at; the scheduler must
    decide as a reference that rescans every warp does."""
    if policy is SchedPolicy.CCWS:
        s, ref = CcwsScheduler(capacity=knob), CcwsReference(knob)
    else:
        s = TbasScheduler(policy, threshold=knob)
        ref = TbasReference(policy, knob)
    warps, sleeping, cycle = [], [], 0

    def finish(w):
        w.finished = True
        s.on_finish(w)
        ref.on_finish(w, cycle)

    def resume(w, gap):
        if w.next_slot >= len(w.slots):
            finish(w)
        else:
            w.ready_at = cycle + 1 + gap
            sleeping.append(w)

    for op, a, b in ops:
        if op == "add":
            w = WarpState(warp_id=len(warps), batch_id=a % 4, block_linear=0,
                          slots=[[None]] * (1 + b % 3), ready_at=cycle)
            warps.append(w)
            s.add_warp(w)
            ref.add_warp(w, cycle)
        elif op == "tick":
            cycle += a
        elif op == "issue":
            w = s.select_warp()
            assert w is ref.select_warp(cycle)
            if w is not None:
                assert w.is_ready(cycle)
                w.next_slot += 1
                s.on_issue(w)
                if a % 2:  # the slot reads: wait for its read
                    w.pending += 1
                    s.on_long_stall(w)
                    ref.on_long_stall(w, cycle)
                else:
                    resume(w, b)
        else:
            waiting = [w for w in warps if w.pending]
            if waiting:
                w = waiting[a % len(waiting)]
                w.pending = 0
                resume(w, b)
        for w in [w for w in sleeping if w.ready_at <= cycle]:
            sleeping.remove(w)
            s.wake(w)
        assert s.has_issuable() == ref.has_issuable(cycle)
        if policy is SchedPolicy.CCWS:
            assert (s.running, s.pending) == (ref.running, ref.pending)
        else:
            assert (s.running_batch, s.pending) \
                == (ref.running_batch, ref.pending)
        assert_ready_index_matches_a_rescan(s, cycle)
