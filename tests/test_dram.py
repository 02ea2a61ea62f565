import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fr_fcfs_reference import ReferenceController, has_ready, reference_pick
from gmemsim.dram import (Arbitration, BankState, EnergyParams, McQueue,
                          MemoryRequest, TimingParams, bank_advance, mc_pick)
from gmemsim.loader import check_bounds

TIMING = TimingParams(tRCD=4, tRP=4, tCAS=4, tBURST=2)


def req(row, *, bank=0, is_read=True, agent="gpu", channel=0):
    return MemoryRequest(pool="gddr", channel=channel, bank=bank, row=row,
                         column=0, is_read=is_read, agent=agent)


def controller(*banks, **kw):
    """A controller over the given bank states, bank i being banks[i]."""
    q = McQueue(num_banks=len(banks), **kw)
    q.banks[:] = banks
    return q


def queued(q: McQueue) -> list[MemoryRequest]:
    """The controller's waiting requests in arrival order."""
    return [r for _, r in sorted((e for fifo in q.fifos for e in fifo),
                                 key=lambda e: e[0])]


def straight_line(rows, timing, start=0):
    """Independent replay of a FIFO request list through one bank.

    Each request issues as soon as the bank frees up; returns the activate
    count, hit count, and completion cycles.  Written against the timing
    rules directly, not against the bank implementation.
    """
    open_row = None
    free_at = start
    activates = hits = 0
    completions = []
    for row in rows:
        issue = free_at
        if open_row == row:
            hits += 1
            done = issue + timing.tCAS + timing.tBURST
        elif open_row is None:
            activates += 1
            done = issue + timing.tRCD + timing.tCAS + timing.tBURST
        else:
            activates += 1
            done = issue + timing.tRP + timing.tRCD + timing.tCAS + timing.tBURST
        open_row = row
        free_at = done
        completions.append(done)
    return activates, hits, completions


def test_hit_timing():
    bank = BankState(open_row=7)
    done = bank_advance(bank, req(7), TIMING, 100)
    assert done == 106
    assert bank.row_hits == 1 and bank.activates == 0


def test_miss_over_open_row_timing():
    bank = BankState(open_row=3)
    done = bank_advance(bank, req(9), TIMING, 50)
    assert done == 50 + 4 + 4 + 4 + 2
    assert bank.activates == 1
    assert bank.open_row == 9


def test_miss_idle_bank_timing():
    bank = BankState()
    done = bank_advance(bank, req(5), TIMING, 0)
    assert done == 4 + 4 + 2
    assert bank.activates == 1


def test_known_sequence_a_a_b():
    bank = BankState()
    cycle = 0
    for row in (1, 1, 2):
        cycle = bank_advance(bank, req(row), TIMING, cycle)
    assert bank.activates == 2
    assert bank.row_hits == 1
    assert bank.reads + bank.writes == 3


def test_busy_bank_faults():
    bank = BankState()
    bank_advance(bank, req(1), TIMING, 0)
    with pytest.raises(AssertionError):
        bank_advance(bank, req(1), TIMING, 3)


def test_hits_plus_activates_equal_accesses_random():
    rng = random.Random(9)
    bank = BankState()
    cycle = 0
    for _ in range(500):
        cycle = bank_advance(bank, req(rng.randrange(4)), TIMING, cycle)
    assert bank.activates + bank.row_hits == bank.reads + bank.writes == 500


def test_bank_matches_straight_line_oracle():
    rng = random.Random(42)
    for trial in range(1000):
        n = rng.randrange(3, 11)
        rows = [rng.randrange(4) for _ in range(n)]
        bank = BankState()
        cycle = 0
        completions = []
        for row in rows:
            cycle = bank_advance(bank, req(row), TIMING, cycle)
            completions.append(cycle)
        acts, hits, expected = straight_line(rows, TIMING)
        assert bank.activates == acts, rows
        assert bank.row_hits == hits, rows
        assert completions == expected, rows


def test_mc_pick_prefers_row_hit():
    q = controller(BankState(open_row=7))
    older, younger = req(5), req(7)
    q.enqueue(older, 0)
    q.enqueue(younger, 1)
    assert mc_pick(q, 10) is younger


def test_mc_pick_fcfs_among_hits():
    q = controller(BankState(open_row=7))
    first, second = req(7), req(7)
    q.enqueue(first, 0)
    q.enqueue(second, 1)
    assert mc_pick(q, 10) is first


def test_mc_pick_oldest_miss_when_no_hit():
    q = controller(BankState(open_row=1))
    a, b = req(5), req(6)
    q.enqueue(a, 0)
    q.enqueue(b, 1)
    assert mc_pick(q, 10) is a


def test_mc_pick_oldest_hit_across_banks():
    # banks are visited in id order; age, not bank id, decides
    q = controller(BankState(open_row=1), BankState(open_row=2),
                   BankState(open_row=3))
    miss, old_hit, young_hit = req(9, bank=0), req(3, bank=2), req(1, bank=0)
    for i, r in enumerate((miss, old_hit, young_hit)):
        q.enqueue(r, i)
    assert mc_pick(q, 10) is old_hit
    assert mc_pick(q, 10) is young_hit
    assert mc_pick(q, 10) is miss


def test_mc_pick_skips_busy_banks():
    q = controller(BankState(busy_until=100), BankState())
    blocked, free = req(5, bank=0), req(6, bank=1)
    q.enqueue(blocked, 0)
    q.enqueue(free, 1)
    assert mc_pick(q, 10) is free


def test_mc_pick_empty_queue():
    assert mc_pick(controller(BankState()), 0) is None


def test_cpu_priority_beats_gpu_row_hit():
    q = controller(BankState(open_row=7),
                   arbitration=Arbitration.FR_FCFS_CPU_PRIO)
    gpu_hit = req(7, agent="gpu")
    cpu_miss = req(3, agent="cpu")
    q.enqueue(gpu_hit, 0)
    q.enqueue(cpu_miss, 1)
    assert mc_pick(q, 10) is cpu_miss


@st.composite
def controllers(draw):
    """A controller of 1-4 banks in random states, holding 0-12 requests."""
    banks = [BankState(open_row=draw(st.one_of(st.none(), st.integers(0, 3))),
                       busy_until=draw(st.integers(0, 20)))
             for _ in range(draw(st.integers(1, 4)))]
    q = controller(*banks,
                   arbitration=draw(st.sampled_from(list(Arbitration))),
                   starvation_cap=draw(st.integers(0, 3)))
    for i in range(draw(st.integers(0, 12))):
        r = req(draw(st.integers(0, 3)),
                bank=draw(st.integers(0, len(banks) - 1)),
                agent=draw(st.sampled_from(["gpu", "cpu"])))
        r.column = i  # a tag that the reference's twin shares
        r.bypasses = draw(st.integers(0, 4))
        q.enqueue(r, i)
    return q


@settings(max_examples=200, deadline=None)
@given(q=controllers(), cycle=st.integers(0, 24))
def test_has_ready_answers_whether_mc_pick_picks(q, cycle):
    assert has_ready(q, cycle) == (mc_pick(copy.deepcopy(q), cycle) is not None)
    # and the pick is the reference's
    ref = ReferenceController(q.capacity, q.arbitration, q.starvation_cap,
                              copy.deepcopy(q.banks))
    ref.requests = [copy.copy(r) for r in queued(q)]
    got, want = mc_pick(q, cycle), reference_pick(ref, cycle)
    assert (got and got.column) == (want and want.column)
    assert [r.column for r in queued(q)] == [r.column for r in ref.requests]
    if q.starvation_cap:
        assert ([r.bypasses for r in queued(q)]
                == [r.bypasses for r in ref.requests])


@st.composite
def controller_runs(draw):
    """Random bank states and a random sequence of steps: enqueue a request,
    pick (then, as the engine does, advance the picked request's bank, or
    leave the bank alone), or advance the clock."""
    banks = [(draw(st.one_of(st.none(), st.integers(0, 1))),
              draw(st.integers(0, 12)))
             for _ in range(draw(st.integers(1, 5)))]
    # two rows make row hits common; enqueues outnumber picks, so that
    # queues grow several deep
    enqueue = st.tuples(st.just("enqueue"), st.integers(0, len(banks) - 1),
                        st.integers(0, 1), st.sampled_from(["gpu", "cpu"]),
                        st.integers(0, 4))
    step = st.one_of(enqueue, enqueue, enqueue,
                     st.tuples(st.just("pick"), st.booleans()),
                     st.tuples(st.just("tick"), st.integers(1, 20)))
    return (banks, draw(st.integers(4, 16)),
            draw(st.sampled_from(list(Arbitration))),
            draw(st.one_of(st.just(0), st.integers(1, 3))),
            draw(st.lists(step, min_size=10, max_size=60)))


@settings(max_examples=200, deadline=None)
@given(run=controller_runs())
def test_indexed_controller_matches_the_reference(run):
    banks, capacity, arbitration, cap, steps = run
    q = McQueue(capacity=capacity, arbitration=arbitration,
                starvation_cap=cap, num_banks=len(banks))
    q.banks[:] = [BankState(open_row=o, busy_until=b) for o, b in banks]
    ref = ReferenceController(capacity, arbitration, cap,
                              [BankState(open_row=o, busy_until=b)
                               for o, b in banks])
    drawn = {}  # request tag (its column) -> bypasses it was enqueued with
    cycle = 0
    for step in steps:
        if step[0] == "enqueue":
            _, bank, row, agent, bypasses = step
            tag = len(drawn)
            drawn[tag] = bypasses
            pair = []
            for c in (q, ref):
                r = req(row, bank=bank, agent=agent)
                r.column, r.bypasses = tag, bypasses
                pair.append(c.enqueue(r, cycle))
            assert pair[0] == pair[1]
        elif step[0] == "pick":
            got, want = mc_pick(q, cycle), reference_pick(ref, cycle)
            assert (got and got.column) == (want and want.column)
            if got is not None and step[1]:
                bank_advance(q.banks[got.bank], got, TIMING, cycle)
                bank_advance(ref.banks[want.bank], want, TIMING, cycle)
        else:
            cycle += step[1]
        assert has_ready(q, cycle) == ref.has_ready(cycle)
        assert q.banks == ref.banks
        waiting = queued(q)
        assert q.count == len(waiting)
        assert [r.column for r in waiting] == [r.column for r in ref.requests]
        if cap:
            assert ([r.bypasses for r in waiting]
                    == [r.bypasses for r in ref.requests])
        else:  # bypasses are counted only under a cap
            assert all(r.bypasses == drawn[r.column] for r in waiting)


@settings(max_examples=200, deadline=None)
@given(run=controller_runs())
def test_a_pick_says_whether_its_controller_stays_due(run):
    # the engine keeps a controller due after a pick and its bank_advance
    # while `ready_at_pick` is above 1; a rescan must agree after every pick,
    # several picks in one cycle included
    banks, capacity, arbitration, cap, steps = run
    q = McQueue(capacity=capacity, arbitration=arbitration,
                starvation_cap=cap, num_banks=len(banks))
    q.banks[:] = [BankState(open_row=o, busy_until=b) for o, b in banks]
    cycle = 0
    for step in steps:
        if step[0] == "enqueue":
            _, bank, row, agent, _ = step
            q.enqueue(req(row, bank=bank, agent=agent), cycle)
        elif step[0] == "pick":
            picked = mc_pick(q, cycle)
            if picked is None:
                assert q.ready_at_pick == 0 and not has_ready(q, cycle)
                continue
            bank_advance(q.banks[picked.bank], picked, TIMING, cycle)
            assert (q.ready_at_pick > 1) == has_ready(q, cycle)
        else:
            cycle += step[1]


def test_queue_capacity_backpressure():
    q = McQueue(capacity=2)
    assert q.enqueue(req(1), 0)
    assert q.enqueue(req(2), 0)
    assert not q.enqueue(req(3), 0)
    assert q.count == 2


def test_starvation_without_cap():
    # continuous row hits starve the lone miss under pure first-ready
    q = controller(BankState(open_row=1))
    miss = req(2)
    q.enqueue(miss, 0)
    for i in range(20):
        q.enqueue(req(1), i + 1)
        picked = mc_pick(q, 100 + i)
        assert picked.row == 1
        q.banks[0].open_row = 1
        q.banks[0].busy_until = 0
    assert miss in queued(q)


def test_starvation_cap_forces_miss():
    q = controller(BankState(open_row=1), starvation_cap=4)
    miss = req(2)
    q.enqueue(miss, 0)
    picked_rows = []
    for i in range(8):
        q.enqueue(req(1), i + 1)
        picked = mc_pick(q, 100 + i)
        picked_rows.append(picked.row)
        q.banks[0].open_row = 1
        q.banks[0].busy_until = 0
    assert 2 in picked_rows


def test_timing_validation():
    # the bounds are declared on the fields; the loader's walker checks them
    with pytest.raises(ValueError, match=r"^timing\.tRCD must be >= 1, not 0$"):
        check_bounds(TimingParams(tRCD=0, tRP=4, tCAS=4, tBURST=2), "timing")
    with pytest.raises(ValueError,
                       match=r"^energy\.e_activate must be >= 0, not -1$"):
        check_bounds(EnergyParams(e_activate=-1, e_read=1, e_write=1,
                                  p_background=0), "energy")


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.integers(0, 3), min_size=1, max_size=30),
       start=st.integers(0, 100))
def test_straight_line_property(rows, start):
    bank = BankState()
    cycle = start
    completions = []
    for row in rows:
        cycle = bank_advance(bank, req(row), TIMING, cycle)
        completions.append(cycle)
    acts, hits, expected = straight_line(rows, TIMING, start=start)
    assert (bank.activates, bank.row_hits) == (acts, hits)
    assert completions == expected
    assert bank.activates + bank.row_hits == len(rows)
