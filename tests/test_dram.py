import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmemsim.dram import (Arbitration, BankState, EnergyParams, McQueue,
                          MemoryRequest, TimingParams, bank_advance, mc_pick)

TIMING = TimingParams(tRCD=4, tRP=4, tCAS=4, tBURST=2)


def req(row, *, bank=0, is_read=True, agent="gpu", channel=0):
    return MemoryRequest(pool="gddr", channel=channel, bank=bank, row=row,
                         column=0, is_read=is_read, agent=agent)


def controller(*banks, **kw):
    """A controller over the given bank states, bank i being banks[i]."""
    q = McQueue(num_banks=len(banks), **kw)
    q.banks[:] = banks
    return q


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
    assert bank.accesses == 3


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
    assert bank.activates + bank.row_hits == bank.accesses == 500


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
        r.bypasses = draw(st.integers(0, 4))
        q.enqueue(r, i)
    return q


@settings(max_examples=200, deadline=None)
@given(q=controllers(), cycle=st.integers(0, 24))
def test_has_ready_answers_whether_mc_pick_picks(q, cycle):
    assert q.has_ready(cycle) == (mc_pick(copy.deepcopy(q), cycle) is not None)


def test_queue_capacity_backpressure():
    q = McQueue(capacity=2)
    assert q.enqueue(req(1), 0)
    assert q.enqueue(req(2), 0)
    assert not q.enqueue(req(3), 0)
    assert len(q) == 2


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
    assert miss in q.requests


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
    with pytest.raises(ValueError):
        TimingParams(tRCD=0, tRP=4, tCAS=4, tBURST=2).validate()
    with pytest.raises(ValueError):
        EnergyParams(e_activate=-1, e_read=1, e_write=1, p_background=0).validate()


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
