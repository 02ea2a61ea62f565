import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmemsim.dram import BankState, EnergyParams, MemoryRequest, TimingParams, bank_advance
from gmemsim.memmap import AddressLayout, PagePolicy, PageTable, Pool, build_color_map
from gmemsim.metrics import MetricsReport, compute_metrics, energy_total
from metrics_reference import bank_parallelism, brute_blp, reference_metrics

TIMING = TimingParams(tRCD=4, tRP=4, tCAS=4, tBURST=2)
ENERGY = EnergyParams(e_activate=15.0, e_read=4.0, e_write=4.0, p_background=0.05)


def make_req(bank=0, row=0, t_enqueue=0, t_issue=0, t_complete=1,
             was_hit=False, is_read=True, agent="gpu", sm_id=0, channel=0):
    return MemoryRequest(pool="gddr", channel=channel, bank=bank, row=row,
                         column=0, is_read=is_read, agent=agent, sm_id=sm_id,
                         t_enqueue=t_enqueue, t_issue=t_issue,
                         t_complete=t_complete, was_hit=was_hit)


def reference_table():
    layout = AddressLayout(2, 3, 1, 2, 5, 4)
    layouts = {Pool.GDDR: layout, Pool.DDR: AddressLayout(2, 3, 0, 1, 5, 4)}
    return PageTable(PagePolicy.COLORING, layouts, build_color_map(2, layout))


def test_single_row_single_bank():
    n = 8
    reqs = []
    cycle = 0
    bank = BankState()
    for i in range(n):
        r = make_req(row=3)
        cycle_done = bank_advance(bank, r, TIMING, cycle)
        cycle = cycle_done
        reqs.append(r)
    assert reference_metrics(reqs, reference_table())["rbhr"] == (n - 1) / n
    assert bank.row_hits == n - 1
    assert bank_parallelism(reqs) == 1.0


def test_fully_overlapped_four_banks():
    reqs = [make_req(bank=b, t_issue=0, t_complete=10) for b in range(4)]
    assert bank_parallelism(reqs) == 4.0


def test_blp_matches_brute_force_random():
    rng = random.Random(7)
    reqs = []
    for _ in range(200):
        issue = rng.randrange(100)
        reqs.append(make_req(bank=rng.randrange(4), channel=rng.randrange(2),
                             t_enqueue=issue, t_issue=issue,
                             t_complete=issue + rng.randrange(1, 12),
                             was_hit=rng.random() < 0.5))
    assert abs(bank_parallelism(reqs) - brute_blp(reqs)) < 1e-12


def test_rbhr_matches_second_pass_random():
    rng = random.Random(21)
    bank = BankState()
    cycle = 0
    reqs = []
    for _ in range(200):
        r = make_req(row=rng.randrange(3))
        cycle = bank_advance(bank, r, TIMING, cycle)
        reqs.append(r)
    # independent pass: recount hits by replaying open-row transitions
    open_row, hits = None, 0
    for r in reqs:
        if r.row == open_row:
            hits += 1
        open_row = r.row
    assert reference_metrics(reqs, reference_table())["rbhr"] \
        == hits / len(reqs)
    assert bank.row_hits == hits
    assert bank.activates + bank.row_hits == len(reqs)


def test_mean_delay_and_agent_split():
    reqs = [make_req(t_enqueue=0, t_complete=10),
            make_req(t_enqueue=5, t_complete=11, agent="cpu")]
    stats = compute_metrics(reqs, reference_table())
    assert stats["mean_access_delay"] == 8.0
    assert stats["gpu_mean_delay"] == 10.0
    assert stats["cpu_mean_delay"] == 6.0


def test_peak_window():
    reqs = [make_req(t_enqueue=c) for c in (0, 1, 2, 150, 151, 152, 153)]
    stats = compute_metrics(reqs, reference_table(), window=100)
    assert stats["peak_window_requests"] == 4


def drawn_request(pool, bank, channel, sm_id, agent, is_read, was_hit,
                  t_enqueue, wait, service, completed):
    """A logged request; one never issued keeps t_issue and t_complete at
    -1."""
    r = make_req(bank=bank, channel=channel, sm_id=sm_id, agent=agent,
                 is_read=is_read, was_hit=was_hit, t_enqueue=t_enqueue,
                 t_issue=t_enqueue + wait if completed else -1,
                 t_complete=t_enqueue + wait + service if completed else -1)
    r.pool = pool
    return r


REQUESTS = st.lists(st.builds(
    drawn_request, st.sampled_from(["gddr", "ddr"]), st.integers(0, 3),
    st.integers(0, 1), st.integers(-1, 2), st.sampled_from(["gpu", "cpu"]),
    st.booleans(), st.booleans(), st.integers(0, 400), st.integers(0, 30),
    st.integers(1, 20), st.booleans()), max_size=60)


@settings(max_examples=60, deadline=None)
@given(requests=REQUESTS, window=st.sampled_from([1, 7, 100, 1000]))
def test_compute_metrics_matches_the_reference(requests, window):
    # exact equality: every sum is an integer, so each mean is the same
    # float however the sum was gathered
    table = reference_table()
    stats = compute_metrics(requests, table, window)
    reference = reference_metrics(requests, table, window)
    assert stats == {k: reference[k] for k in stats}


def test_compute_metrics_fields():
    table = reference_table()
    e = table.allocate_page(0, 0)
    local = make_req(bank=e.bank, channel=e.channel, sm_id=0,
                     t_issue=0, t_complete=6, was_hit=True)
    remote = make_req(bank=e.bank, channel=e.channel, sm_id=1,
                      t_enqueue=2, t_issue=6, t_complete=12)
    stats = compute_metrics([local, remote], table)
    reference = reference_metrics([local, remote], table)
    assert reference["total_accesses"] == 2
    assert reference["row_hits"] == 1
    assert reference["activates"] == 1
    assert reference["rbhr"] == 0.5
    assert stats["gpu_requests"] + stats["cpu_requests"] == 2
    assert stats["local_accesses"] == 1
    assert stats["remote_accesses"] == 1
    assert stats["local_ratio"] == 0.5


def test_energy_zero_access_is_background_only():
    e = energy_total({}, ENERGY, runtime_cycles=1000, num_banks=8)
    assert e["activate"] == 0.0
    assert e["read_write"] == 0.0
    assert e["background"] == pytest.approx(8 * 0.05 * 1000)
    assert e["total"] == e["background"]


def test_energy_decomposition_adds_up():
    counters = {"activates": 10, "reads": 40, "writes": 10}
    e = energy_total(counters, ENERGY, runtime_cycles=500, num_banks=4)
    assert e["total"] == pytest.approx(
        e["activate"] + e["read_write"] + e["background"])
    assert e["activate"] == pytest.approx(150.0)
    assert e["read_write"] == pytest.approx(200.0)


def test_energy_matches_hand_sum_from_counter_dump():
    # spreadsheet-style recomputation from a dumped counter set
    counters = {"activates": 7, "reads": 25, "writes": 5}
    runtime, banks = 321, 3
    hand = 7 * 15.0 + 25 * 4.0 + 5 * 4.0 + 3 * 0.05 * 321
    assert energy_total(counters, ENERGY, runtime, banks)["total"] == pytest.approx(hand)


def test_reordering_that_raises_rbhr_lowers_energy():
    rng = random.Random(5)
    rows = [rng.randrange(3) for _ in range(60)]

    def replay(seq):
        bank = BankState()
        cycle = 0
        for row in seq:
            cycle = bank_advance(bank, make_req(row=row), TIMING, cycle)
        counters = {"activates": bank.activates, "reads": bank.reads,
                    "writes": bank.writes}
        rbhr = bank.row_hits / (bank.reads + bank.writes)
        return rbhr, energy_total(counters, ENERGY, 10_000, 1)["total"]

    base_rbhr, base_energy = replay(rows)
    for trial in range(100):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        rbhr, energy = replay(shuffled)
        if rbhr > base_rbhr:
            assert energy < base_energy
        elif rbhr == base_rbhr:
            assert energy == pytest.approx(base_energy)


def test_report_json_round_trip():
    rep = MetricsReport(workload="x", cycles=10, rbhr=0.5,
                        policies={"scheduler": "ccws"},
                        energy={"total": 1.0})
    again = MetricsReport(**json.loads(rep.to_json()))
    assert again == rep
    flat = rep.flat()
    assert flat["energy_total"] == 1.0
    assert flat["policies_scheduler"] == "ccws"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50),
                          st.integers(1, 10)), min_size=1, max_size=40))
def test_blp_property(items):
    reqs = [make_req(bank=b, t_issue=t, t_complete=t + d)
            for b, t, d in items]
    assert abs(bank_parallelism(reqs) - brute_blp(reqs)) < 1e-12
