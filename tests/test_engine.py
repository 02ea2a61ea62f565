"""End-to-end tests of the engine: golden reports over a sampled policy
matrix and the benchmark's three workloads, the event-skip loop against the
per-cycle loop, World's running indexes against a rescan, the L1 cache and
write-through L1, the `--trace` CSVs and runs cut at the horizon.

Every recorded value these tests compare is a file under tests/fixtures/,
with one entry per line: the golden reports (golden/), the dispatch logs
(dispatch/, one `[cycle, sm, block, batch]` per line), the plan JSONs that
`gmemsim profile` writes (plan/), the `--trace` CSVs of one CPU cell
(trace/) and the step counts (steps.json).  Each must be reproduced byte for
byte.  One command rewrites them all, and deletes any that no pin names:

    PYTHONPATH=src python tests/test_engine.py --record

Run it only with a behaviour change that CHANGES.md names; `git diff
tests/fixtures` then shows what moved.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (bench_workloads, fixture_path, load_fixture,
                      small_hardware)
from fr_fcfs_reference import has_ready
from gmemsim.cli import EXIT_OK, EXIT_TRUNCATED, main
from gmemsim.config import L1Config, config_from_dict
from gmemsim.dram import CPU_AGENT, GPU_AGENT, McQueue
from gmemsim.engine import L1Cache, SimulationFault, World
from gmemsim.memmap import CPU_OWNER, PageTable, Pool
from gmemsim.workload import load_workload
from lane_model import assert_matches_lane_model
from metrics_reference import log_fields, world_reference
from ready_index import assert_ready_index_matches_a_rescan

SCHEDS = ("ccws", "tbas_c", "tbas_d", "tbas_e")
ALLOCS = ("first_touch", "coloring", "bw_aware", "coloring_hetero")
MAPPINGS = ("clustered", "interleaved")
DISPATCHES = ("serial", "interleaved")

# far above the GPU matrices, so no CPU page is first touched by an SM
CPU_REGION = [1 << 16, (1 << 16) + 2048]


def _matrix(base, element_size, row_len, mapping, accesses, read):
    return {"base_addr": base, "element_size": element_size,
            "row_len": row_len, "mapping": mapping,
            "accesses_per_thread": accesses,
            "read_fraction": 1.0 if read else 0.0}


def golden_kernel(mapping: str, compute_gap: int = 2) -> dict:
    """Small kernels whose read and written matrices are disjoint, so no
    written line is ever in L1.  Lines are 16 bytes and pages 32: a slot of
    8 lanes spans two lines, on one page (clustered) or two (interleaved),
    so a controller queue of 2 always has room for one slot's misses."""
    if mapping == "clustered":
        # 16 blocks of 16 threads: a word read twice, another word written
        return {"name": "golden_clustered", "grid_dim": [8, 2],
                "block_dim": [16, 1], "warp_size": 8,
                "compute_gap": compute_gap,
                "matrices": [_matrix(0, 4, 256, mapping, 2, True),
                             _matrix(1024, 4, 256, mapping, 1, False)]}
    # 4x4 grid of 4x4 blocks over 16x16 matrices: A read once, B read
    # twice, C written
    return {"name": "golden_interleaved", "grid_dim": [4, 4],
            "block_dim": [4, 4], "warp_size": 8, "compute_gap": compute_gap,
            "matrices": [_matrix(0, 4, 16, mapping, 1, True),
                         _matrix(1024, 4, 16, mapping, 2, True),
                         _matrix(2048, 4, 16, mapping, 1, False)]}


def make_config(mapping, sched, alloc, dispatch, *, cpu=False,
                cpu_prio=False, cpu_pool="gddr", num_sms=2, mc_queue=2,
                reply_queue=2, l1_size=64, starvation_cap=0, compute_gap=2,
                dispatch_seed=None, horizon=50_000) -> dict:
    """A config dict with L1 on, tight controller and reply queues (so issue
    back-pressure and reply stalls happen) and optional CPU traffic, whose
    pages go to `cpu_pool` under coloring_hetero."""
    workload = {"kernel": golden_kernel(mapping, compute_gap)}
    hw = small_hardware(num_sms=num_sms, l1_size=l1_size, line_bytes=16,
                        mc_queue_capacity=mc_queue,
                        starvation_cap=starvation_cap)
    hw["reply"] = {"queue_capacity": reply_queue, "drain_per_cycle": 1,
                   "latency": 1}
    if cpu:
        workload["cpu_traffic"] = {"request_rate": 40,
                                   "address_region": CPU_REGION,
                                   "rw_ratio": 0.7, "burstiness": 2,
                                   "seed": 3}
        if alloc == "coloring_hetero":
            hw["cpu_pool"] = cpu_pool
    return {"workload": workload, "horizon": horizon, "dispatch": dispatch,
            "allocator": alloc, "scheduler": sched,
            "arbitration": "fr_fcfs_cpu_prio" if cpu_prio else "fr_fcfs",
            "random_dispatch_seed": dispatch_seed, "hardware": hw}


def golden_configs() -> dict[str, dict]:
    """Every scheduler with every allocator, once each; mapping and dispatch
    rotate so that each scheduler sees all four of their pairings.  Six
    cells carry CPU traffic, three of them under CPU-priority arbitration."""
    out = {}
    for si, sched in enumerate(SCHEDS):
        for ai, alloc in enumerate(ALLOCS):
            mapping = MAPPINGS[(si + ai) % 2]
            dispatch = DISPATCHES[(si + ai // 2) % 2]
            cpu = (si + ai) % 3 == 0
            name = f"{mapping}-{sched}-{alloc}-{dispatch}" + ("-cpu" if cpu else "")
            out[name] = make_config(
                mapping, sched, alloc, dispatch, cpu=cpu,
                cpu_prio=cpu and si % 2 == 0,
                num_sms=3 if ai == si else 2,
                starvation_cap=3 if (si + ai) % 4 == 1 else 0,
                dispatch_seed=5 if si % 2 else None)
    return out


GOLDEN = golden_configs()
# 8-deep queues and a starvation cap of 1: the cap forces a few picks ahead
# of younger row hits, which the 2-deep queues of GOLDEN never make happen
STARVATION_GOLDEN = {
    "starve-clustered-tbas_e-first_touch-interleaved": make_config(
        "clustered", "tbas_e", "first_touch", "interleaved", mc_queue=8,
        starvation_cap=1),
    "starve-interleaved-tbas_e-first_touch-interleaved-cpu": make_config(
        "interleaved", "tbas_e", "first_touch", "interleaved", cpu=True,
        cpu_prio=True, mc_queue=8, starvation_cap=1),
}
# coloring_hetero splits only the GDDR rows, so a CPU page in DDR is
# allocated from the DDR scan and its requests skip the row check; every
# coloring_hetero cell of GOLDEN puts its CPU pages in GDDR
DDR_GOLDEN = {
    "ddr-interleaved-tbas_e-coloring_hetero-serial-cpu": make_config(
        "interleaved", "tbas_e", "coloring_hetero", "serial", cpu=True,
        cpu_pool="ddr"),
}
# the benchmark's workloads at seed 1, at the size the benchmark runs them
BENCH_GOLDEN = {f"bench-{name}": build(1)
                for name, build in bench_workloads().items()}
ALL_GOLDEN = {**GOLDEN, **STARVATION_GOLDEN, **DDR_GOLDEN, **BENCH_GOLDEN}


def run_report(config: dict, *, skip: bool = True):
    world = World(config_from_dict(config), collect_issue_log=True)
    if not skip:  # every cycle looks eventful, so none is skipped
        world._next_event_cycle = lambda: world.cycle
    return world.run(), world


def golden_path(name: str) -> str:
    return fixture_path("golden", f"{name}.json")


def fixture_bytes(path: str) -> bytes:
    return Path(fixture_path(path)).read_bytes()


def test_golden_matrix_shape():
    cells = [name.split("-") for name in GOLDEN]
    assert {(c[1], c[2]) for c in cells} == {(s, a) for s in SCHEDS
                                             for a in ALLOCS}
    for sched in SCHEDS:
        assert len({(c[0], c[3]) for c in cells if c[1] == sched}) == 4


def counting_run(config: dict) -> tuple:
    """Run `config` as its golden test does, counting its `World.step`,
    `select_warp` and `L1Cache.lookup` calls, and as `held_back` the stepped
    cycles after which CPU arrivals wait for queue room.  Returns the report,
    the world and the counts."""
    world = World(config_from_dict(config))
    calls = Counter()

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    step = world.step

    def counting_step():
        step()
        calls["step"] += 1
        calls["held_back"] += world.cpu_sent < world.cpu_next

    world.step = counting_step
    for sm in world.sms:
        sm.scheduler.select_warp = counting("select_warp",
                                            sm.scheduler.select_warp)
        sm.l1.lookup = counting("lookup", sm.l1.lookup)
    return world.run(), world, calls


def report_json(config: dict) -> str:
    """The report JSON of a golden run of `config`."""
    report, _, _ = counting_run(config)
    return report.to_json()


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN))
def test_golden_report(name, monkeypatch):
    def no_rescan(*args):
        raise AssertionError("a run rescans a controller's banks")

    # a pick says whether its controller stays due; nothing rescans
    monkeypatch.setattr(McQueue, "has_ready", no_rescan, raising=False)
    report, world, calls = counting_run(ALL_GOLDEN[name])
    with open(golden_path(name)) as f:
        assert report.to_json() == f.read()
    # each DRAM statistic, read from the bank counters and the cycle count,
    # equals its second derivation from the request log
    reference = world_reference(world)
    assert log_fields(report, reference) == reference
    # the World.step calls of the benchmark's runs: the cycles the skip
    # check could not jump over, which a change to the event sources must
    # keep
    if name in BENCH_GOLDEN:
        assert calls["step"] == load_fixture("steps.json")["bench_steps"][name]
    # the CPU stream is drawn at most one arrival ahead of the run
    assert len(world.cpu_stream) - world.cpu_next <= 1
    # the issue phase asks only the SMs flagged issuable, and each pick
    # either issues or is back-pressured
    attempts = report.warp_instructions + report.issue_backpressure
    assert calls["select_warp"] == attempts
    # each attempt probes L1 in at most one call: a retry skips its probe
    # when its L1 took no fill since one that hit nothing
    assert calls["lookup"] <= attempts
    assert calls["lookup"] \
        == load_fixture("steps.json")["lookup_calls"][name]


# per corruption of a finished run's state, the message of the one
# comparison in `World._crosscheck` that it breaks
CROSSCHECK_FAULTS = {
    "queued": r"1 request\(s\) still wait in gddr channel 0 at the end of "
              "the run",
    "row_hits": r"bank counters: activates \+ hits != accesses",
    # keeps activates + hits == accesses, so only the log can tell
    "reads_and_row_hits": "request log disagrees with bank counters",
}
# corruptions that no run-time comparison sees: they change the report,
# and the request log's second derivation of it tells
ORACLE_FAULTS = ("blp_sum", "row_hits_for_activates")


def corrupt(world: World, corruption: str):
    """Corrupt one running count of a finished run."""
    queue = world.mc_queues[(Pool.GDDR, 0)]
    bank = queue.banks[0]
    if corruption == "queued":  # a request its run never sees
        assert queue.enqueue(copy.copy(world.log[0]), world.cycle)
    elif corruption == "row_hits":
        bank.row_hits += 1
    elif corruption == "reads_and_row_hits":
        bank.reads += 1
        bank.row_hits += 1
    elif corruption == "row_hits_for_activates":  # keeps their sum
        bank.row_hits += 1
        bank.activates -= 1
    else:
        world.blp_sum += 1


def finished_golden_run() -> World:
    """A finished golden run, which reports again unchanged and as its
    request log says."""
    name = "clustered-tbas_d-first_touch-serial"
    _, world = run_report(GOLDEN[name])
    report = world._report(truncated=False)
    with open(golden_path(name)) as f:
        assert report.to_json() == f.read()
    reference = world_reference(world)
    assert log_fields(report, reference) == reference
    return world


@pytest.mark.parametrize("corruption", sorted(CROSSCHECK_FAULTS))
def test_the_report_crosscheck_catches_a_corrupted_count(corruption):
    world = finished_golden_run()
    corrupt(world, corruption)
    with pytest.raises(SimulationFault, match=CROSSCHECK_FAULTS[corruption]):
        world._report(truncated=False)


@pytest.mark.parametrize("corruption", ORACLE_FAULTS)
def test_the_log_reference_catches_a_corrupted_count(corruption):
    world = finished_golden_run()
    corrupt(world, corruption)
    report = world._report(truncated=False)
    reference = world_reference(world)
    assert log_fields(report, reference) != reference


def test_setup_is_bounded_by_work_not_by_the_horizon(tmp_path):
    # the CPU stream is drawn as the run reaches it, so building a World
    # (which `validate` does too) draws one arrival whatever the horizon
    config = dict(BENCH_GOLDEN["bench-corun"], horizon=10**9)
    world = World(config_from_dict(config))
    assert len(world.cpu_stream) <= 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "--config", str(path)]) == EXIT_OK


@pytest.mark.parametrize("name", sorted(STARVATION_GOLDEN))
def test_the_starvation_cap_shapes_its_goldens(name):
    # without the cap the same cell runs another schedule: the cap forced
    # at least one pick
    config = copy.deepcopy(STARVATION_GOLDEN[name])
    config["hardware"]["starvation_cap"] = 0
    uncapped, _ = run_report(config)
    with open(golden_path(name)) as f:
        capped = json.load(f)
    assert uncapped.cycles != capped["cycles"]


@pytest.mark.parametrize("name", ["clustered-ccws-bw_aware-interleaved",
                                  "interleaved-ccws-coloring-serial",
                                  *sorted(BENCH_GOLDEN)])
def test_kernel_traces_match_the_lane_model(name):
    # every golden cell of one mapping runs the same kernel
    cfg = config_from_dict(ALL_GOLDEN[name])
    kernel, _ = load_workload(cfg.workload)
    assert_matches_lane_model(kernel, cfg.hardware.l1.line_bytes,
                              cfg.page_size)


def test_goldens_exercise_the_issue_path():
    reports = []
    for name in sorted(GOLDEN):
        with open(golden_path(name)) as f:
            reports.append(json.load(f))
    assert not any(r["truncated"] for r in reports)
    assert all(r["issue_backpressure"] > 0 for r in reports)
    assert sum(1 for r in reports if r["l1_hits"]) >= 12
    assert sum(r["reply_stalls"] for r in reports) > 0
    assert sum(r["spilled_pages"] for r in reports) == 0
    with_cpu = [r for n, r in zip(sorted(GOLDEN), reports) if n.endswith("-cpu")]
    assert len(with_cpu) == 6 and all(r["cpu_requests"] > 0 for r in with_cpu)
    assert any(r["pool_pages"]["ddr"] > 0 and r["gpu_requests"] > 0
               for r in reports)


# the golden cells with CPU traffic; bench-corun's 4096-deep queues never
# make its CPU arrivals wait for room in a full controller queue
CPU_CELLS = sorted([*(name for name in ALL_GOLDEN if name.endswith("-cpu")),
                    "bench-corun"])


def test_goldens_exercise_the_cpu_hold_back():
    # per cell, the stepped cycles after which CPU arrivals wait for room
    assert {name: counting_run(ALL_GOLDEN[name])[2]["held_back"]
            for name in CPU_CELLS} \
        == load_fixture("steps.json")["cpu_hold_back_steps"]


def count_translations(name: str, monkeypatch) -> tuple:
    """The golden cell's report and its `PageTable.translate` calls per
    owner."""
    calls, translate = Counter(), PageTable.translate

    def counting_translate(self, vaddr, owner):
        calls[owner] += 1
        return translate(self, vaddr, owner)

    monkeypatch.setattr(PageTable, "translate", counting_translate)
    report, _ = run_report(ALL_GOLDEN[name])
    return report, calls


@pytest.mark.parametrize("name", CPU_CELLS)
def test_each_cpu_request_is_translated_once(name, monkeypatch):
    # a held-back arrival keeps its request across the cycles it waits
    report, calls = count_translations(name, monkeypatch)
    assert calls[CPU_OWNER] == report.cpu_requests > 0


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN))
def test_each_gpu_slot_is_translated_once(name, monkeypatch):
    # a back-pressured slot keeps its plan across the cycles it retries
    report, calls = count_translations(name, monkeypatch)
    gpu_calls = sum(n for owner, n in calls.items() if owner != CPU_OWNER)
    assert gpu_calls == report.l1_hits + report.l1_misses > 0


# golden-sized runs over every policy axis; the short horizons cut runs
# mid-flight
RUN_CONFIGS = st.builds(
    make_config, mapping=st.sampled_from(MAPPINGS),
    sched=st.sampled_from(SCHEDS), alloc=st.sampled_from(ALLOCS),
    dispatch=st.sampled_from(DISPATCHES), cpu=st.booleans(),
    cpu_prio=st.booleans(), num_sms=st.integers(1, 3),
    mc_queue=st.integers(2, 8), starvation_cap=st.integers(0, 2),
    reply_queue=st.integers(1, 3), l1_size=st.sampled_from([0, 32, 64]),
    compute_gap=st.integers(0, 12),
    dispatch_seed=st.one_of(st.none(), st.integers(0, 9)),
    horizon=st.sampled_from([100, 300, 700, 50_000]))


@settings(max_examples=25, deadline=None)
@given(config=RUN_CONFIGS)
def test_skipping_matches_the_per_cycle_loop(config):
    # truncated reports are compared too, and so are the logs: an event
    # fired a cycle late can leave the report as it was but moves them
    skipped, world = run_report(config)
    stepped, ref = run_report(config, skip=False)
    assert skipped.to_json() == stepped.to_json()
    reference = world_reference(world)
    assert log_fields(skipped, reference) == reference
    assert world.dispatch_log == ref.dispatch_log
    assert world.issue_log == ref.issue_log
    assert [(r.t_enqueue, r.t_issue, r.t_complete) for r in world.log] \
        == [(r.t_enqueue, r.t_issue, r.t_complete) for r in ref.log]


def assert_running_indexes_match_a_rescan(world: World):
    assert world.issuable == {sm.sm_id for sm in world.sms
                              if sm.scheduler.has_issuable()}
    # the controllers due as of the last mc phase, one cycle back
    assert world.due == {key for key, q in world.mc_queues.items()
                         if has_ready(q, world.cycle - 1)}
    assert world.replying == {sm.sm_id for sm in world.sms
                              if sm.reply_queue or sm.reply_overflow}
    assert world.overflowed == sum(len(sm.reply_overflow)
                                   for sm in world.sms)
    # one completion on the calendar per busy bank, at its busy_until, and
    # the requests in service are theirs; a step leaves none held
    assert not world.completing
    completions = [(cycle, *args) for cycle, _, fire, args in world.calendar
                   if fire == world._complete]
    assert sorted((key, req.bank, cycle) for cycle, key, req in completions) \
        == sorted((key, b, bank.busy_until)
                  for key, q in world.mc_queues.items()
                  for b, bank in enumerate(q.banks)
                  if bank.busy_until >= world.cycle)
    assert all(req.t_complete == cycle for cycle, _, req in completions)
    in_service = [req for _, _, req in completions]
    assert world.in_service == len(in_service)
    # the request log's split, each request logged once: a request waits in
    # a controller FIFO until it is picked, is in service until its
    # completion's cycle, and the rest have completed
    waiting = [req for q in world.mc_queues.values()
               for fifo in q.fifos for _, req in fifo]
    log = world.log
    assert len(set(map(id, log))) == len(log)
    unissued = [req for req in log if req.t_issue < 0]
    serving = [req for req in log
               if req.t_issue >= 0 and req.t_complete >= world.cycle]
    assert len(unissued) == sum(q.count for q in world.mc_queues.values())
    assert len(serving) == world.in_service
    assert sorted(map(id, unissued)) == sorted(map(id, waiting))
    assert sorted(map(id, serving)) == sorted(map(id, in_service))
    # `done()` reads `due` for the waiting requests: one waits only while
    # its controller is due or its bank serves another
    assert not waiting or world.due or world.in_service
    # every scheduler's ready index against its warps, at the cycle just
    # stepped
    for sm in world.sms:
        assert_ready_index_matches_a_rescan(sm.scheduler, world.cycle - 1)
    # each request in flight, where it waits: a controller FIFO, a busy
    # bank, a reply queue or a reply overflow
    in_flight = [*waiting,
                 *in_service,
                 *(req for sm in world.sms for _, req in sm.reply_queue),
                 *(req for sm in world.sms for req in sm.reply_overflow)]
    reads = Counter(req.warp_id for req in in_flight
                    if req.agent == GPU_AGENT and req.is_read)
    for warp_id, warp in world.warp_index.items():
        assert warp.pending == reads[warp_id], warp_id
    sm_of = {blin: sm_id for _, sm_id, blin, _ in world.dispatch_log}
    unfinished = Counter((sm_of[w.block_linear], w.block_linear)
                         for w in world.warp_index.values() if not w.finished)
    for sm in world.sms:
        assert sm.resident_blocks == {
            blin: n for (sm_id, blin), n in unfinished.items()
            if sm_id == sm.sm_id}, sm.sm_id
    # the CPU cursors: the arrivals handed over and not yet enqueued are
    # due, and at most one arrival is drawn ahead of them
    stream, sent, nxt = world.cpu_stream, world.cpu_sent, world.cpu_next
    assert sent <= nxt <= len(stream) <= nxt + 1
    assert all(ev.cycle <= world.cycle for ev in stream[sent:nxt])
    # and the one drawn ahead has the calendar's only CPU-arrival entry
    assert [cycle for cycle, _, fire, _ in world.calendar
            if fire == world._arrive] == [ev.cycle for ev in stream[nxt:]]
    # a held-back arrival's queue is full, so `done()` needs no term for it
    assert sent == nxt or world.due or world.in_service
    # a held-back head keeps the request it was translated to at its first
    # attempt, which no controller holds yet
    head = world.cpu_head
    assert (head is None) == (sent == nxt)
    if head is not None:
        ev = stream[sent]
        assert (head.agent, head.is_read, head.t_arrival) \
            == (CPU_AGENT, ev.is_read, ev.cycle)
        assert all(req is not head for req in in_flight)
    # each issue plan bound to its controllers is its lines decoded, and a
    # plan whose last probe hit nothing at its L1's current fill count has
    # no line in that L1
    for warp in world.warp_index.values():
        if warp.bound is not None:
            assert bound_ids(warp.bound) == eager_binding(world, warp.lines)
        l1 = world.sms[sm_of[warp.block_linear]].l1
        if warp.missed == l1.fills:
            assert not any(key in l1.sets[key[1] % l1.num_sets]
                           for key, _ in warp.lines)


def eager_binding(world: World, lines: list) -> tuple:
    """`lines` decoded one by one, with each controller's line count in the
    order the controllers first appear and its `McQueue` as an id."""
    decoded = [(key, is_read, world.pools[key[0]].layout.decompose(
        key[1] * world.cfg.hardware.l1.line_bytes)) for key, is_read in lines]
    bound = [(key, is_read, (key[0], d.channel), d)
             for key, is_read, d in decoded]
    need = Counter(qkey for _, _, qkey, _ in bound)
    return bound, [(id(world.mc_queues[k]), n, k) for k, n in need.items()]


def bound_ids(bound: tuple) -> tuple:
    """A plan's binding, with each `McQueue` as an id."""
    lines, need = bound
    return lines, [(id(q), n, k) for q, n, k in need]


def read_twice_config() -> dict:
    """tbas_e on one SM, with warps of one thread that each read their own
    16-byte line twice.  A warp's second read may hit L1, so the warp
    finishes at issue while a batch-mate waits on its last read: the batch
    stays running with no ready warp while another batch has one, and the
    reply that finishes the waiting warp must flag the SM.  No golden
    kernel gets there, since each ends with a write."""
    config = make_config("clustered", "tbas_e", "first_touch", "serial",
                         num_sms=1)
    config["workload"] = {"kernel": {
        "name": "read_twice", "grid_dim": [4, 1], "block_dim": [2, 1],
        "warp_size": 1, "compute_gap": 2,
        "matrices": [_matrix(0, 16, 8, "clustered", 2, True)]}}
    return config


def reply_backlog_config() -> dict:
    """Replies that spend 4 cycles in flight, into reply queues of 2
    drained 2 a cycle, behind 8-deep controller queues: a reply queue fills
    while its head is still in flight, with replies overflowed behind it,
    and two overflowed replies enter it in one cycle.  The goldens' reply
    queues, drained 1 a cycle after 1 cycle in flight, do neither."""
    config = make_config("interleaved", "ccws", "first_touch", "serial",
                         mc_queue=8)
    config["hardware"]["reply"] = {"queue_capacity": 2, "drain_per_cycle": 2,
                                   "latency": 4}
    return config


@settings(max_examples=25, deadline=None)
@given(config=RUN_CONFIGS)
@example(config=read_twice_config())
@example(config=reply_backlog_config())
def test_running_indexes_match_a_rescan_after_every_step(config):
    # the per-cycle loop, checked after each step: World's issuable set,
    # due controllers, replying set, overflow count, the
    # calendar's completions and CPU arrival, the request log's split, each
    # scheduler's ready index, each warp's count of outstanding reads, each
    # SM's resident blocks and the CPU cursors against a rescan of the
    # schedulers, controllers, banks, reply queues, warps and CPU stream
    # they stand for
    world = World(config_from_dict(config))
    while world.cycle < world.cfg.horizon and not world.done():
        world.step()
        assert_running_indexes_match_a_rescan(world)


@pytest.mark.parametrize("name", ["clustered-ccws-bw_aware-interleaved",
                                  "interleaved-ccws-coloring_hetero-"
                                  "interleaved-cpu",
                                  "clustered-tbas_e-coloring_hetero-serial-cpu"])
def test_a_run_cut_inside_a_jump_matches_the_per_cycle_loop(name):
    # jumps here last a few cycles, so a fixed horizon rarely falls inside
    # one; cutting the run one cycle into each jump makes the horizon cap it
    world = World(config_from_dict(GOLDEN[name]))
    jumps, tick = [], world._tick

    def recording_tick(cycles):
        if cycles > 1:
            jumps.append(world.cycle)
        tick(cycles)

    world._tick = recording_tick
    world.run()
    assert jumps
    for start in jumps:
        config = dict(GOLDEN[name], horizon=start + 1)
        skipped, cut = run_report(config)
        stepped, _ = run_report(config, skip=False)
        assert skipped.truncated and skipped.cycles == start + 1
        assert skipped.to_json() == stepped.to_json()
        # BLP counts service only up to the cut, as the log's merge does
        reference = world_reference(cut)
        assert log_fields(skipped, reference) == reference


def test_an_sm_whose_range_ran_out_is_no_dispatch_event():
    # five blocks in batches of two give SM 0 blocks [0, 2) and SM 1 blocks
    # [2, 5); with one resident block per SM, SM 0 runs out of blocks while
    # SM 1 still holds one and has another left
    config = make_config("clustered", "ccws", "first_touch", "serial",
                         compute_gap=40, horizon=20_000)
    config["workload"]["kernel"]["grid_dim"] = [5, 1]
    config["stride"] = 2
    config["hardware"]["max_blocks_per_sm"] = 1
    world = World(config_from_dict(config))
    assert world.dispatcher.ranges == [[0, 2], [2, 5]]
    wpb = world.kernel.warps_per_block
    sm0, sm1 = world.sms
    jumps = []
    while not world.done():
        world.step()
        if (sm0.has_slot(wpb) and not world.dispatcher.has_block(0)
                and not sm1.has_slot(wpb) and world.dispatcher.has_block(1)):
            # blocks are left and SM 0 has room, but none is SM 0's
            nxt = world._next_event_cycle()
            if nxt > world.cycle:
                jumps.append((world.cycle, nxt))
    assert jumps
    skipped, _ = run_report(config)
    stepped, _ = run_report(config, skip=False)
    assert skipped.to_json() == stepped.to_json()


def test_dispatch_asks_for_blocks_only_after_a_warp_finished():
    # once the first dispatch round is over, only a finished warp can give
    # an SM room, so a step after one in which no warp finished asks no SM
    # for a block; 16 blocks on 2 SMs of 4 resident blocks leave 8 waiting
    world = World(config_from_dict(GOLDEN["clustered-tbas_d-first_touch-"
                                          "serial"]))
    calls = {"has_block": 0, "finish": 0}
    has_block, finish = world.dispatcher.has_block, world._finish_warp

    def counting_has_block(sm_id):
        calls["has_block"] += 1
        return has_block(sm_id)

    def counting_finish(sm, warp):
        calls["finish"] += 1
        finish(sm, warp)

    world.dispatcher.has_block = counting_has_block
    world._finish_warp = counting_finish
    steps = []  # per step: warps finished, has_block calls, blocks left
    while not world.done():
        finished, asked = calls["finish"], calls["has_block"]
        left = len(world.dispatch_log) < len(world.blocks)
        world.step()
        steps.append((calls["finish"] - finished,
                      calls["has_block"] - asked, left))
    # the first step is the first round
    quiet = [asked for (finished, _, _), (_, asked, left)
             in zip(steps, steps[1:]) if not finished and left]
    assert quiet and not any(quiet)
    assert len(world.dispatch_log) == len(world.blocks)


# both golden kernels, profiled and at a stride that leaves a short last
# batch, and the benchmark's three kernels, all under serial dispatch
DISPATCH_LOG_CASES = {
    **{f"{mapping}-stride{stride}": dict(
        make_config(mapping, "tbas_e", "coloring", "serial"), stride=stride)
       for mapping in MAPPINGS for stride in (None, 3)},
    **{f"bench-{name}": dict(build(1), dispatch="serial")
       for name, build in bench_workloads().items()},
}


@pytest.mark.parametrize("name", sorted(DISPATCH_LOG_CASES))
def test_dispatch_log_batches_match_the_plan(name):
    world = World(config_from_dict(DISPATCH_LOG_CASES[name]))
    while len(world.dispatch_log) < len(world.blocks):
        world.step()
    assert sorted(blin for _, _, blin, _ in world.dispatch_log) \
        == list(range(len(world.blocks)))
    for _, _, blin, batch in world.dispatch_log:
        assert batch == blin // world.plan.stride


# `World.dispatch_log` of each golden cell under interleaved dispatch,
# unseeded and at `random_dispatch_seed` 5, and of bench-compute at its own
# seed: a report can hide a permuted dispatch order
DISPATCH_LOG_CELLS = (
    "clustered-ccws-bw_aware-interleaved",
    "clustered-tbas_c-coloring-interleaved",
    "clustered-tbas_d-bw_aware-interleaved",
    "clustered-tbas_e-coloring-interleaved",
    "interleaved-ccws-coloring_hetero-interleaved-cpu",
    "interleaved-tbas_c-first_touch-interleaved",
    "interleaved-tbas_d-coloring_hetero-interleaved",
    "interleaved-tbas_e-first_touch-interleaved-cpu",
    "starve-clustered-tbas_e-first_touch-interleaved",
    "starve-interleaved-tbas_e-first_touch-interleaved-cpu",
)
DISPATCH_LOG_PINS = {
    **{f"{name}-{'seed5' if seed else 'unseeded'}":
       dict(ALL_GOLDEN[name], random_dispatch_seed=seed)
       for name in DISPATCH_LOG_CELLS for seed in (None, 5)},
    "bench-compute": ALL_GOLDEN["bench-compute"],
}


def test_the_dispatch_log_pins_cover_every_interleaved_golden_cell():
    assert {*DISPATCH_LOG_CELLS, "bench-compute"} == {
        name for name, config in ALL_GOLDEN.items()
        if config.get("dispatch") == "interleaved"}
    assert ALL_GOLDEN["bench-compute"]["random_dispatch_seed"] is not None


def dispatch_log_json(config: dict) -> str:
    """`World.dispatch_log` of `config` once every block is dispatched, as
    a JSON list with one `[cycle, sm, block, batch]` entry per line."""
    world = World(config_from_dict(config))
    while len(world.dispatch_log) < len(world.blocks):
        world.step()
    return "[\n" + ",\n".join(map(json.dumps, world.dispatch_log)) + "\n]\n"


@pytest.mark.parametrize("name", sorted(DISPATCH_LOG_PINS))
def test_the_dispatch_log_is_pinned(name):
    assert dispatch_log_json(DISPATCH_LOG_PINS[name]).encode() \
        == fixture_bytes(f"dispatch/{name}.json")


# the plan JSON that `gmemsim profile` writes (stride, batches, page sets
# and sharing histogram), per kernel and stride: the golden cells of one
# kernel share one plan whatever their policies, and at stride 3 the 16
# blocks of a golden kernel end in a short batch
PLAN_PINS = {
    **ALL_GOLDEN,
    "clustered-stride3": DISPATCH_LOG_CASES["clustered-stride3"],
    "interleaved-stride3": DISPATCH_LOG_CASES["interleaved-stride3"],
}


def config_file(config: dict, directory: str) -> str:
    """`config` written to `directory`/config.json, and that path."""
    path = os.path.join(directory, "config.json")
    with open(path, "w") as f:
        json.dump(config, f)
    return path


def run_cli(command: str, config: dict, directory: str, *args: str):
    """`gmemsim <command>` on `config`, written to `directory`."""
    assert main([command, "--config", config_file(config, directory),
                 *args]) == EXIT_OK


def plan_json(config: dict) -> bytes:
    """The plan JSON that `gmemsim profile` writes for `config`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "plan.json")
        run_cli("profile", config, tmp, "--out", out)
        return Path(out).read_bytes()


def plan_fixture(config: dict) -> str:
    """The plan fixture of `config`: one per kernel, and one per kernel and
    fixed stride."""
    stride = config.get("stride")
    name = config["workload"]["kernel"]["name"]
    return f"plan/{name}{f'-stride{stride}' if stride else ''}.json"


@pytest.mark.parametrize("name", sorted(PLAN_PINS))
def test_the_plan_is_pinned(name):
    config = PLAN_PINS[name]
    assert plan_json(config) == fixture_bytes(plan_fixture(config))


@pytest.mark.parametrize("sched", SCHEDS)
def test_batch_whose_blocks_arrive_after_it_finished_still_runs(sched):
    # stride 2 and one resident block per SM: a batch's second block is
    # dispatched after its first block's warps have all finished
    config = make_config("interleaved", sched, "coloring", "serial",
                         horizon=20_000)
    config["stride"] = 2
    config["hardware"]["max_blocks_per_sm"] = 1
    report, _ = run_report(config)
    assert not report.truncated
    assert report.warp_instructions == 128


def binding_run(config: dict) -> tuple:
    """Run `config`, recording each `World._bind` call as (warp, slot).
    Returns the report, those calls, the slots that sent a line to DRAM,
    and the lines bound and the `World._decode` calls, summed over the
    run."""
    world = World(config_from_dict(config), collect_issue_log=True)
    binds, decoded = [], Counter()
    bind, decode = world._bind, world._decode

    def recording_bind(warp):
        binds.append((warp.warp_id, warp.next_slot))
        decoded["bound"] += len(warp.lines)
        return bind(warp)

    def counting_decode(pool, line):
        decoded["decode"] += 1
        return decode(pool, line)

    world._bind, world._decode = recording_bind, counting_decode
    report = world.run()
    slot_at = {(warp, cycle): slot
               for cycle, _, warp, _, slot in world.issue_log}
    sent = {(r.warp_id, slot_at[r.warp_id, r.t_arrival]) for r in world.log
            if r.agent == GPU_AGENT}
    return report, binds, sent, decoded


@pytest.mark.parametrize("name", ["read_twice", "bench-compute"])
def test_a_slot_of_read_hits_binds_and_decodes_nothing(name):
    # a slot binds its lines to their controllers at its first attempt that
    # sends one, so a slot whose lines all hit L1 as reads decodes none;
    # here every slot that binds sends a line
    config = read_twice_config() if name == "read_twice" \
        else BENCH_GOLDEN[name]
    report, binds, sent, decoded = binding_run(config)
    assert set(binds) == sent
    assert len(binds) < report.warp_instructions
    assert decoded["decode"] == decoded["bound"] > 0


@pytest.mark.parametrize("name", ["interleaved-ccws-coloring_hetero-"
                                  "interleaved-cpu", "bench-stencil"])
def test_a_back_pressured_retry_never_binds_again(name):
    report, binds, sent, decoded = binding_run(ALL_GOLDEN[name])
    assert report.issue_backpressure > 0
    assert len(set(binds)) == len(binds)
    # every slot that sent was bound; on the stencil some slots bound at a
    # back-pressured attempt later hit L1 with every line and sent nothing
    assert sent <= set(binds)
    # and each CPU request is decoded once, beside the lines bound
    assert decoded["decode"] == decoded["bound"] + report.cpu_requests


def test_slot_larger_than_its_queue_is_rejected():
    # 8-byte elements: a slot of 8 lanes reads four 16-byte lines of one
    # channel, which a 2-deep controller queue can never take at once
    config = make_config("clustered", "ccws", "first_touch", "serial",
                         horizon=20_000)
    config["workload"]["kernel"]["matrices"][0]["element_size"] = 8
    with pytest.raises(ValueError, match="sends 4 requests into gddr "
                       "channel 0, whose queue holds only 2"):
        run_report(config)


def test_slot_whose_read_hits_fit_its_queue_issues():
    # one warp reads 4-byte elements, then 8-byte elements at the same base:
    # the second slot's four lines of one channel exceed a 2-deep queue, but
    # two of them are the first slot's lines, which hit L1 and are not sent
    config = make_config("clustered", "ccws", "first_touch", "serial",
                         horizon=20_000)
    config["workload"]["kernel"].update(
        grid_dim=[1, 1], block_dim=[8, 1],
        matrices=[_matrix(0, 4, 8, "clustered", 1, True),
                  _matrix(0, 8, 8, "clustered", 1, True)])
    report, _ = run_report(config)
    assert not report.truncated
    assert (report.warp_instructions, report.l1_hits, report.l1_misses) \
        == (2, 2, 4)


def test_overflowed_replies_wait_behind_a_full_reply_queue():
    world = World(config_from_dict(reply_backlog_config()))
    cap = world.cfg.hardware.reply.queue_capacity
    seen = {"blocked": 0, "moved two": 0}
    reply = world._phase_reply

    def recording_reply():
        overflowed = {}
        for sm_id in world.replying:
            sm = world.sms[sm_id]
            queue = sm.reply_queue
            if sm.reply_overflow and len(queue) == cap \
                    and queue[0][0] > world.cycle:
                seen["blocked"] += 1
            overflowed[sm_id] = len(sm.reply_overflow)
        reply()
        seen["moved two"] += sum(
            n - len(world.sms[sm_id].reply_overflow) >= 2
            for sm_id, n in overflowed.items())

    world._phase_reply = recording_reply
    report = world.run()
    assert seen["blocked"] and seen["moved two"] and not report.truncated
    stepped, _ = run_report(reply_backlog_config(), skip=False)
    assert report.to_json() == stepped.to_json()


def test_a_cpu_request_to_ddr_under_coloring_hetero_keeps_the_reference():
    [config] = DDR_GOLDEN.values()
    world = World(config_from_dict(config))
    report = world.run()
    assert report.pool_pages["ddr"] > 0 and report.cpu_requests > 0
    assert not report.truncated
    reference = world_reference(world)
    assert log_fields(report, reference) == reference


def gddr_line(line: int) -> tuple:
    return (Pool.GDDR, line)


def reads(*keys) -> list[tuple]:
    """An issue attempt's lines, as `L1Cache.lookup` takes them, all reads."""
    return [(key, True) for key in keys]


def test_an_l1_hit_refreshes_the_lines_recency():
    # one set of two ways
    l1 = L1Cache(L1Config(size_bytes=32, assoc=2, line_bytes=16))
    a, b, c = map(gddr_line, (0, 1, 2))
    l1.fill(a)
    l1.fill(b)
    assert l1.lookup(reads(a)) == (1, reads(a))  # a is now the most recent
    l1.fill(c)  # evicts b, not a
    assert l1.lookup(reads(b)) == (0, None)
    assert l1.lookup(reads(a, c)) == (2, reads(a, c))


def test_an_l1_fill_past_assoc_evicts_that_sets_lru_line_only():
    # two sets of two ways; even lines map to set 0, odd lines to set 1
    l1 = L1Cache(L1Config(size_bytes=64, assoc=2, line_bytes=16))
    for line in (1, 0, 2, 4):
        l1.fill(gddr_line(line))
    # line 4 evicted line 0, set 0's least recently used; set 1 kept line 1
    assert l1.sets == [dict.fromkeys(map(gddr_line, (2, 4))),
                       dict.fromkeys([gddr_line(1)])]
    assert l1.lookup(reads(gddr_line(0))) == (0, None)


def test_a_size_0_l1_never_hits_and_holds_nothing():
    # a disabled cache's assoc is never read, so even 0 is accepted
    l1 = L1Cache(L1Config(size_bytes=0, assoc=0, line_bytes=16))
    for line in range(4):
        l1.fill(gddr_line(line))
        assert l1.lookup(reads(gddr_line(line))) == (0, None)
    assert not any(l1.sets)


class PerLineL1:
    """The L1 probed one line at a time: per set, its lines from least to
    most recently used."""

    def __init__(self, num_sets: int, assoc: int):
        self.assoc = assoc
        self.sets = [[] for _ in range(num_sets)]

    def probe(self, key) -> bool:
        s = self.sets[key[1] % len(self.sets)]
        if key not in s:
            return False
        s.remove(key)
        s.append(key)
        return True

    def fill(self, key):
        s = self.sets[key[1] % len(self.sets)]
        if key in s:
            s.remove(key)
        s.append(key)
        if len(s) > self.assoc:
            del s[0]

    def lookup(self, lines) -> tuple:
        hit = [entry for entry in lines if self.probe(entry[0])]
        return len(hit), [entry for entry in hit if entry[1]] or None


def assert_probes_like_one_per_line(l1: L1Cache, ref: PerLineL1, lines):
    """One `lookup` of `lines` gives the per-line model's hits and read
    hits, and leaves every set in the model's LRU order."""
    assert l1.lookup(lines) == ref.lookup(lines)
    assert [list(s) for s in l1.sets] == ref.sets


def test_a_batched_l1_probe_matches_one_probe_per_line():
    # two sets of two ways; even lines map to set 0, odd lines to set 1
    l1 = L1Cache(L1Config(size_bytes=64, assoc=2, line_bytes=16))
    ref = PerLineL1(l1.num_sets, 2)
    for line in (0, 1, 2, 3):
        l1.fill(gddr_line(line))
        ref.fill(gddr_line(line))
    a, b, c, miss = map(gddr_line, (0, 1, 2, 5))
    # a read hit, a write hit (counted as a hit, not a read hit: the write
    # still goes to DRAM), a miss, and two lines of set 0, the older first
    lines = [(b, True), (a, False), (miss, True), (c, True)]
    assert l1.lookup(lines) == ref.lookup(lines) \
        == (3, [(b, True), (c, True)])
    assert [list(s) for s in l1.sets] == ref.sets \
        == [[a, c], [gddr_line(3), b]]
    # a write hit alone leaves no read hit
    assert_probes_like_one_per_line(l1, ref, [(a, False), (miss, False)])
    assert l1.lookup([(a, False)]) == (1, None)


@settings(max_examples=100, deadline=None)
@given(size=st.sampled_from([0, 32, 64, 128]), assoc=st.integers(1, 2),
       ops=st.lists(st.one_of(
           st.integers(0, 9),
           st.lists(st.tuples(st.integers(0, 9), st.booleans()),
                    max_size=6)), max_size=30))
@example(size=0, assoc=1, ops=[0, [(0, True), (1, False)], 1, [(1, False)]])
def test_random_batched_l1_probes_match_one_probe_per_line(size, assoc, ops):
    # an int fills that line; a list is one attempt's (line, is_read)s
    l1 = L1Cache(L1Config(size_bytes=size, assoc=assoc, line_bytes=16))
    ref = PerLineL1(l1.num_sets, l1.assoc)
    for op in ops:
        if isinstance(op, int):
            l1.fill(gddr_line(op))
            ref.fill(gddr_line(op))
        else:
            assert_probes_like_one_per_line(
                l1, ref, [(gddr_line(line), r) for line, r in op])


# each CSV that `gmemsim run --trace` writes for one golden cell with CPU
# traffic: its bank counters, dispatch and issue logs, page table (with each
# page's owner) and request log
TRACE_CELL = "interleaved-tbas_d-coloring-serial-cpu"
TRACE_CSVS = ("banks.csv", "dispatch.csv", "issues.csv", "pagetable.csv",
              "requests.csv")


def trace_csvs(config: dict) -> dict[str, bytes]:
    """The CSVs that `gmemsim run --trace` writes for `config`, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        run_cli("run", config, tmp, "--out", os.path.join(tmp, "report.json"),
                "--trace")
        return {p.name: p.read_bytes()
                for p in Path(tmp, "report_trace").iterdir()}


def trace_csv(name: str) -> bytes:
    """One CSV of the trace of the pinned CPU golden cell."""
    return trace_csvs(GOLDEN[TRACE_CELL])[name]


def test_the_trace_csvs_of_a_cpu_golden_cell_are_pinned():
    assert trace_csvs(GOLDEN[TRACE_CELL]) == {
        csv: fixture_bytes(f"trace/{TRACE_CELL}/{csv}") for csv in TRACE_CSVS}


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src"))


# CPU cells, one under coloring_hetero and one that sends requests to both
# pools, so that two controllers of different pools can be due at once
@pytest.mark.parametrize("name", [
    "interleaved-ccws-coloring_hetero-interleaved-cpu",
    "interleaved-tbas_c-bw_aware-serial-cpu"])
def test_report_and_traces_do_not_depend_on_the_hash_seed(name, tmp_path):
    # the controller keys hash by their pool's name, so set order varies
    # with the string hash seed; the cell, run with `--trace` in two
    # interpreters, must write the same bytes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOLDEN[name]))
    written = []
    for seed in ("0", "987654"):
        out = tmp_path / f"hashseed{seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
        subprocess.run([sys.executable, "-m", "gmemsim.cli", "run",
                        "--config", str(path), "--out",
                        str(out / "report.json"), "--trace"],
                       env=env, check=True, timeout=120)
        written.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
    assert sorted(written[0]) == ["report.json", *(
        f"report_trace/{csv}" for csv in TRACE_CSVS)]
    assert written[0] == written[1]
    with open(golden_path(name), "rb") as f:
        assert written[0]["report.json"] == f.read()


def grid_kernel(matrices: list[dict]) -> dict:
    """4x4 interleaved grid of 16x16-thread blocks over 64x64 word matrices."""
    return {"name": "grid4", "grid_dim": [4, 4], "block_dim": [16, 16],
            "warp_size": 32, "matrices": matrices}


@pytest.mark.parametrize("mc_queue", [64, 2])
@pytest.mark.parametrize("l1_size", [0, 32768])
def test_writes_that_hit_l1_still_reach_dram(l1_size, mc_queue):
    # reads a 64x64 matrix, then writes it in place: each of the 128 warps
    # writes two 128-byte lines that it has just read
    kernel = grid_kernel([_matrix(0, 4, 64, "interleaved", 1, True),
                          _matrix(0, 4, 64, "interleaved", 1, False)])
    report, _ = run_report({
        "workload": {"kernel": kernel},
        "hardware": {"l1": {"size_bytes": l1_size},
                     "mc_queue_capacity": mc_queue}})
    assert report.writes == 256
    assert report.l1_hits + report.l1_misses == 512
    # every write finds its line, filled by the warp's own read, in L1
    assert report.l1_hits >= 256 if l1_size else report.l1_hits == 0


def stencil_config(horizon: int) -> dict:
    kernel = grid_kernel([_matrix(0, 4, 64, "interleaved", 1, True),
                          _matrix(16384, 4, 64, "interleaved", 1, True),
                          _matrix(32768, 4, 64, "interleaved", 1, False)])
    return {"workload": {"kernel": kernel}, "horizon": horizon}


@pytest.mark.parametrize("horizon", [100, 500, 1000])
def test_run_cut_at_the_horizon_reports_truncated(horizon, tmp_path):
    report, world = run_report(stencil_config(horizon))
    assert report.truncated
    assert report.cycles == horizon
    assert world.in_service > 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(stencil_config(horizon)))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "report.json")]) == EXIT_TRUNCATED


def steps_json() -> str:
    """The recorded step counts: the `World.step` calls of the benchmark's
    runs, the CPU hold-back steps of each cell with CPU traffic, and the
    `L1Cache.lookup` calls of every golden run."""
    counts = {name: counting_run(config)[2]
              for name, config in sorted(ALL_GOLDEN.items())}
    tables = {
        "bench_steps": {n: counts[n]["step"] for n in BENCH_GOLDEN},
        "cpu_hold_back_steps": {n: counts[n]["held_back"]
                                for n in CPU_CELLS},
        "lookup_calls": {n: counts[n]["lookup"] for n in ALL_GOLDEN}}
    return json.dumps(tables, indent=2, sort_keys=True) + "\n"


# the directories that hold recorded fixtures, beside steps.json
RECORDED_DIRS = ("golden", "dispatch", "plan", "trace")


def fixtures() -> dict:
    """Every fixture that `record()` writes, by its path under
    tests/fixtures, with the function that renders it."""
    out = {f"golden/{name}.json": partial(report_json, config)
           for name, config in ALL_GOLDEN.items()}
    out.update({f"dispatch/{name}.json": partial(dispatch_log_json, config)
                for name, config in DISPATCH_LOG_PINS.items()})
    # the pins of one plan share its file
    out.update({plan_fixture(config): partial(plan_json, config)
                for config in PLAN_PINS.values()})
    out.update({f"trace/{TRACE_CELL}/{csv}": partial(trace_csv, csv)
                for csv in TRACE_CSVS})
    out["steps.json"] = steps_json
    return out


def recorded_files() -> set[str]:
    """The fixture files that are on disk where `record()` writes, by path
    under tests/fixtures."""
    root = Path(fixture_path())
    found = [root / "steps.json",
             *(p for top in RECORDED_DIRS for p in (root / top).rglob("*"))]
    return {p.relative_to(root).as_posix() for p in found if p.is_file()}


def test_the_fixtures_on_disk_are_those_record_writes():
    # runs no simulation: a stale fixture, or a pin with no file, fails here
    assert recorded_files() == set(fixtures())


def record():
    """Write every fixture, and delete those that no pin names."""
    written = fixtures()
    on_disk = recorded_files()
    for path, render in written.items():  # the goldens first
        data = render()
        data = data if isinstance(data, bytes) else data.encode()
        if path in on_disk and fixture_bytes(path) == data:
            continue
        print(f"{path}: {'changed' if path in on_disk else 'new'}")
        full = Path(fixture_path(path))
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_bytes(data)
    for path in sorted(on_disk - set(written)):
        os.remove(fixture_path(path))
        print(f"{path}: deleted")
    print(f"{len(written)} fixtures recorded under {fixture_path()}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
