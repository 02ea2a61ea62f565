"""Deterministic cycle loop binding dispatch, SMs, DRAM, and the reply network.

Each cycle runs a fixed phase order: (1) dispatch fills idle SM slots, (2)
each SM flagged issuable, in SM-id order, issues at most one warp
instruction, with L1 lookup and back-pressure aware request injection, (3)
pending CPU traffic enters the controller queues, (4) each controller that
is due (a waiting request's bank is free) picks and issues one request, in
`mc_queues` order, and the others are not visited, (5) the SMs with replies
waiting, in SM-id order, drain them subject to the network's bandwidth, and
bank completions enter it, (6) counters update.  Given one config and seed
the whole run is bit-reproducible.

Every timed event is one `(cycle, seq, fire, args)` entry on one heap,
`World.calendar`, and each step and each skip check first fires the ones
due.  A warp left with no outstanding reads and a slot to go wakes at
`cycle + 1 + compute_gap`, into its SM's `scheduler.wake`.  A due CPU
arrival is handed over and the next drawn from `gen_cpu_traffic`'s iterator
onto `World.cpu_stream`, so the stream's cost follows the cycles simulated,
not the horizon; `cpu_stream[cpu_sent:cpu_next]` are the arrivals held back
by a full queue, the first translated once and kept in `cpu_head`, as a
warp's slot keeps its issue plan in `WarpState.lines`.  A bank completion is
held in `completing` for phase 5, so the order of work within a cycle does
not change.  No controller is polled: `World.due` holds those with a
waiting request whose bank is free, updated by an enqueue into a free bank
(`_enqueue`, which GPU and CPU requests share), by a completion whose bank
has requests waiting, and by each pick, which leaves its controller due
while `mc_pick` saw a ready bank other than the one it picked from.

Cycles in which provably nothing can change are skipped in one jump to the
next event.  `World._next_event_cycle` is the one list of event sources that
decides both, and each source answers for itself: the calendar through its
top, the dispatcher through `has_block` (asked only after a warp finished,
since nothing else frees an SM's room), the schedulers through
`World.issuable`, the controllers through `World.due`, the replying SMs
through `World.replying` and `World.overflowed`, the CPU stream through its
cursors.  The jump never crosses an event boundary, so per-cycle state along
the executed prefix is identical to the unskipped loop.

`World.issuable` holds the SMs whose scheduler's `has_issuable()` is True.
One rule keeps it current: `_recheck` asks again after every engine action
that calls a scheduler hook, with no condition: a block instantiated
(`add_warp`), a wake-up (`wake`), an issue (`on_issue`, then
`on_long_stall` or `_resume`, which may call `on_finish`) and a reply that
settles a warp's last read (`_resume`).  The query is pure, so an extra
recheck cannot move the schedule.  `select_warp` returns None and changes
nothing whenever `has_issuable()` is False, so skipping the SMs outside the
set keeps the schedule; a back-pressured pick leaves its warp ready and its
SM in the set.  An SM is in `replying` while its reply queue or overflow
holds a reply.

A slot's issue plan is kept from its first issue attempt until the slot
issues, and every back-pressured retry reuses it.  The first attempt
translates its lines in lane order (`WarpState.lines`), so first touches and
their cycle do not move; the first that sends a line decodes them and counts
the lines bound for each controller (`WarpState.bound`).  An attempt probes
L1 with one `L1Cache.lookup` call over all its lines in lane order, so the
LRU order moves as one probe per line moves it, unless its last probe hit
nothing and its L1 took no fill since (`WarpState.missed`, `L1Cache.fills`):
that probe would hit and move nothing again.  Then it compares each
controller's count with its room; only after a read hit does it count the
lines it sends again, and it keeps that count out of the plan.

A run checks what it relies on where it acts, and raises `SimulationFault`
when it does not hold: an SM flagged issuable whose scheduler picks no
warp, a picked or woken warp that is not ready, a due controller that picks
no request, a queue that overflows after the space check and a request
outside its row region; `dram.bank_advance` refuses a busy bank.  Once per
report, `_crosscheck` checks that a run that was not cut at the horizon
left no request in a controller queue, which `done()` derived from `due`
and `in_service` rather than read from a count of its own, and compares
the bank counters with each other and the log's issued requests with the
counters' accesses.  The report takes each DRAM statistic from one
source: counts and RBHR from the bank counters, BLP from the cycle count
`blp_sum / blp_cycles`, and from `compute_metrics` only what the log alone
holds.  No index is rescanned and no statistic derived twice during a
run: the tests compare each running index with a rescan after every step
(`tests/test_engine.py`), and each report with the request log's second
derivation (`tests/metrics_reference.py`).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count

from .batching import form_batches, profile_stride
from .config import L1Config, RunConfig, policies_dict
from .dispatch import DispatchKind, Dispatcher, partition_blocks
from .dram import (CPU_AGENT, GPU_AGENT, McQueue, MemoryRequest, bank_advance,
                   mc_pick)
from .memmap import (CPU_OWNER, DecodedAddress, FrameRegion, PagePolicy,
                     PageTable, Pool, build_color_map)
from .metrics import MetricsReport, compute_metrics, energy_total
from .sched import WarpState, make_scheduler
from .workload import (CpuRequest, enumerate_blocks, gen_block_trace,
                       gen_cpu_traffic, load_workload)


# the BankState counters that _report sums per pool
BANK_COUNTERS = ("activates", "reads", "writes", "row_hits")


def _per_queue(lines: list[tuple], queues: dict[tuple, McQueue]) -> list:
    """(controller, number of `lines` bound for it, queue key) per
    controller that `lines` name, in the order the keys first appear."""
    need: dict[tuple, int] = {}
    for _, _, qkey, _ in lines:
        need[qkey] = need.get(qkey, 0) + 1
    return [(queues[key], n, key) for key, n in need.items()]


class SimulationFault(AssertionError):
    """An engine invariant broke; carries the faulting cycle."""

    def __init__(self, cycle: int, message: str):
        super().__init__(f"cycle {cycle}: {message}")
        self.cycle = cycle


class L1Cache:
    """Set-associative LRU cache keyed by (pool, line); write-through with no
    write allocation, so only read fills change its contents, and `fills`
    counts them.  Size 0 makes one set of associativity 0, which holds no
    line, so every access misses."""

    def __init__(self, cfg: L1Config):
        self.assoc = cfg.assoc if cfg.size_bytes else 0
        self.num_sets = (cfg.size_bytes // (cfg.assoc * cfg.line_bytes)
                         if cfg.size_bytes else 1)
        self.sets = [dict() for _ in range(self.num_sets)]
        self.fills = 0

    def lookup(self, lines: list[tuple]) -> tuple[int, list | None]:
        """Probe an issue attempt's `lines`, each a (key, is_read) tuple, in
        lane order; a hit becomes its set's most recently used line, exactly
        as one probe per line in that order leaves it, and a probe that hits
        nothing changes nothing.  Returns the number of hits and the lines
        that are read hits, None when there is none; a write hit counts as
        a hit, and write-through still sends it."""
        sets, num_sets = self.sets, self.num_sets
        hits = 0
        read_hits = None
        for entry in lines:
            key = entry[0]
            s = sets[key[1] % num_sets]
            if key in s:
                s[key] = s.pop(key)
                hits += 1
                if entry[1]:
                    if read_hits is None:
                        read_hits = [entry]
                    else:
                        read_hits.append(entry)
        return hits, read_hits

    def fill(self, key):
        self.fills += 1
        s = self.sets[key[1] % self.num_sets]
        s.pop(key, None)
        s[key] = None
        if len(s) > self.assoc:
            s.pop(next(iter(s)))


class SmModel:
    def __init__(self, sm_id: int, scheduler, l1cfg: L1Config,
                 max_blocks: int, max_warps: int):
        self.sm_id = sm_id
        self.scheduler = scheduler
        self.l1 = L1Cache(l1cfg)
        self.max_blocks = max_blocks
        self.max_warps = max_warps
        # block linear id -> its warps that have not finished
        self.resident_blocks: dict[int, int] = {}
        self.reply_queue: deque = deque()
        self.reply_overflow: deque = deque()

    def has_slot(self, warps_per_block: int) -> bool:
        return (len(self.resident_blocks) < self.max_blocks
                and sum(self.resident_blocks.values()) + warps_per_block
                <= self.max_warps)


class World:
    """Complete simulation state for one run."""

    def __init__(self, cfg: RunConfig, *, collect_issue_log: bool = False):
        cfg.validate()
        self.cfg = cfg
        hw = cfg.hardware
        self.kernel, self.cpu_spec = load_workload(cfg.workload)
        kernel, page = self.kernel, cfg.page_size
        max_warps = hw.max_threads_per_sm // kernel.warp_size
        if max_warps < kernel.warps_per_block:
            raise ValueError(
                f"config.hardware.max_threads_per_sm "
                f"({hw.max_threads_per_sm}) must hold one block's "
                f"{kernel.warps_per_block} warps of {kernel.warp_size} "
                f"threads")
        # coloring_hetero keeps CPU and GPU pages in rows of their own, so
        # the CPU region's pages must miss every matrix the GPU touches
        cpu_pages = None
        if cfg.allocator is PagePolicy.COLORING_HETERO and self.cpu_spec:
            lo, hi = self.cpu_spec.address_region
            cpu_pages = (lo // page, (hi - 1) // page)
        threads = kernel.total_blocks * kernel.threads_per_block
        for i, m in enumerate(kernel.matrices):
            where = f"workload.kernel.matrices[{i}]"
            if m.base_addr % page:
                raise ValueError(
                    f"{where}.base_addr ({m.base_addr:#x}) must be a "
                    f"multiple of the {page}-byte page size")
            # each mapping gives each thread an element index below `threads`
            last = m.base_addr + (threads - 1) * m.element_size
            if cpu_pages and m.accesses_per_thread \
                    and cpu_pages[0] <= last // page \
                    and m.base_addr // page <= cpu_pages[1]:
                raise ValueError(
                    f"workload.cpu_traffic.address_region [{lo}, {hi}] "
                    f"shares pages with {where}, whose elements start at "
                    f"bytes {m.base_addr} to {last}, but coloring_hetero "
                    f"keeps CPU and GPU pages in separate rows")

        # each lane makes every access, so any access gives each warp a slot
        if not any(m.accesses_per_thread for m in kernel.matrices):
            raise ValueError("workload.kernel issues no memory accesses")
        self.plan = (form_batches(kernel, cfg.stride) if cfg.stride is not None
                     else form_batches(kernel, *profile_stride(kernel, page)))
        self.blocks = enumerate_blocks(kernel)

        region = None
        if cfg.allocator is PagePolicy.COLORING_HETERO:
            region = FrameRegion.split(hw.gddr.layout.num_rows, hw.cpu_row_fraction)
        self.page_table = PageTable(
            cfg.allocator,
            {Pool.GDDR: hw.gddr.layout, Pool.DDR: hw.ddr.layout},
            build_color_map(hw.num_sms, hw.gddr.layout), region=region,
            bw_ratio=hw.bw_ratio, cpu_pool=hw.cpu_pool,
        )

        self.sms = [
            SmModel(
                sm,
                make_scheduler(cfg.scheduler, capacity=hw.running_set_warps,
                               threshold=hw.sufficient_active_threshold),
                hw.l1, hw.max_blocks_per_sm, max_warps,
            )
            for sm in range(hw.num_sms)
        ]

        if cfg.dispatch is DispatchKind.SERIAL:
            self.dispatcher = Dispatcher(partition_blocks(
                len(self.blocks), hw.num_sms, self.plan.stride))
        else:  # every SM pops from the one shared range
            self.dispatcher = Dispatcher([[0, len(self.blocks)]] * hw.num_sms,
                                         seed=cfg.random_dispatch_seed)

        self.pools = {Pool.GDDR: hw.gddr, Pool.DDR: hw.ddr}
        # one controller per (pool, channel), in (pool name, channel) order
        self.mc_queues: dict[tuple, McQueue] = {
            (pool, ch): McQueue(capacity=hw.mc_queue_capacity,
                                arbitration=cfg.arbitration,
                                starvation_cap=hw.starvation_cap,
                                num_banks=self.pools[pool].layout.num_banks)
            for pool in sorted(self.pools, key=lambda p: p.value)
            for ch in range(self.pools[pool].layout.num_channels)}

        # (cycle, seq, fire, args) per timed event; `fire(*args)` at `cycle`
        self.calendar: list[tuple] = []
        self._seq = count()
        # the CPU stream is drawn as the run reaches it: `cpu_stream` holds
        # the arrivals drawn so far, the first `cpu_next` of them handed
        # over and the first `cpu_sent` enqueued; `cpu_head` is the request
        # of a held-back `cpu_stream[cpu_sent]`
        self.cpu_arrivals = iter(())
        if self.cpu_spec is not None and cfg.horizon > 0:
            self.cpu_arrivals = gen_cpu_traffic(self.cpu_spec, cfg.horizon)
        self.cpu_stream: list[CpuRequest] = []
        self.cpu_next = 0
        self.cpu_sent = 0
        self.cpu_head: MemoryRequest | None = None
        self._draw_cpu()

        self.cycle = 0
        self.finished_warps = 0
        self.total_warps = len(self.blocks) * self.kernel.warps_per_block
        self.log: list[MemoryRequest] = []
        # requests in service, one per busy bank, and the ones whose
        # completion fired this cycle, held for the reply phase
        self.in_service = 0
        self.completing: list[MemoryRequest] = []
        self.blp_sum = 0
        self.blp_cycles = 0
        self.warp_instructions = 0
        self.l1_hits = 0
        self.l1_misses = 0
        self.issue_backpressure = 0
        self.reply_stalls = 0
        # (cycle, sm, block linear id, batch) per block dispatched
        self.dispatch_log: list[tuple] = []
        # set when an SM may have gained room since the last dispatch phase
        self.room_freed = True
        self.warp_index: dict[int, WarpState] = {}
        # ids of the SMs whose scheduler has a warp to issue
        self.issuable: set[int] = set()
        # ids of the SMs with a reply queued or overflowed, and the number of
        # overflowed replies
        self.replying: set[int] = set()
        self.overflowed = 0
        # the keys of the controllers with a waiting request whose bank is
        # free
        self.due: set[tuple] = set()
        self.issue_log: list[tuple] | None = [] if collect_issue_log else None
        self._line = hw.l1.line_bytes

    # dispatch -------------------------------------------------------------

    def _instantiate_block(self, sm: SmModel, blin: int):
        """Start block `blin` (its index in `enumerate_blocks` order) on `sm`;
        its warps belong to batch `blin // plan.stride`."""
        block_id = self.blocks[blin]
        batch = blin // self.plan.stride
        warps = [WarpState(warp_id=wid, batch_id=batch, block_linear=blin,
                           slots=slots, ready_at=self.cycle)
                 for wid, slots in gen_block_trace(self.kernel, block_id,
                                                   self._line).items()]
        self._make_resident(sm, blin, warps)
        self.dispatch_log.append((self.cycle, sm.sm_id, blin, batch))

    def _make_resident(self, sm: SmModel, blin: int, warps: list[WarpState]):
        """Hand block `blin`'s `warps`, all ready, to `sm`."""
        for w in warps:
            self.warp_index[w.warp_id] = w
            sm.scheduler.add_warp(w)
        sm.resident_blocks[blin] = len(warps)
        self._recheck(sm)

    def _wants_block(self, sm: SmModel) -> bool:
        """`sm` has room for a block and the dispatcher has one left for it."""
        return (self.dispatcher.has_block(sm.sm_id)
                and sm.has_slot(self.kernel.warps_per_block))

    def _phase_dispatch(self):
        """Rounds in which every SM with room and a block left takes one.

        Afterwards no SM has both, until `_finish_warp` frees room and sets
        `room_freed`; until then the phase has nothing to do."""
        if not self.room_freed:
            return
        self.room_freed = False
        dispatcher = self.dispatcher
        progress = True
        while progress and len(self.dispatch_log) < len(self.blocks):
            progress = False
            idle = [sm.sm_id for sm in self.sms if self._wants_block(sm)]
            for sm_id in dispatcher.order_idle_sms(idle):
                blin = dispatcher.next_block(sm_id)
                if blin is None:  # interleaved: the shared range ran out
                    break
                self._instantiate_block(self.sms[sm_id], blin)
                progress = True

    # issue ------------------------------------------------------------------

    def _make_request(self, pool: Pool, d: DecodedAddress, is_read: bool,
                      agent: str, sm_id: int, warp_id: int, batch_id: int,
                      line: int, t_arrival: int) -> MemoryRequest:
        region = self.page_table.region
        if region is not None and pool is Pool.GDDR:
            lo, hi = (region.cpu_rows if agent == CPU_AGENT
                      else region.gpu_rows)
            if not lo <= d.row < hi:
                raise SimulationFault(
                    self.cycle, f"{agent} request outside its row region "
                    f"(row {d.row} not in [{lo}, {hi}))")
        return MemoryRequest(
            pool=pool.value, channel=d.channel, bank=d.bank, row=d.row,
            column=d.column, is_read=is_read, agent=agent, sm_id=sm_id,
            warp_id=warp_id, batch_id=batch_id, line_addr=line,
            t_arrival=t_arrival,
        )

    def _line_of(self, vaddr: int, owner: int) -> tuple:
        """(pool, line number) of a virtual address, allocating its page for
        `owner` on first touch."""
        pool, paddr = self.page_table.translate(vaddr, owner)
        return pool, paddr // self._line

    def _decode(self, pool: Pool, line: int) -> DecodedAddress:
        return self.pools[pool].layout.decompose(line * self._line)

    def _slot_lines(self, warp: WarpState, sm_id: int) -> list:
        """Translate the current slot's lines as ((pool, line), is_read), in
        lane order, and keep them as its plan's `lines`.

        Called at the slot's first issue attempt, which keeps first-touch
        allocation in lane order and at the same cycle; every
        back-pressured retry reuses them."""
        warp.lines = [(self._line_of(vaddr, sm_id), is_read)
                      for vaddr, is_read in warp.slots[warp.next_slot]]
        return warp.lines

    def _bind(self, warp: WarpState) -> tuple:
        """Keep as the slot plan's `bound` its lines as ((pool, line),
        is_read, queue key, decoded line address) and, per controller they
        name, (its `McQueue`, the number of lines bound for it, its queue
        key); called at the first attempt that sends a line."""
        lines = []
        for key, is_read in warp.lines:
            d = self._decode(*key)
            lines.append((key, is_read, (key[0], d.channel), d))
        warp.bound = (lines, _per_queue(lines, self.mc_queues))
        return warp.bound

    def _recheck(self, sm: SmModel):
        """Ask `sm`'s scheduler again whether it has an issuable warp, after
        an action that called one of its hooks."""
        if sm.scheduler.has_issuable():
            self.issuable.add(sm.sm_id)
        else:
            self.issuable.discard(sm.sm_id)

    def _phase_issue(self):
        """Each SM in `issuable`, in SM-id order, tries to issue one warp
        instruction.  Any other SM is skipped: its `select_warp` would
        return None and change nothing.  Only the SM being visited changes
        its own membership, so a snapshot of the set is safe to walk."""
        queues = self.mc_queues
        for sm_id in sorted(self.issuable):
            sm = self.sms[sm_id]
            warp = sm.scheduler.select_warp()
            if warp is None:
                raise SimulationFault(
                    self.cycle, f"SM {sm_id} is flagged issuable, "
                    "but its scheduler picked no warp")
            if not warp.is_ready(self.cycle):
                raise SimulationFault(
                    self.cycle, f"SM {sm.sm_id} picked warp {warp.warp_id}, "
                    "which is not ready")
            lines = warp.lines or self._slot_lines(warp, sm_id)
            l1 = sm.l1
            # a probe that hit nothing hits nothing while its L1 takes no fill
            hits, read_hits = ((0, None) if warp.missed == l1.fills
                               else l1.lookup(lines))
            if not hits:
                warp.missed = l1.fills
            # write-through: every line but a read hit goes to DRAM
            if read_hits and len(read_hits) == len(lines):  # nothing goes out
                sends = need = ()
            else:
                sends, need = warp.bound or self._bind(warp)
                if read_hits:  # fewer lines go out than the plan counted
                    sends = [b for e, b in zip(lines, sends)
                             if e not in read_hits]
                    need = _per_queue(sends, queues)
            blocked = False
            for q, n, key in need:
                if q.count + n > q.capacity:
                    if n > q.capacity:  # no retry could ever fit
                        raise ValueError(
                            f"a warp slot sends {n} requests into "
                            f"{key[0].value} channel {key[1]}, whose queue "
                            f"holds only {q.capacity} "
                            "(raise mc_queue_capacity)")
                    blocked = True
            if blocked:
                self.issue_backpressure += 1  # retried next cycle
                continue
            self.l1_hits += hits
            self.l1_misses += len(lines) - hits
            self.warp_instructions += 1
            if self.issue_log is not None:
                self.issue_log.append(
                    (self.cycle, sm.sm_id, warp.warp_id, warp.batch_id,
                     warp.next_slot))
            stalled = False
            for key, is_read, qkey, d in sends:
                pool, line = key
                req = self._make_request(
                    pool, d, is_read, GPU_AGENT, sm.sm_id, warp.warp_id,
                    warp.batch_id, line, self.cycle)
                if not self._enqueue(qkey, req):
                    raise SimulationFault(self.cycle, "queue overflow after space check")
                if is_read:
                    warp.pending += 1
                    stalled = True
            warp.lines = warp.bound = warp.missed = None
            warp.next_slot += 1
            sm.scheduler.on_issue(warp)
            if stalled:
                sm.scheduler.on_long_stall(warp)
            else:
                self._resume(sm, warp)
            self._recheck(sm)

    def _resume(self, sm: SmModel, warp: WarpState):
        """`warp` has no outstanding reads: finish it after its last slot, or
        else schedule its wake-up once the compute gap has passed."""
        if warp.next_slot >= len(warp.slots):
            self._finish_warp(sm, warp)
            return
        warp.ready_at = self.cycle + 1 + self.kernel.compute_gap
        self._at(warp.ready_at, self._wake, sm, warp)

    def _wake(self, sm: SmModel, warp: WarpState):
        """Hand a warp whose wake-up is due to its SM's scheduler."""
        if not warp.is_ready(self.cycle):
            raise SimulationFault(
                self.cycle, f"woke warp {warp.warp_id} on SM {sm.sm_id}, "
                "which is not ready")
        sm.scheduler.wake(warp)
        self._recheck(sm)

    def _finish_warp(self, sm: SmModel, warp: WarpState):
        warp.finished = True
        self.finished_warps += 1
        self.room_freed = True
        sm.scheduler.on_finish(warp)
        left = sm.resident_blocks[warp.block_linear] - 1
        if left:
            sm.resident_blocks[warp.block_linear] = left
        else:
            del sm.resident_blocks[warp.block_linear]

    # cpu traffic ------------------------------------------------------------

    def _draw_cpu(self):
        """Draw the next CPU arrival onto `cpu_stream` and put its hand-over
        on the calendar; nothing once the stream has ended."""
        ev = next(self.cpu_arrivals, None)
        if ev is not None:
            self.cpu_stream.append(ev)
            self._at(ev.cycle, self._arrive)

    def _arrive(self):
        """Hand over the arrival drawn ahead, and draw the next."""
        self.cpu_next += 1
        self._draw_cpu()

    def _phase_cpu(self):
        """Enqueue the arrivals handed over, in arrival order, up to the
        first whose queue is full.  Each is translated at its first attempt,
        and a held-back head keeps its request in `cpu_head` for the next."""
        while self.cpu_sent < self.cpu_next:
            req = self.cpu_head
            if req is None:
                ev = self.cpu_stream[self.cpu_sent]
                pool, line = self._line_of(ev.virtual_addr, CPU_OWNER)
                req = self.cpu_head = self._make_request(
                    pool, self._decode(pool, line), ev.is_read, CPU_AGENT,
                    -1, -1, -1, line, ev.cycle)
            if not self._enqueue((Pool(req.pool), req.channel), req):
                break
            self.cpu_head = None
            self.cpu_sent += 1

    # memory controllers ------------------------------------------------------

    def _enqueue(self, key: tuple, req: MemoryRequest) -> bool:
        """Enqueue `req` into controller `key` and log it; False, with
        nothing changed, when the queue is full.  A controller that gets a
        request for a free bank is due."""
        q = self.mc_queues[key]
        if not q.enqueue(req, self.cycle):
            return False
        self.log.append(req)
        if q.banks[req.bank].busy_until <= self.cycle:
            self.due.add(key)
        return True

    def _phase_mc(self):
        """Each due controller, in `mc_queues` order, picks and issues one
        request, and its completion goes on the calendar.  Keys sort as
        `mc_queues` is built, by pool name, then channel; two completions
        in one cycle enter the reply network in pick order."""
        for key in sorted(self.due):
            q = self.mc_queues[key]
            req = mc_pick(q, self.cycle)
            if req is None:
                raise SimulationFault(
                    self.cycle, f"{key[0].value} channel {key[1]} is due, "
                    "but its controller picked no request")
            done = bank_advance(q.banks[req.bank], req,
                                self.pools[key[0]].timing, self.cycle)
            self.in_service += 1
            self._at(done, self._complete, key, req)
            if q.ready_at_pick < 2:  # the picked bank was its last ready one
                self.due.discard(key)

    def _complete(self, key: tuple, req: MemoryRequest):
        """`req`'s bank is free: its controller is due if the bank has more
        waiting, and `req` waits for this cycle's reply phase."""
        if self.mc_queues[key].fifos[req.bank]:
            self.due.add(key)
        self.completing.append(req)

    # reply network ------------------------------------------------------------

    def _deliver(self, sm: SmModel, req: MemoryRequest):
        sm.l1.fill((Pool(req.pool), req.line_addr))
        # a slot's lines are distinct, so each reply settles one read
        warp = self.warp_index[req.warp_id]
        warp.pending -= 1
        if not warp.pending:
            self._resume(sm, warp)
            self._recheck(sm)

    def _phase_reply(self):
        """The SMs with replies waiting, in SM-id order, take theirs; then
        this cycle's bank completions enter the reply network."""
        hw = self.cfg.hardware.reply
        for sm_id in sorted(self.replying):
            sm = self.sms[sm_id]
            queue, overflow = sm.reply_queue, sm.reply_overflow
            drained = 0
            while (queue and drained < hw.drain_per_cycle
                   and queue[0][0] <= self.cycle):
                _, req = queue.popleft()
                self._deliver(sm, req)
                drained += 1
            while overflow and len(queue) < hw.queue_capacity:
                queue.append((self.cycle + hw.latency, overflow.popleft()))
                self.overflowed -= 1
            if not queue:  # an overflow waits only behind a full queue
                self.replying.discard(sm_id)
        for req in self.completing:
            self.in_service -= 1
            if req.agent == GPU_AGENT and req.is_read:
                sm = self.sms[req.sm_id]
                if len(sm.reply_queue) < hw.queue_capacity:
                    sm.reply_queue.append((self.cycle + hw.latency, req))
                else:
                    sm.reply_overflow.append(req)
                    self.overflowed += 1
                self.replying.add(req.sm_id)
        self.completing.clear()
        self.reply_stalls += self.overflowed

    # main loop ------------------------------------------------------------

    def done(self) -> bool:
        """The GPU has finished, no CPU arrival that is due waits for queue
        room, every enqueued request, GPU or CPU, has been served and every
        reply delivered.  Arrivals not yet due do not hold the run open,
        but one held back by a full queue does: a CPU stream that offers
        more than the controllers serve keeps a finished GPU's run going up
        to its horizon (the FOUND line on `World.done` in CHANGES.md).

        Every term is a running count or index, so the answer costs O(1):
        `in_service` counts the busy banks, and `replying` holds the SMs
        with a reply queued or overflowed.  No count of the waiting requests
        is kept, since `due` stands for them: a waiting request's bank is
        either free, which puts its controller in `due`, or busy serving a
        request that `in_service` counts.  The two stand for a held-back
        arrival too, since its queue is full.  Every block has been
        dispatched once `finished_warps` reaches `total_warps`, since each
        block brings all `warps_per_block` of its warps."""
        return (self.finished_warps >= self.total_warps
                and not (self.in_service or self.due or self.replying))

    def _tick(self, cycles: int):
        """Advance the clock, counting the banks in service meanwhile."""
        if self.in_service:
            self.blp_sum += self.in_service * cycles
            self.blp_cycles += cycles
        self.cycle += cycles

    def _at(self, cycle: int, fire, *args):
        """Put `fire(*args)` on the calendar for `cycle`."""
        heapq.heappush(self.calendar, (cycle, next(self._seq), fire, args))

    def _fire_due(self):
        """Fire the calendar's entries due by now, in (cycle, seq) order."""
        calendar = self.calendar
        while calendar and calendar[0][0] <= self.cycle:
            _, _, fire, args = heapq.heappop(calendar)
            fire(*args)

    def step(self):
        self._fire_due()
        self._phase_dispatch()
        self._phase_issue()
        self._phase_cpu()
        self._phase_mc()
        self._phase_reply()
        self._tick(1)

    def _next_event_cycle(self) -> int | None:
        """The current cycle if a step now could change any state, else the
        earliest cycle at which one could, or None when no event is pending.

        The calendar's due entries fire first, as in a step, and each shows
        in a source below: a wake-up in `issuable`, an arrival in the CPU
        arrivals held back, a completion in `completing` and `due`.  The
        reply network answers through the overflow count and the queue
        heads of the replying SMs only, the dispatcher through `has_block`,
        and the calendar's top is the next timed event."""
        now = self.cycle
        self._fire_due()
        if (self.cpu_sent < self.cpu_next or self.overflowed or self.completing
                or self.issuable or self.due):
            return now
        # reply deliveries (with no reply overflowed, every replying SM has
        # one queued) and the next timed event
        events = [self.sms[i].reply_queue[0][0] for i in self.replying]
        if self.calendar:
            events.append(self.calendar[0][0])
        if events and min(events) <= now:
            return now
        # an SM with room and a block left for it
        if self.room_freed and len(self.dispatch_log) < len(self.blocks) \
                and any(self._wants_block(sm) for sm in self.sms):
            return now
        return min(events, default=None)

    def run(self) -> MetricsReport:
        horizon = self.cfg.horizon
        # neither a fresh World nor a jump, which only adds work, is done
        while self.cycle < horizon:
            self.step()  # the first cycle and each jump's target are stepped
            # done() before a jump: a drained GPU ends the run even when the
            # CPU stream has later arrivals
            if self.cycle >= horizon or self.done():
                break
            nxt = self._next_event_cycle()
            if nxt is None:
                raise SimulationFault(
                    self.cycle, "no event is pending, yet the run is not done")
            if nxt != self.cycle:
                self._tick(min(nxt, horizon) - self.cycle)
        return self._report(truncated=not self.done())

    # reporting ---------------------------------------------------------------

    def _report(self, truncated: bool) -> MetricsReport:
        hw = self.cfg.hardware
        # each pool's bank counters, summed once for the DRAM counts, energy
        # and the crosscheck
        totals = {pool: dict.fromkeys(BANK_COUNTERS, 0) for pool in self.pools}
        for (pool, _), q in self.mc_queues.items():
            t = totals[pool]
            for bank in q.banks:
                for k in BANK_COUNTERS:
                    t[k] += getattr(bank, k)
        activates, reads, writes, hits = (sum(t[k] for t in totals.values())
                                          for k in BANK_COUNTERS)
        accesses = reads + writes
        report = MetricsReport(
            workload=self.kernel.name,
            policies=policies_dict(self.cfg),
            seed=self.cfg.seed,
            cycles=self.cycle,
            truncated=truncated,
            warp_instructions=self.warp_instructions,
            ipc_proxy=self.warp_instructions / self.cycle if self.cycle else 0.0,
            total_accesses=accesses,
            reads=reads,
            writes=writes,
            row_hits=hits,
            activates=activates,
            rbhr=hits / accesses if accesses else 0.0,
            blp=self.blp_sum / self.blp_cycles if self.blp_cycles else 0.0,
            reply_stalls=self.reply_stalls,
            issue_backpressure=self.issue_backpressure,
            request_window=hw.request_window,
            l1_hits=self.l1_hits,
            l1_misses=self.l1_misses,
            mpki_proxy=(self.l1_misses * 1000 / self.warp_instructions
                        if self.warp_instructions else 0.0),
            spilled_pages=self.page_table.spilled_pages,
            pool_pages={p.value: n for p, n in self.page_table.pool_pages.items()},
            degenerate=not self.log,
            **compute_metrics(self.log, self.page_table, hw.request_window),
        )
        energy = dict.fromkeys(("activate", "read_write", "background",
                                "total"), 0.0)
        for pool, pc in self.pools.items():
            part = energy_total(totals[pool], pc.energy, self.cycle,
                                pc.layout.num_channels * pc.layout.num_banks)
            for k, v in part.items():
                energy[k] += v
            energy[f"{pool.value}_total"] = part["total"]
        report.energy = energy
        self._crosscheck(report)
        return report

    def _crosscheck(self, report: MetricsReport):
        if not report.truncated:  # `done()` took the queues to be empty
            for (pool, ch), q in self.mc_queues.items():
                if q.count:
                    raise SimulationFault(
                        self.cycle, f"{q.count} request(s) still wait in "
                        f"{pool.value} channel {ch} at the end of the run")
        if report.activates + report.row_hits != report.total_accesses:
            raise SimulationFault(
                self.cycle, "bank counters: activates + hits != accesses")
        if report.gpu_requests + report.cpu_requests != report.total_accesses:
            raise SimulationFault(
                self.cycle, "request log disagrees with bank counters")
