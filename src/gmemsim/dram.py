"""DDRx bank state machines and FR-FCFS controllers with bounded queues.

Open-page policy: the row touched by an access stays latched in the bank's
row buffer, so a later access to the same row skips the activate.  Per access
the service time is

    row hit                 : tCAS + tBURST
    row miss, row open      : tRP + tRCD + tCAS + tBURST
    row miss, bank idle     : tRCD + tCAS + tBURST

and every access is exactly one of {row hit, activate}.  A bank serves one
access at a time, and an activate that closes a row waits tRP first, so two
activates of one bank are at least tRCD + tCAS + tBURST + tRP apart.  That
spacing stands in for the row cycle time tRC, which has no parameter of its
own.

Each controller keeps one FIFO per bank, its waiting requests in arrival
order, each tagged with the controller's arrival number.  A pick visits only
the ready banks (waiting requests, bank free): in each it scans from the head
to the first request to the open row, and it takes the smallest arrival
number among those hits, else among the ready banks' heads.  It costs
O(banks) plus those scans, not O(queue); only a starvation cap above 0 adds
a pass over the ready banks' requests, to find the starved one and count
bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


@dataclass(frozen=True)
class TimingParams:
    tRCD: int = field(metadata={"min": 1})
    tRP: int = field(metadata={"min": 1})
    tCAS: int = field(metadata={"min": 1})
    tBURST: int = field(metadata={"min": 1})


@dataclass(frozen=True)
class EnergyParams:
    e_activate: float = field(metadata={"min": 0})
    e_read: float = field(metadata={"min": 0})
    e_write: float = field(metadata={"min": 0})
    p_background: float = field(metadata={"min": 0})


@dataclass
class BankState:
    open_row: int | None = None
    busy_until: int = 0
    activates: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0


GPU_AGENT = "gpu"
CPU_AGENT = "cpu"


@dataclass(eq=False, slots=True)
class MemoryRequest:
    """One DRAM transaction with its origin and lifecycle timestamps."""

    pool: str
    channel: int
    bank: int
    row: int
    column: int
    is_read: bool
    agent: str = GPU_AGENT
    sm_id: int = -1
    warp_id: int = -1
    batch_id: int = -1
    line_addr: int = -1
    t_arrival: int = 0
    t_enqueue: int = 0
    t_issue: int = -1
    t_complete: int = -1
    was_hit: bool = False
    # times a younger request was picked while this one's bank was free;
    # counted only under a starvation cap above 0, the one reader
    bypasses: int = 0


class Arbitration(str, Enum):
    FR_FCFS = "fr_fcfs"
    FR_FCFS_CPU_PRIO = "fr_fcfs_cpu_prio"


class McQueue:
    """One channel's FR-FCFS controller: a bounded request queue and the
    channel's banks, indexed by bank id.  A full queue back-pressures the
    requester; nothing is ever dropped.

    `fifos[b]` holds bank b's waiting requests in arrival order as
    (arrival number, request) pairs; `count` is their running number.
    `ready_at_pick` is the number of ready banks the last `mc_pick` saw: the
    picked request's bank turns busy once advanced and every other one
    stays ready, so a ready bank is left after the pick exactly when that
    number is above 1."""

    def __init__(self, capacity: int = 64,
                 arbitration: Arbitration = Arbitration.FR_FCFS,
                 starvation_cap: int = 0, num_banks: int = 1):
        self.capacity = capacity
        self.arbitration = arbitration
        self.starvation_cap = starvation_cap
        self.banks = [BankState() for _ in range(num_banks)]
        self.fifos: list[list[tuple[int, MemoryRequest]]] = [
            [] for _ in range(num_banks)]
        self.count = 0
        self._arrivals = 0
        self.ready_at_pick = 0

    def enqueue(self, req: MemoryRequest, cycle: int) -> bool:
        if self.count >= self.capacity:
            return False
        req.t_enqueue = cycle
        self.fifos[req.bank].append((self._arrivals, req))
        self._arrivals += 1
        self.count += 1
        return True

    def take(self, bank: int, idx: int) -> MemoryRequest:
        """Remove and return bank `bank`'s `idx`-th waiting request."""
        self.count -= 1
        return self.fifos[bank].pop(idx)[1]


def _frfcfs(queue: McQueue, ready: list[int], agent: str | None):
    """(arrival number, bank, FIFO index) of the first-ready FCFS pick among
    the ready banks' requests of `agent` (any agent when None), or None when
    there is no such request."""
    fifos, banks, cap = queue.fifos, queue.banks, queue.starvation_cap
    head = hit = starved = None
    for b in ready:
        row = banks[b].open_row
        for i, (seq, r) in enumerate(fifos[b]):
            if agent is not None and r.agent != agent:
                continue
            if head is None or seq < head[0]:
                head = (seq, b, i)
            if cap > 0:
                if r.bypasses >= cap and (starved is None or seq < starved[0]):
                    starved = (seq, b, i)
            elif hit is not None and seq > hit[0]:
                break  # no later hit of this bank can be older
            if r.row == row and (hit is None or seq < hit[0]):
                hit = (seq, b, i)
                if not cap:
                    break
    return starved or hit or head


def mc_pick(queue: McQueue, cycle: int) -> MemoryRequest | None:
    """First-ready FCFS pick: row-buffer hits beat older misses; age breaks
    ties.  CPU-priority arbitration applies the same rule to ready CPU
    requests first, so any ready CPU request outranks every GPU request.
    With a starvation cap > 0, a request bypassed that many times is forced
    ahead of younger hits, and each older request in a ready bank counts one
    more bypass.  Returns None when no waiting request's bank is free.  The
    number of ready banks it saw is left in `queue.ready_at_pick`.
    """
    banks = queue.banks
    ready = [b for b, fifo in enumerate(queue.fifos)
             if fifo and banks[b].busy_until <= cycle]
    queue.ready_at_pick = len(ready)
    if not ready:
        return None
    pick = None
    if queue.arbitration is Arbitration.FR_FCFS_CPU_PRIO:
        pick = _frfcfs(queue, ready, CPU_AGENT)
    if pick is None:
        pick = _frfcfs(queue, ready, None)
    seq, bank, idx = pick
    if queue.starvation_cap > 0:
        for b in ready:
            for older, r in queue.fifos[b]:
                if older >= seq:
                    break
                r.bypasses += 1
    return queue.take(bank, idx)


def bank_advance(bank: BankState, req: MemoryRequest, timing: TimingParams,
                 cycle: int) -> int:
    """Issue one picked request to its bank and return the completion cycle.

    The bank must be ready; issuing into a busy bank is an engine bug, not a
    recoverable condition.
    """
    if cycle < bank.busy_until:
        raise AssertionError(
            f"request issued to busy bank (cycle {cycle} < busy_until {bank.busy_until})")
    if bank.open_row == req.row:
        done = cycle + timing.tCAS + timing.tBURST
        bank.row_hits += 1
        req.was_hit = True
    elif bank.open_row is None:
        done = cycle + timing.tRCD + timing.tCAS + timing.tBURST
        bank.activates += 1
    else:
        done = cycle + timing.tRP + timing.tRCD + timing.tCAS + timing.tBURST
        bank.activates += 1
    bank.open_row = req.row
    bank.busy_until = done
    if req.is_read:
        bank.reads += 1
    else:
        bank.writes += 1
    req.t_issue = cycle
    req.t_complete = done
    return done
