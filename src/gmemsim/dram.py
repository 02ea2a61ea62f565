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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


@dataclass(frozen=True)
class TimingParams:
    tRCD: int
    tRP: int
    tCAS: int
    tBURST: int

    def validate(self):
        for name in ("tRCD", "tRP", "tCAS", "tBURST"):
            if getattr(self, name) < 1:
                raise ValueError(f"timing {name} must be >= 1")


@dataclass(frozen=True)
class EnergyParams:
    e_activate: float
    e_read: float
    e_write: float
    p_background: float

    def validate(self):
        for name in ("e_activate", "e_read", "e_write", "p_background"):
            if getattr(self, name) < 0:
                raise ValueError(f"energy {name} must be >= 0")


@dataclass
class BankState:
    open_row: int | None = None
    busy_until: int = 0
    activates: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


GPU_AGENT = "gpu"
CPU_AGENT = "cpu"


@dataclass(eq=False)
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
    bypasses: int = 0


class Arbitration(str, Enum):
    FR_FCFS = "fr_fcfs"
    FR_FCFS_CPU_PRIO = "fr_fcfs_cpu_prio"


class McQueue:
    """One channel's FR-FCFS controller: a bounded request queue and the
    channel's banks, indexed by bank id.  A full queue back-pressures the
    requester; nothing is ever dropped.  `has_ready` answers whether
    `mc_pick` would issue now, without picking."""

    def __init__(self, capacity: int = 64,
                 arbitration: Arbitration = Arbitration.FR_FCFS,
                 starvation_cap: int = 0, num_banks: int = 1):
        self.capacity = capacity
        self.arbitration = arbitration
        self.starvation_cap = starvation_cap
        self.requests: list[MemoryRequest] = []
        self.banks = [BankState() for _ in range(num_banks)]

    def __len__(self):
        return len(self.requests)

    def enqueue(self, req: MemoryRequest, cycle: int) -> bool:
        if len(self.requests) >= self.capacity:
            return False
        req.t_enqueue = cycle
        self.requests.append(req)
        return True

    def free_banks(self, cycle: int) -> set[int]:
        """Ids of the banks that can take a request this cycle."""
        return {b for b, st in enumerate(self.banks) if st.busy_until <= cycle}

    def has_ready(self, cycle: int) -> bool:
        """Whether some queued request's bank is free, i.e. whether
        `mc_pick` would return a request this cycle."""
        if not self.requests:
            return False
        free = self.free_banks(cycle)
        return any(r.bank in free for r in self.requests)


def mc_pick(queue: McQueue, cycle: int) -> MemoryRequest | None:
    """First-ready FCFS pick: row-buffer hits beat older misses; age breaks
    ties.  CPU-priority arbitration applies the same rule to ready CPU
    requests first, so any ready CPU request outranks every GPU request.
    With a starvation cap > 0, a request bypassed that many times is forced
    ahead of younger hits.
    """
    banks = queue.banks
    free = queue.free_banks(cycle)
    ready = [r for r in queue.requests if r.bank in free]
    if not ready:
        return None

    def frfcfs(cands: list[MemoryRequest]) -> MemoryRequest | None:
        if not cands:
            return None
        if queue.starvation_cap > 0:
            starved = [r for r in cands if r.bypasses >= queue.starvation_cap]
            if starved:
                return starved[0]
        hits = [r for r in cands if banks[r.bank].open_row == r.row]
        return hits[0] if hits else cands[0]

    if queue.arbitration is Arbitration.FR_FCFS_CPU_PRIO:
        pick = frfcfs([r for r in ready if r.agent == CPU_AGENT])
        if pick is None:
            pick = frfcfs(ready)
    else:
        pick = frfcfs(ready)
    if pick is not None:
        idx = next(i for i, r in enumerate(queue.requests) if r is pick)
        for r in queue.requests[:idx]:
            if r.bank in free:
                r.bypasses += 1
        del queue.requests[idx]
    return pick


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
