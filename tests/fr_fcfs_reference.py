"""The FR-FCFS controller as one arrival-ordered list that every pick
rescans, kept as the reference that the indexed `gmemsim.dram.McQueue` and
`mc_pick` are compared against.

A pick filters the whole list down to the requests whose bank is free, takes
the oldest starved one under a starvation cap, else the oldest row hit, else
the oldest, and counts one bypass on every older request in a free bank,
whatever the cap.

`has_ready` is the rescan that says whether an indexed controller can pick:
the engine keeps its due controllers from each pick's `ready_at_pick`
instead, and the tests compare the two.
"""

from gmemsim.dram import (CPU_AGENT, Arbitration, BankState, McQueue,
                          MemoryRequest)


def has_ready(queue: McQueue, cycle: int) -> bool:
    """Whether some waiting request's bank is free, i.e. whether `mc_pick`
    would return a request at `cycle`."""
    return any(fifo and bank.busy_until <= cycle
               for fifo, bank in zip(queue.fifos, queue.banks))


class ReferenceController:
    def __init__(self, capacity: int, arbitration: Arbitration,
                 starvation_cap: int, banks: list[BankState]):
        self.capacity = capacity
        self.arbitration = arbitration
        self.starvation_cap = starvation_cap
        self.requests: list[MemoryRequest] = []
        self.banks = banks

    def enqueue(self, req: MemoryRequest, cycle: int) -> bool:
        if len(self.requests) >= self.capacity:
            return False
        req.t_enqueue = cycle
        self.requests.append(req)
        return True

    def free_banks(self, cycle: int) -> set[int]:
        return {b for b, st in enumerate(self.banks) if st.busy_until <= cycle}

    def has_ready(self, cycle: int) -> bool:
        free = self.free_banks(cycle)
        return any(r.bank in free for r in self.requests)


def reference_pick(queue: ReferenceController,
                   cycle: int) -> MemoryRequest | None:
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
    idx = next(i for i, r in enumerate(queue.requests) if r is pick)
    for r in queue.requests[:idx]:
        if r.bank in free:
            r.bypasses += 1
    del queue.requests[idx]
    return pick
