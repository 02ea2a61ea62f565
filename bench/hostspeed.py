"""Host speed, measured with a fixed pure-Python probe.

On the 2-vCPU KVM guest (Xeon, Python 3.11) the bounds were set on, the
host speed switched between levels up to 2x apart, each lasting up to
minutes, so a 40-second run could fall wholly in a slow or a fast phase.
Process CPU time tracked wall time there, so CPU time does not remove it.
The benchmark therefore runs this probe before and after every simulation
and scales a run's host times by its `speed`: NOMINAL_PROBE_S over the
median probe time of the run, raised to SENSITIVITY, so that every timed
figure reads as on a host where the probe takes NOMINAL_PROBE_S.  It uses
the median over the run, not a factor per simulation, because the probe
follows the slow and fast phases but not the sub-second jitter within
them: scaled one by one, simulations spread more than unscaled.  The probe is the benchmark's own code and never changes
with gmemsim, so the scaling is the same on both sides of any comparison.

The probe does the kinds of work the simulator does: small objects with
slots, dict lookups and inserts, a deque used as a queue, and a list
comprehension over it.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

# the probe's time, in seconds, on that guest in its fast phase
NOMINAL_PROBE_S = 0.040

# How far the simulator's host time follows the probe's.  Over two sets of
# ten 40-second runs of each workload on that guest, exponents of 0.6 to
# 0.8 gave the narrowest spreads on all three workloads; 1.0 over-corrected
# (the probe swings about 1.4 times as far as the simulator does).
SENSITIVITY = 0.7


class _Req:
    __slots__ = ("bank", "row", "due")

    def __init__(self, addr: int, due: int):
        self.bank = (addr >> 7) & 15
        self.row = addr >> 13
        self.due = due

    def ready(self, now: int) -> bool:
        return now >= self.due


def _probe_work(steps: int = 8000) -> int:
    queue: deque = deque()
    frames: dict[int, int] = {}
    open_row: dict[int, int] = {}
    hits = 0
    for i in range(steps):
        addr = (i * 2654435761) & 0xFFFFF
        vpn = addr >> 12
        frame = frames.get(vpn)
        if frame is None:
            frame = frames[vpn] = (vpn * 7) & 0xFFF
        queue.append(_Req((frame << 12) | (addr & 4095), i))
        if len(queue) > 32:
            ready = [r for r in queue if r.ready(i - 16)]
            if ready:
                r = ready[0]
                if open_row.get(r.bank) == r.row:
                    hits += 1
                open_row[r.bank] = r.row
                queue.remove(r)
    return hits


def probe(repeats: int = 3) -> float:
    """Seconds the probe takes now: the median of `repeats` timings, so one
    hiccup does not decide it.  The cyclic collector is off meanwhile: a
    collection would walk whatever the caller keeps alive, such as a
    finished World, and the probe would time the heap, not the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _probe_work()
            times.append(time.perf_counter() - t0)
        return sorted(times)[len(times) // 2]
    finally:
        if enabled:
            gc.enable()


def speed(probe_times: list[float]) -> float:
    """Host speed relative to nominal over a run, as it bears on the
    simulator: above 1 is faster."""
    return (NOMINAL_PROBE_S / statistics.median(probe_times)) ** SENSITIVITY
