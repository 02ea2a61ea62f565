"""The CPU request stream generated eagerly, as one list over the whole
horizon, kept as the reference that the lazy `gmemsim.workload.
gen_cpu_traffic` is compared against.

It makes the same `random.Random(seed)` draws in the same order: at each
free cycle one draw decides whether a burst starts; each request of a burst
then draws its address slot and its read/write flag.
"""

import random

from gmemsim.workload import CpuRequest, CpuTrafficSpec


def reference_cpu_traffic(spec: CpuTrafficSpec,
                          horizon: int) -> list[CpuRequest]:
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    spec.validate()
    if spec.request_rate == 0:
        return []
    rng = random.Random(spec.seed)
    gran = 64
    lo, hi = spec.address_region
    slots = max(1, (hi - lo) // gran)
    p_start = spec.request_rate / (1000.0 * spec.burstiness)
    out: list[CpuRequest] = []
    cycle = 0
    while cycle < horizon:
        if rng.random() < p_start:
            for k in range(spec.burstiness):
                if cycle + k >= horizon:
                    break
                addr = lo + rng.randrange(slots) * gran
                out.append(
                    CpuRequest(cycle + k, addr, rng.random() < spec.rw_ratio)
                )
            cycle += spec.burstiness
        else:
            cycle += 1
    return out
