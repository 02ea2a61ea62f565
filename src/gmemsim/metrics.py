"""Run metrics: bank-level parallelism, row-buffer hit rate, locality,
latency, stalls, and a decomposed DRAM energy estimate.

Each statistic has one source.  The DRAM counts (accesses, reads, writes,
row hits, activates) and RBHR, row hits over accesses, come from the bank
counters that `dram.bank_advance` keeps.  BLP is the mean, over the cycles
during which at least one request is in service, of the number of banks
with a request in service; the engine counts it cycle by cycle as
`World.blp_sum / World.blp_cycles`.  A request occupies its bank from
t_issue to t_complete, and a bank serves one request at a time, so that
count equals the per-bank definition, each bank's merged service intervals
summed over the union of all of them, exactly, up to the cycle a run ends
at (the tests keep the interval merge as its oracle).  What only the
request log holds, delays, the GPU/CPU split, locality and the peak window,
is `compute_metrics`.  Energy is activate + read/write event energy plus
background power integrated over the run, so for a fixed access mix every
extra row hit strictly removes one activate's worth of energy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .dram import GPU_AGENT, EnergyParams, MemoryRequest
from .memmap import Pool

REPORT_SCHEMA_VERSION = 1


@dataclass
class MetricsReport:
    schema_version: int = REPORT_SCHEMA_VERSION
    workload: str = ""
    policies: dict = field(default_factory=dict)
    seed: int = 0
    cycles: int = 0
    truncated: bool = False
    warp_instructions: int = 0
    ipc_proxy: float = 0.0
    total_accesses: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    activates: int = 0
    rbhr: float = 0.0
    blp: float = 0.0
    mean_access_delay: float = 0.0
    local_accesses: int = 0
    remote_accesses: int = 0
    local_ratio: float = 0.0
    reply_stalls: int = 0
    issue_backpressure: int = 0
    peak_window_requests: int = 0
    request_window: int = 100
    gpu_requests: int = 0
    cpu_requests: int = 0
    gpu_mean_delay: float = 0.0
    cpu_mean_delay: float = 0.0
    l1_hits: int = 0
    l1_misses: int = 0
    mpki_proxy: float = 0.0
    spilled_pages: int = 0
    pool_pages: dict = field(default_factory=dict)
    energy: dict = field(default_factory=dict)
    degenerate: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def flat(self) -> dict:
        """Single-level dict for CSV rows."""
        out = {}
        for k, v in asdict(self).items():
            if isinstance(v, dict):
                for kk, vv in v.items():
                    out[f"{k}_{kk}"] = vv
            else:
                out[k] = v
        return out


def compute_metrics(requests: list[MemoryRequest], page_table,
                    window: int = 100) -> dict:
    """The statistics only the request log holds, from its completed
    requests in one walk: the mean access delays, overall and per agent,
    the GPU/CPU split, GPU locality, and `peak_window_requests`, the largest
    number of them enqueued inside any aligned `window`.  Every sum is an
    integer, so each mean is one division."""
    n = gpu = local = delay = gpu_delay = 0
    per_window: dict[int, int] = {}
    for r in requests:
        if r.t_complete < 0:
            continue
        n += 1
        d = r.t_complete - r.t_enqueue
        delay += d
        w = r.t_enqueue // window
        per_window[w] = per_window.get(w, 0) + 1
        if r.agent == GPU_AGENT:
            gpu += 1
            gpu_delay += d
            local += page_table.is_local(r.sm_id, Pool(r.pool), r.channel,
                                         r.bank)
    cpu = n - gpu
    return {
        "mean_access_delay": delay / n if n else 0.0,
        "local_accesses": local,
        "remote_accesses": gpu - local,
        "local_ratio": local / gpu if gpu else 0.0,
        "gpu_requests": gpu,
        "cpu_requests": cpu,
        "gpu_mean_delay": gpu_delay / gpu if gpu else 0.0,
        "cpu_mean_delay": (delay - gpu_delay) / cpu if cpu else 0.0,
        "peak_window_requests": max(per_window.values(), default=0),
    }


def energy_total(counters: dict, params: EnergyParams, runtime_cycles: int,
                 num_banks: int) -> dict:
    """Decomposed energy for one pool from its summed bank counters."""
    activate = counters.get("activates", 0) * params.e_activate
    rw = (counters.get("reads", 0) * params.e_read
          + counters.get("writes", 0) * params.e_write)
    background = num_banks * params.p_background * runtime_cycles
    return {
        "activate": activate,
        "read_write": rw,
        "background": background,
        "total": activate + rw + background,
    }
