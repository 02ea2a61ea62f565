"""Every statistic of a report that the request log can give, worked out the
long way from the log, kept as the reference that the engine's one-source
report is compared against.

The engine reads the DRAM counts and RBHR from its bank counters and BLP
from its cycle count; `reference_metrics` recounts them from the logged
requests, one filtering pass per statistic, and takes BLP from the
interval merge `bank_parallelism`.  `brute_blp` is a third derivation of
BLP, cycle by cycle, that the merge is checked against.
"""

from gmemsim.memmap import Pool


def _merged_length(intervals: list[tuple[int, int]]) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def bank_parallelism(requests, end=None) -> float:
    """Mean busy-bank count over cycles with any request in service: each
    bank's merged service intervals summed, over the length of the union of
    all of them.  A run cut at cycle `end` counts service only up to it."""
    per_bank: dict[tuple, list[tuple[int, int]]] = {}
    for r in requests:
        if r.t_issue < 0:
            continue
        hi = r.t_complete if end is None else min(r.t_complete, end)
        per_bank.setdefault((r.pool, r.channel, r.bank), []).append(
            (r.t_issue, hi))
    if not per_bank:
        return 0.0
    busy_sum = sum(_merged_length(iv) for iv in per_bank.values())
    any_busy = _merged_length([iv for ivs in per_bank.values() for iv in ivs])
    return busy_sum / any_busy if any_busy else 0.0


def brute_blp(requests):
    """Cycle-by-cycle counting pass, separate from the interval-merge code."""
    if not requests:
        return 0.0
    hi = max(r.t_complete for r in requests)
    total = cycles = 0
    for c in range(hi + 1):
        busy = len({(r.pool, r.channel, r.bank) for r in requests
                    if r.t_issue <= c < r.t_complete})
        if busy:
            total += busy
            cycles += 1
    return total / cycles if cycles else 0.0


def reference_metrics(requests, page_table, window=100, end=None) -> dict:
    """Each log-derivable report field worked out the long way, one
    filtering pass per statistic, for a run that ended at cycle `end`."""
    done = [r for r in requests if r.t_complete >= 0]

    def mean_delay(agent=None):
        mine = [r for r in done if agent is None or r.agent == agent]
        if not mine:
            return 0.0
        return sum(r.t_complete - r.t_enqueue for r in mine) / len(mine)

    counts = {}
    for r in done:
        w = r.t_enqueue // window
        counts[w] = counts.get(w, 0) + 1
    hits = sum(1 for r in done if r.was_hit)
    reads = sum(1 for r in done if r.is_read)
    gpu = [r for r in done if r.agent == "gpu"]
    local = sum(1 for r in gpu if page_table.is_local(
        r.sm_id, Pool(r.pool), r.channel, r.bank))
    return {
        "total_accesses": len(done),
        "reads": reads,
        "writes": len(done) - reads,
        "row_hits": hits,
        "activates": len(done) - hits,
        "rbhr": hits / len(done) if done else 0.0,
        "blp": bank_parallelism(done, end),
        "mean_access_delay": mean_delay(),
        "local_accesses": local,
        "remote_accesses": len(gpu) - local,
        "local_ratio": local / len(gpu) if gpu else 0.0,
        "gpu_requests": len(gpu),
        "cpu_requests": len(done) - len(gpu),
        "gpu_mean_delay": mean_delay("gpu"),
        "cpu_mean_delay": mean_delay("cpu"),
        "peak_window_requests": max(counts.values(), default=0),
    }


def world_reference(world) -> dict:
    """`reference_metrics` of a run's request log, over its report window
    and cut at the cycle it ended at."""
    return reference_metrics(world.log, world.page_table,
                             world.cfg.hardware.request_window,
                             end=world.cycle)


def log_fields(report, reference: dict) -> dict:
    """The report's values of the fields that `reference` derives."""
    return {k: getattr(report, k) for k in reference}
