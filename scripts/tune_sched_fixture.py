#!/usr/bin/env python3
"""Sweep the single-SM scheduling fixture's knobs and report, per scheduler,
the row-switch (activate) count, peak request burst, and RBHR.

Used to pick the shipped fixture's operating point: the scheduler progression
is only visible when batch residency, memory latency, and reply bandwidth
interact, so this prints the parameter combinations where the expected
ordering (activates ccws > tbas_c > tbas_d, burst tbas_e <= tbas_d,
rbhr tbas_e > ccws) holds.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from gmemsim.config import config_from_dict
from gmemsim.engine import run


def workload(blocks, threads, apt, gap):
    return {
        "kernel": {
            "name": "batch_rows",
            "grid_dim": [blocks, 1],
            "block_dim": [threads, 1],
            "warp_size": 4,
            "compute_gap": gap,
            "matrices": [
                {"base_addr": 0, "element_size": 4, "row_len": 4,
                 "mapping": "clustered", "accesses_per_thread": apt},
            ],
        },
    }


def hardware(drain, rlat, trcd, trp, tcas, tburst, capacity):
    layout = {"byte_offset_bits": 2, "column_bits": 3, "channel_bits": 0,
              "bank_bits": 0, "row_bits": 8, "page_offset_bits": 4}
    timing = {"tRCD": trcd, "tRP": trp, "tCAS": tcas, "tBURST": tburst}
    return {
        "num_sms": 1,
        "max_blocks_per_sm": 8,
        "max_threads_per_sm": 128,
        "running_set_warps": capacity,
        "l1": {"size_bytes": 0, "line_bytes": 16},
        "gddr": {"layout": layout, "timing": timing},
        "ddr": {"layout": dict(layout, bank_bits=1), "timing": dict(timing)},
        "reply": {"queue_capacity": 64, "drain_per_cycle": drain,
                  "latency": rlat},
    }


def measure(blocks, threads, apt, gap, drain, rlat, trcd, trp, tcas, tburst,
            capacity):
    out = {}
    for sched in ("ccws", "tbas_c", "tbas_d", "tbas_e"):
        cfg = config_from_dict({
            "workload": workload(blocks, threads, apt, gap),
            "horizon": 100000,
            "dispatch": "serial",
            "allocator": "coloring",
            "scheduler": sched,
            "stride": 1,
            "hardware": hardware(drain, rlat, trcd, trp, tcas, tburst,
                                 capacity),
        })
        report, _ = run(cfg)
        out[sched] = (report.activates, report.peak_window_requests,
                      report.rbhr, report.cycles)
    return out


def ok(res):
    a = {k: v[0] for k, v in res.items()}
    burst = {k: v[1] for k, v in res.items()}
    rbhr = {k: v[2] for k, v in res.items()}
    return (a["ccws"] > a["tbas_c"] > a["tbas_d"]
            and burst["tbas_e"] <= burst["tbas_d"]
            and rbhr["tbas_e"] > rbhr["ccws"]
            and a["tbas_e"] < a["ccws"])


def main():
    grid = itertools.product(
        [4, 6, 8],       # blocks
        [12],            # threads per block (3 pages per block)
        [2, 3, 4],       # accesses per thread
        [0, 2, 4],       # compute gap
        [1, 2],          # reply drain per cycle
        [1, 3],          # reply latency
        [(6, 6, 4, 2), (10, 10, 6, 2), (16, 16, 8, 4)],  # trcd/trp/tcas/tburst
        [2],             # ccws capacity
    )
    hits = 0
    for blocks, threads, apt, gap, drain, rlat, timing, cap in grid:
        res = measure(blocks, threads, apt, gap, drain, rlat, *timing, cap)
        if ok(res):
            hits += 1
            print("OK  ", dict(blocks=blocks, apt=apt, gap=gap, drain=drain,
                               rlat=rlat, timing=timing))
            for k, v in res.items():
                print(f"      {k}: act={v[0]} burst={v[1]} rbhr={v[2]:.3f} "
                      f"cycles={v[3]}")
    if not hits:
        print("no configuration satisfied the ordering; loosen the sweep")


if __name__ == "__main__":
    main()
