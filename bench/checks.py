"""Correctness checks on a finished simulation, computed apart from gmemsim.

`expected_counts` derives, from the benchmark's own workload dict and its
own thread-to-address arithmetic, what any correct simulation of the kernel
must count.  `check_simulation` compares a report against those counts, the
report's own identities and the documented energy model, and returns one
message per failed check.  Nothing here calls into gmemsim.
"""

from __future__ import annotations

import math


def thread_element(kernel: dict, matrix: dict, block: tuple[int, int],
                   tx: int, ty: int) -> int:
    """Linear index of the element one thread owns.

    clustered: block b's threads cover elements [b*tpb, (b+1)*tpb) in thread
    order.  interleaved: thread (tx, ty) of block (bx, by) owns the element
    at global coordinates (bx*bdx + tx, by*bdy + ty) of a row_len-wide matrix.
    """
    gx, _ = _dim(kernel["grid_dim"])
    bdx, bdy = _dim(kernel["block_dim"])
    bx, by = block
    if matrix["mapping"] == "clustered":
        return (by * gx + bx) * bdx * bdy + ty * bdx + tx
    if matrix["mapping"] == "interleaved":
        return (by * bdy + ty) * matrix["row_len"] + bx * bdx + tx
    raise ValueError(f"unknown mapping {matrix['mapping']!r}")


def _dim(raw) -> tuple[int, int]:
    return (raw[0], raw[1] if len(raw) > 1 else 1)


def _is_read_matrix(matrix: dict) -> bool:
    fraction = matrix.get("read_fraction", 1.0)
    if fraction not in (0.0, 1.0):
        raise ValueError("the checks model matrices that are only read or "
                         "only written (read_fraction 1 or 0)")
    return fraction == 1.0


def expected_counts(kernel: dict, line_bytes: int = 128) -> dict:
    """Counts every correct simulation of `kernel` must reproduce.

    A warp instruction touches the distinct `line_bytes` lines of its lanes'
    addresses; the L1 sees each once per instruction.  Reads may hit in L1,
    so DRAM reads lie between the distinct read lines (compulsory misses) and
    the per-instruction read-line sum.  Writes are write-through, so every
    written line of every instruction reaches DRAM.
    """
    gx, gy = _dim(kernel["grid_dim"])
    bdx, bdy = _dim(kernel["block_dim"])
    warp = kernel["warp_size"]
    tpb = bdx * bdy
    warps_per_block = -(-tpb // warp)
    matrices = kernel["matrices"]
    slots = sum(m.get("accesses_per_thread", 1) for m in matrices)
    read_lines = write_lines = 0
    distinct_read: set[int] = set()
    for by in range(gy):
        for bx in range(gx):
            for m in matrices:
                accesses = m.get("accesses_per_thread", 1)
                is_read = _is_read_matrix(m)
                for w in range(warps_per_block):
                    lines = {
                        (m["base_addr"] + m["element_size"] * thread_element(
                            kernel, m, (bx, by), t % bdx, t // bdx))
                        // line_bytes
                        for t in range(w * warp, min((w + 1) * warp, tpb))
                    }
                    if is_read:
                        read_lines += accesses * len(lines)
                        if accesses:
                            distinct_read |= lines
                    else:
                        write_lines += accesses * len(lines)
    return {
        "warp_instructions": gx * gy * warps_per_block * slots,
        "lane_events": gx * gy * tpb * slots,
        "l1_lookups": read_lines + write_lines,
        "read_lines": read_lines,
        "write_lines": write_lines,
        "distinct_read_lines": len(distinct_read),
    }


def energy_params(hardware) -> dict:
    """Pool name -> the energy model's parameters and bank count, read from
    a parsed hardware config."""
    return {
        pool: {"e_activate": pc.energy.e_activate, "e_read": pc.energy.e_read,
               "e_write": pc.energy.e_write,
               "p_background": pc.energy.p_background,
               "banks": pc.layout.num_channels * pc.layout.num_banks}
        for pool, pc in (("gddr", hardware.gddr), ("ddr", hardware.ddr))
    }


def count_log(log) -> dict:
    """Completed DRAM requests split by pool, agent and kind."""
    out: dict = {}
    for r in log:
        if r.t_complete < 0:
            continue
        pool = out.setdefault(r.pool, {"activates": 0, "reads": 0,
                                       "writes": 0})
        pool["reads" if r.is_read else "writes"] += 1
        if not r.was_hit:
            pool["activates"] += 1
        key = f"{r.agent}_{'reads' if r.is_read else 'writes'}"
        out[key] = out.get(key, 0) + 1
    return out


def cpu_request_limit(rate: float, burstiness: int, cycles: int) -> float:
    """Most CPU requests a stream of `rate` per 1000 cycles may deliver in
    `cycles`: the documented mean plus five standard deviations of the
    burst count, plus one burst cut at the horizon."""
    p_start = rate / (1000.0 * burstiness)
    sigma = math.sqrt(p_start * cycles)
    return rate * cycles / 1000.0 + burstiness * (5 * sigma + 1)


def check_simulation(expected: dict, report: dict, log_counts: dict,
                     energy: dict, cpu: dict | None) -> list[str]:
    """Messages for every check the simulation fails; empty when it passes.

    report: the MetricsReport as a dict.  log_counts: `count_log` of the
    run's request log.  energy: `energy_params` of the run's hardware.
    cpu: the workload's cpu_traffic dict, or None.
    """
    bad = []

    def want(ok: bool, message: str):
        if not ok:
            bad.append(message)

    r = report
    want(not r["truncated"], "run truncated at the horizon")
    want(r["warp_instructions"] == expected["warp_instructions"],
         f"warp_instructions {r['warp_instructions']} != "
         f"{expected['warp_instructions']}")
    lookups = r["l1_hits"] + r["l1_misses"]
    want(lookups == expected["l1_lookups"],
         f"l1_hits + l1_misses {lookups} != {expected['l1_lookups']} "
         "distinct lines per instruction")
    gpu_reads = log_counts.get("gpu_reads", 0)
    gpu_writes = log_counts.get("gpu_writes", 0)
    want(expected["distinct_read_lines"] <= gpu_reads <= expected["read_lines"],
         f"GPU DRAM reads {gpu_reads} outside "
         f"[{expected['distinct_read_lines']}, {expected['read_lines']}]")
    want(gpu_writes == expected["write_lines"],
         f"GPU DRAM writes {gpu_writes} != {expected['write_lines']} "
         "written lines (write-through)")
    total = r["total_accesses"]
    for label, value in (("reads + writes", r["reads"] + r["writes"]),
                         ("row_hits + activates",
                          r["row_hits"] + r["activates"]),
                         ("gpu_requests + cpu_requests",
                          r["gpu_requests"] + r["cpu_requests"])):
        want(value == total, f"{label} {value} != total_accesses {total}")
    want(r["gpu_requests"] == gpu_reads + gpu_writes,
         f"gpu_requests {r['gpu_requests']} != logged GPU requests "
         f"{gpu_reads + gpu_writes}")
    cpu_logged = log_counts.get("cpu_reads", 0) + log_counts.get("cpu_writes", 0)
    want(r["cpu_requests"] == cpu_logged,
         f"cpu_requests {r['cpu_requests']} != logged CPU requests {cpu_logged}")
    bad.extend(_check_energy(r, log_counts, energy))
    if cpu is not None:
        limit = cpu_request_limit(cpu["request_rate"], cpu.get("burstiness", 1),
                                  r["cycles"])
        want(0 < r["cpu_requests"] <= limit,
             f"cpu_requests {r['cpu_requests']} outside (0, {limit:.1f}]")
    else:
        want(r["cpu_requests"] == 0,
             f"cpu_requests {r['cpu_requests']} without CPU traffic")
    return bad


def _check_energy(r: dict, log_counts: dict, energy: dict) -> list[str]:
    """Activate and read/write energy per event, plus background power of
    every bank over the whole run, summed over the pools."""
    parts = {"activate": 0.0, "read_write": 0.0, "background": 0.0}
    expect = {}
    for pool, p in energy.items():
        c = log_counts.get(pool, {"activates": 0, "reads": 0, "writes": 0})
        act = c["activates"] * p["e_activate"]
        rw = c["reads"] * p["e_read"] + c["writes"] * p["e_write"]
        bg = p["banks"] * p["p_background"] * r["cycles"]
        parts["activate"] += act
        parts["read_write"] += rw
        parts["background"] += bg
        expect[f"{pool}_total"] = act + rw + bg
    expect.update(parts)
    expect["total"] = sum(parts.values())
    bad = []
    for key, value in sorted(expect.items()):
        got = r["energy"].get(key)
        if got is None or not math.isclose(got, value, rel_tol=1e-9,
                                           abs_tol=1e-9):
            bad.append(f"energy.{key} {got} != recomputed {value}")
    return bad
