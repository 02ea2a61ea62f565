"""The benchmark's three workloads, as config dicts built from a seed.

Each builder returns the dict that `gmemsim.config.config_from_dict` takes.
The seed reaches only the inputs that draw random numbers:
`cpu_traffic.seed` (corun) and `random_dispatch_seed` (compute).  The
stencil has no random input, so its seed changes nothing.
"""

from __future__ import annotations

PAGE = 4096
WARP = 32

# Far above every GPU matrix, so no CPU page is ever first touched by an SM.
CPU_REGION = (1 << 30, (1 << 30) + (64 << 20))


def _matrix(base: int, element_size: int, row_len: int, mapping: str,
            accesses: int, read_fraction: float) -> dict:
    return {"base_addr": base, "element_size": element_size,
            "row_len": row_len, "mapping": mapping,
            "accesses_per_thread": accesses, "read_fraction": read_fraction}


def _bases(sizes: list[int]) -> list[int]:
    """Page-aligned, back-to-back base addresses for matrices of the given
    byte sizes."""
    out, at = [], 0
    for size in sizes:
        out.append(at)
        at += -(-size // PAGE) * PAGE
    return out


def stencil(seed: int, grid: int = 16) -> dict:
    """C = f(A, B) on a grid x grid interleaved grid of 16x16-thread blocks,
    under the paper's scheme (serial dispatch, coloring, tbas_e, FR-FCFS)."""
    del seed  # no random input
    n = grid * 16
    a, b, c = _bases([n * n * 4] * 3)
    kernel = {
        "name": f"stencil{grid}x{grid}",
        "grid_dim": [grid, grid], "block_dim": [16, 16], "warp_size": WARP,
        "matrices": [_matrix(a, 4, n, "interleaved", 1, 1.0),
                     _matrix(b, 4, n, "interleaved", 1, 1.0),
                     _matrix(c, 4, n, "interleaved", 1, 0.0)],
    }
    return {"workload": {"kernel": kernel}, "horizon": 10_000_000,
            "dispatch": "serial", "allocator": "coloring",
            "scheduler": "tbas_e", "arbitration": "fr_fcfs"}


def corun(seed: int, blocks: int = 96) -> dict:
    """A clustered 1D record kernel beside a bursty CPU stream that shares
    the GDDR pool, under coloring_hetero and CPU-priority FR-FCFS.

    Each thread reads one 16-byte record, computes for 6000 cycles and
    writes one word, so the GPU's two bursts of requests sit in long
    controller queues mixed with the CPU stream, and the CPU stream issues
    about as many requests as the GPU.  Bursts of 16 leave gaps long enough
    for the controllers to drain soon after the GPU finishes; with short
    bursts the run would end at a seed-dependent gap far later."""
    threads = blocks * 256
    rec, out = _bases([threads * 16, threads * 4])
    kernel = {
        "name": f"records{blocks}",
        "grid_dim": [blocks, 1], "block_dim": [256, 1], "warp_size": WARP,
        "compute_gap": 6000,
        "matrices": [_matrix(rec, 16, threads, "clustered", 1, 1.0),
                     _matrix(out, 4, threads, "clustered", 1, 0.0)],
    }
    cpu = {"request_rate": 320, "address_region": list(CPU_REGION),
           "rw_ratio": 0.7, "burstiness": 16, "seed": seed}
    return {"workload": {"kernel": kernel, "cpu_traffic": cpu},
            "horizon": 500_000,
            "dispatch": "serial", "allocator": "coloring_hetero",
            "scheduler": "tbas_e", "arbitration": "fr_fcfs_cpu_prio",
            "hardware": {"cpu_pool": "gddr", "mc_queue_capacity": 4096}}


def compute(seed: int, grid: int = 8) -> dict:
    """A compute-bound 2D kernel under the baseline policies (seeded
    interleaved dispatch, first_touch, ccws): sixteen reads of one input
    element 400 cycles apart, all but the first hitting L1, then one output
    write.  Queues deep enough for the opening burst keep back-pressure at
    zero."""
    n = grid * 16
    x, y = _bases([n * n * 4] * 2)
    kernel = {
        "name": f"compute{grid}x{grid}",
        "grid_dim": [grid, grid], "block_dim": [16, 16], "warp_size": WARP,
        "compute_gap": 400,
        "matrices": [_matrix(x, 4, n, "interleaved", 16, 1.0),
                     _matrix(y, 4, n, "interleaved", 1, 0.0)],
    }
    return {"workload": {"kernel": kernel}, "horizon": 10_000_000,
            "dispatch": "interleaved", "random_dispatch_seed": seed,
            "allocator": "first_touch", "scheduler": "ccws",
            "arbitration": "fr_fcfs", "hardware": {"mc_queue_capacity": 1024}}


WORKLOADS = {"stencil": stencil, "corun": corun, "compute": compute}

# Setups timed per simulation (the last one is run), so that setup_s is a
# median of enough samples spread over the run.
SETUP_ROUNDS = {"stencil": 3, "corun": 2, "compute": 5}
