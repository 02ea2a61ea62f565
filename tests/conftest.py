import importlib.util
import json
import os

import pytest
from hypothesis import strategies as st

from gmemsim.workload import (KernelSpec, MappingKind, MatrixMapping,
                              load_workload)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def fixture_path(*parts) -> str:
    return os.path.abspath(os.path.join(FIXTURES, *parts))


def load_fixture(*parts) -> dict:
    with open(fixture_path(*parts)) as f:
        return json.load(f)


def bench_workloads() -> dict:
    """The benchmark's workload builders, name -> builder(seed), imported
    from bench/workloads.py without touching the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def clustered_rows_workload(accesses_per_thread=2, compute_gap=2,
                            read_fraction=1.0, base_addr=0):
    """2x2 grid of 4-thread 1D blocks over a 4x4 matrix: block i owns matrix
    row i, the first thread-data mapping shape."""
    return {
        "kernel": {
            "name": "clustered_rows",
            "grid_dim": [2, 2],
            "block_dim": [4, 1],
            "warp_size": 2,
            "compute_gap": compute_gap,
            "matrices": [
                {"base_addr": base_addr, "element_size": 4, "row_len": 4,
                 "mapping": "clustered",
                 "accesses_per_thread": accesses_per_thread,
                 "read_fraction": read_fraction},
            ],
        },
    }


def one_page_workload():
    """100 one-thread clustered blocks whose 4-byte elements all lie on one
    4096-byte page.  With a 1-element row the profiler tries strides up to
    64, so two batches always share the page: a FALLBACK plan."""
    return {
        "kernel": {
            "name": "one_page",
            "grid_dim": [100, 1],
            "block_dim": [1, 1],
            "warp_size": 1,
            "matrices": [
                {"base_addr": 0, "element_size": 4, "row_len": 1,
                 "mapping": "clustered"},
            ],
        },
    }


def interleaved_grid_workload(accesses_per_thread=1, compute_gap=2):
    """2x2 grid of 2x2 blocks over a 4x4 matrix: each matrix row is split
    between two x-adjacent blocks, the second thread-data mapping shape."""
    return {
        "kernel": {
            "name": "interleaved_grid",
            "grid_dim": [2, 2],
            "block_dim": [2, 2],
            "warp_size": 2,
            "compute_gap": compute_gap,
            "matrices": [
                {"base_addr": 0, "element_size": 4, "row_len": 4,
                 "mapping": "interleaved",
                 "accesses_per_thread": accesses_per_thread},
            ],
        },
    }


def small_hardware(num_sms=2, banks_bits=2, channel_bits=1, page_offset=5,
                   byte_bits=2, column_bits=4, row_bits=6, l1_size=0,
                   line_bytes=8, **over):
    """Desk-scale hardware: 32-byte pages, 64-byte rows (2 pages per row)."""
    gddr_layout = {"byte_offset_bits": byte_bits, "column_bits": column_bits,
                   "channel_bits": channel_bits, "bank_bits": banks_bits,
                   "row_bits": row_bits, "page_offset_bits": page_offset}
    ddr_layout = dict(gddr_layout, channel_bits=0, bank_bits=1)
    timing = {"tRCD": 4, "tRP": 4, "tCAS": 4, "tBURST": 2}
    hw = {
        "num_sms": num_sms,
        "max_blocks_per_sm": 8,
        "max_threads_per_sm": 64,
        "l1": {"size_bytes": l1_size, "assoc": 2, "line_bytes": line_bytes},
        "gddr": {"layout": gddr_layout, "timing": dict(timing)},
        "ddr": {"layout": ddr_layout, "timing": dict(timing)},
        "reply": {"queue_capacity": 64, "drain_per_cycle": 2, "latency": 1},
    }
    hw.update(over)
    return hw


READ_FRACTIONS = (0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0)


@st.composite
def random_kernels(draw):
    """Kernels of one mapping over 1D or 2D grids and blocks, with warps that
    need not divide the block's rows or fill the last warp, and elements from
    one byte to more than a line, sizes that do not divide a line included."""
    mapping = draw(st.sampled_from(MappingKind))
    gx, gy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bdx, bdy = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    matrices = tuple(
        MatrixMapping(
            base_addr=draw(st.integers(0, 3)) * 4096,
            element_size=draw(st.integers(1, 150)),
            row_len=gx * bdx if mapping is MappingKind.INTERLEAVED
            else draw(st.integers(1, 64)),
            mapping=mapping,
            accesses_per_thread=draw(st.integers(0, 3)),
            read_fraction=draw(st.sampled_from(READ_FRACTIONS)))
        for _ in range(draw(st.integers(1, 3))))
    spec = KernelSpec(grid_dim=(gx, gy), block_dim=(bdx, bdy),
                      warp_size=draw(st.integers(1, 12)), matrices=matrices)
    spec.validate()
    return spec


@pytest.fixture
def clustered_spec():
    kernel, _ = load_workload(clustered_rows_workload())
    return kernel


@pytest.fixture
def interleaved_spec():
    kernel, _ = load_workload(interleaved_grid_workload())
    return kernel
