"""Thread-batch formation: stride profiling, block grouping, and page-sharing stats.

A thread batch is a group of consecutive thread blocks that touch the same set
of virtual pages.  Profiling searches for the block stride that minimizes
cross-batch page sharing; the resulting plan drives serial dispatch and
SM-bound page coloring.

One rule defines the batches: block `i`, in `enumerate_blocks` order, belongs
to batch `i // stride`, so a `BatchPlan` is its stride and how it was formed.
Batches, their page sets and the sharing histogram are worked out only where
they are written out, by `plan_to_dict`, at the page size it is given.
Neither input is checked here: a stride is at least 1 by the bound on
`config.stride`, and a page size is `1 << page_offset_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .workload import (KernelSpec, MappingKind, element_runs, enumerate_blocks,
                       first_byte_units)

PLAN_SCHEMA_VERSION = 1
# the largest multiple of a matrix row's block count that profiling tries
STRIDE_SEARCH_CAP = 64
# a best stride that leaves more than this share of pages shared between
# batches marks the plan FALLBACK
FALLBACK_THRESHOLD = 0.5


class Formation(str, Enum):
    FIXED_STRIDE = "fixed_stride"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class BatchPlan:
    """Batch k holds blocks k*stride up to (k+1)*stride in `enumerate_blocks`
    order; the last batch may be short."""

    stride: int
    formation: Formation


def block_page_set(spec: KernelSpec, block_id, page_size: int,
                   zero_base: bool = False) -> frozenset[int]:
    """Virtual pages touched by one block: the pages of its elements' first
    bytes, taken from its element runs.  zero_base applies the profiling
    convention that every matrix starts at address zero."""
    threads = range(spec.threads_per_block)
    pages: set[int] = set()
    for m in spec.matrices:
        if m.accesses_per_thread == 0:
            continue
        base = 0 if zero_base else m.base_addr
        for start, count in element_runs(spec, m, block_id, threads, base):
            pages.update(p for p, _ in first_byte_units(
                start, count, m.element_size, page_size))
    return frozenset(pages)


def _span_bins(block_pages, stride: int) -> dict[int, int]:
    """bins[d] counts the pages whose accessor batches span a distance of d,
    block `i` of `block_pages` belonging to batch `i // stride`."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for blin, pages in enumerate(block_pages):
        batch = blin // stride
        for p in pages:
            if p not in first:
                first[p] = batch
            last[p] = batch
    bins: dict[int, int] = {}
    for p, f in first.items():
        d = last[p] - f
        bins[d] = bins.get(d, 0) + 1
    return bins


def candidate_strides(spec: KernelSpec) -> list[int]:
    """Strides worth trying: 1..16 exhaustively, plus divisors and multiples
    of the number of blocks spanning one matrix row, capped at
    STRIDE_SEARCH_CAP."""
    total = spec.total_blocks
    cands = set(range(1, min(16, total) + 1))
    per_row: set[int] = set()
    for m in spec.matrices:
        if m.mapping is MappingKind.INTERLEAVED:
            per_row.add(spec.grid_dim[0])
        else:
            tpb = spec.threads_per_block
            per_row.add(max(1, m.row_len // tpb) if tpb <= m.row_len else 1)
    for base in per_row:
        for d in range(1, base + 1):
            if base % d == 0:
                cands.add(d)
        k = 1
        while base * k <= min(STRIDE_SEARCH_CAP, total):
            cands.add(base * k)
            k += 1
    return sorted(c for c in cands if 1 <= c <= total)


def profile_stride(spec: KernelSpec, page_size: int) -> tuple[int, Formation]:
    """Find the block stride that suppresses the most cross-batch page sharing.

    Matrices are profiled with their start addresses set to zero, which is the
    alignment the allocator later guarantees.  Ties break toward the smallest
    stride.  If even the best stride leaves more than FALLBACK_THRESHOLD of
    all pages shared between batches, the kernel is marked FALLBACK: its
    mapping cannot be captured by a fixed stride.
    """
    block_pages = [block_page_set(spec, b, page_size, zero_base=True)
                   for b in enumerate_blocks(spec)]
    best_stride, best_shared, total_pages = None, None, 0
    for s in candidate_strides(spec):
        bins = _span_bins(block_pages, s)
        total_pages = sum(bins.values())
        shared = total_pages - bins.get(0, 0)
        if best_shared is None or shared < best_shared:
            best_stride, best_shared = s, shared
    formation = Formation.FIXED_STRIDE
    if total_pages and best_shared / total_pages > FALLBACK_THRESHOLD:
        formation = Formation.FALLBACK
    return best_stride, formation


def form_batches(spec: KernelSpec, stride: int,
                 formation: Formation = Formation.FIXED_STRIDE) -> BatchPlan:
    """The plan that groups consecutive blocks `stride` at a time.  A stride
    above the block count is clamped to it."""
    return BatchPlan(stride=min(stride, spec.total_blocks), formation=formation)


def plan_to_dict(spec: KernelSpec, plan: BatchPlan, page_size: int) -> dict:
    """The plan with each batch's block ids and virtual pages, and the
    distance histogram of page sharing across its batches, all at the
    declared matrix base addresses (the runtime view).  Histogram bin d
    counts the pages whose accessor batches span a batch-index distance of
    d; bin 0 is the pages exclusive to one batch."""
    blocks, stride = enumerate_blocks(spec), plan.stride
    block_pages = [block_page_set(spec, b, page_size) for b in blocks]
    bins = _span_bins(block_pages, stride)
    total = sum(bins.values())
    return {
        "schema_version": PLAN_SCHEMA_VERSION,
        "stride": plan.stride,
        "formation": plan.formation.value,
        "page_size": page_size,
        "batches": [
            {
                "batch_id": i // stride,
                "block_ids": [list(b) for b in blocks[i:i + stride]],
                "page_set": sorted(frozenset().union(
                    *block_pages[i:i + stride])),
            }
            for i in range(0, len(blocks), stride)
        ],
        "sharing_histogram": {
            "bins": {str(d): n for d, n in sorted(bins.items())},
            "total_pages": total,
            "exclusive_fraction": bins.get(0, 0) / total if total else 1.0,
        },
    }
