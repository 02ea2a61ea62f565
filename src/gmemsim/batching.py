"""Thread-batch formation: stride profiling, block grouping, and page-sharing stats.

A thread batch is a group of consecutive thread blocks that touch the same set
of virtual pages.  Profiling searches for the block stride that minimizes
cross-batch page sharing; the resulting plan drives serial dispatch and
SM-bound page coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .workload import (KernelSpec, MappingKind, element_runs, enumerate_blocks,
                       first_byte_units)

PLAN_SCHEMA_VERSION = 1


class Formation(str, Enum):
    FIXED_STRIDE = "fixed_stride"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class ThreadBatch:
    batch_id: int
    block_ids: tuple[tuple[int, int, int], ...]
    page_set: frozenset[int]


@dataclass(frozen=True)
class BatchPlan:
    stride: int
    formation: Formation
    batches: tuple[ThreadBatch, ...]
    page_size: int

    def batch_of_block(self) -> dict[tuple[int, int, int], int]:
        return {b: tb.batch_id for tb in self.batches for b in tb.block_ids}


@dataclass(frozen=True)
class SharingHistogram:
    """bins[d] counts pages whose accessor batches span a batch-index
    distance of d; bin 0 is pages exclusive to one batch."""

    bins: dict[int, int]
    total_pages: int

    @property
    def exclusive_fraction(self) -> float:
        if self.total_pages == 0:
            return 1.0
        return self.bins.get(0, 0) / self.total_pages


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


def _shared_page_count(block_pages, stride: int) -> tuple[int, int]:
    """(pages shared across batches, total distinct pages) for a fixed stride."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for blin, pages in enumerate(block_pages):
        batch = blin // stride
        for p in pages:
            if p not in first:
                first[p] = batch
            last[p] = batch
    shared = sum(1 for p in first if last[p] != first[p])
    return shared, len(first)


def candidate_strides(spec: KernelSpec, search_cap: int = 64) -> list[int]:
    """Strides worth trying: 1..16 exhaustively, plus divisors and multiples
    of the number of blocks spanning one matrix row, capped at search_cap."""
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
        while base * k <= min(search_cap, total):
            cands.add(base * k)
            k += 1
    return sorted(c for c in cands if 1 <= c <= total)


def profile_stride(spec: KernelSpec, page_size: int, *,
                   search_cap: int = 64,
                   fallback_threshold: float = 0.5) -> tuple[int, Formation]:
    """Find the block stride that suppresses the most cross-batch page sharing.

    Matrices are profiled with their start addresses set to zero, which is the
    alignment the allocator later guarantees.  Ties break toward the smallest
    stride.  If even the best stride leaves more than fallback_threshold of
    all pages shared between batches, the kernel is marked FALLBACK: its
    mapping cannot be captured by a fixed stride.
    """
    block_pages = [block_page_set(spec, b, page_size, zero_base=True)
                   for b in enumerate_blocks(spec)]
    if not any(block_pages):
        raise ValueError("kernel issues no memory accesses")
    best_stride, best_shared, total_pages = None, None, 0
    for s in candidate_strides(spec, search_cap):
        shared, total_pages = _shared_page_count(block_pages, s)
        if best_shared is None or shared < best_shared:
            best_stride, best_shared = s, shared
    formation = Formation.FIXED_STRIDE
    if total_pages and best_shared / total_pages > fallback_threshold:
        formation = Formation.FALLBACK
    return best_stride, formation


def form_batches(spec: KernelSpec, stride: int, page_size: int,
                 formation: Formation = Formation.FIXED_STRIDE) -> BatchPlan:
    """Group consecutive blocks `stride` at a time; the last batch may be short.

    Page sets use the declared matrix base addresses (the runtime view).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    blocks = enumerate_blocks(spec)
    if stride > len(blocks):
        stride = len(blocks)
    batches = []
    for i in range(0, len(blocks), stride):
        members = blocks[i:i + stride]
        batches.append(ThreadBatch(
            batch_id=len(batches),
            block_ids=tuple(members),
            page_set=frozenset().union(
                *(block_page_set(spec, b, page_size) for b in members)),
        ))
    return BatchPlan(stride=stride, formation=formation,
                     batches=tuple(batches), page_size=page_size)


def sharing_histogram(plan: BatchPlan) -> SharingHistogram:
    """Distance histogram of page sharing across the plan's batches."""
    if not plan.batches:
        raise ValueError("plan has no batches")
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for tb in plan.batches:
        for p in tb.page_set:
            if p not in first:
                first[p] = tb.batch_id
                last[p] = tb.batch_id
            else:
                first[p] = min(first[p], tb.batch_id)
                last[p] = max(last[p], tb.batch_id)
    bins: dict[int, int] = {}
    for p in first:
        d = last[p] - first[p]
        bins[d] = bins.get(d, 0) + 1
    return SharingHistogram(bins=bins, total_pages=len(first))


def plan_to_dict(plan: BatchPlan) -> dict:
    return {
        "schema_version": PLAN_SCHEMA_VERSION,
        "stride": plan.stride,
        "formation": plan.formation.value,
        "page_size": plan.page_size,
        "batches": [
            {
                "batch_id": tb.batch_id,
                "block_ids": [list(b) for b in tb.block_ids],
                "page_set": sorted(tb.page_set),
            }
            for tb in plan.batches
        ],
    }
