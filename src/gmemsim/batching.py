"""Thread-batch formation: stride profiling, block grouping, and page-sharing stats.

A thread batch is a group of consecutive thread blocks that touch the same set
of virtual pages.  Profiling searches for the block stride that minimizes
cross-batch page sharing; the resulting plan drives serial dispatch and
SM-bound page coloring.

One rule defines the batches: block `i`, in `enumerate_blocks` order, belongs
to batch `i // stride`, so a `BatchPlan` is its stride and how it was formed.
Batches, their page sets and the sharing histogram are worked out only where
they are written out, by `plan_to_dict`, at the page size it is given.
Both the stride search and the histogram rest on one span rule: a page
whose first and last accessor blocks are `first` and `last` spans batches
`first // stride` to `last // stride`, and is shared when they differ.
Neither input is checked here: a stride is at least 1 by the bound on
`config.stride`, and a page size is `1 << page_offset_bits`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .workload import KernelSpec, MappingKind, element_runs, enumerate_blocks

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
    bytes, taken from its element runs.  A run of elements narrower than a
    page touches every page from its first byte to its last element's first
    byte; wider elements touch one page each.  zero_base applies the
    profiling convention that every matrix starts at address zero."""
    threads = range(spec.threads_per_block)
    pages: set[int] = set()
    # matrices alike in base, element size, mapping and row length touch the
    # same pages, so each such group is walked once
    walks = {(0 if zero_base else m.base_addr, m.element_size, m.mapping,
              m.row_len): m for m in spec.matrices if m.accesses_per_thread}
    for (base, size, _, _), m in walks.items():
        for start, count in element_runs(spec, m, block_id, threads, base):
            last = start + (count - 1) * size
            pages.update(range(start // page_size, last // page_size + 1)
                         if size < page_size else
                         (a // page_size for a in range(start, last + 1, size)))
    return frozenset(pages)


def _page_spans(block_pages) -> list[tuple[int, int]]:
    """(first, last) index in `block_pages` of the blocks touching each
    page, the two ends of the module docstring's span rule."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, pages in enumerate(block_pages):
        for p in pages:
            first.setdefault(p, i)
            last[p] = i
    return [(f, last[p]) for p, f in first.items()]


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
    return sorted(c for c in cands if c <= total)


def profile_stride(spec: KernelSpec, page_size: int) -> tuple[int, Formation]:
    """Find the block stride that suppresses the most cross-batch page sharing.

    Matrices are profiled with their start addresses set to zero, which is the
    alignment the allocator later guarantees.  By the span rule, each
    candidate stride is scored in one pass over the pages' first and last
    accessor blocks.  Ties break toward the smallest stride.  If even the
    best stride leaves more than FALLBACK_THRESHOLD of all pages shared
    between batches, the kernel is marked FALLBACK: its mapping cannot be
    captured by a fixed stride.  `World` rejects a kernel that touches no
    page before this runs.
    """
    spans = _page_spans([block_page_set(spec, b, page_size, zero_base=True)
                         for b in enumerate_blocks(spec)])
    shared, stride = min((sum(lo // s != hi // s for lo, hi in spans), s)
                         for s in candidate_strides(spec))
    formation = Formation.FIXED_STRIDE
    if shared / len(spans) > FALLBACK_THRESHOLD:
        formation = Formation.FALLBACK
    return stride, formation


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
    spans = _page_spans(block_pages)
    bins = Counter(hi // stride - lo // stride for lo, hi in spans)
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
            "total_pages": len(spans),
            "exclusive_fraction": bins[0] / len(spans),
        },
    }
