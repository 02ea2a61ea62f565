"""Declarative kernel and CPU-traffic descriptions and the access streams they generate.

A kernel is described by its thread hierarchy (2D grid of 2D blocks) plus one
thread-data mapping per data matrix.  No instructions are modeled; the mapping
is enough to reconstruct every memory address a thread touches.  A warp's
or block's threads own runs of consecutive elements (`element_runs`), whose
lines and pages follow by address arithmetic, not lane by lane.  A lane
touches the line and page of its element's first byte only.

A workload file is a JSON object with a `kernel` (the fields of KernelSpec,
`matrices` holding those of MatrixMapping) and an optional `cpu_traffic`
(the fields of CpuTrafficSpec).  `gmemsim.loader` reads both by the field
annotations, so types are strict: an address, size or count must be an
integer, `read_fraction` and `request_rate` numbers, `mapping` one of
MappingKind's values and `address_region` a list of two integers.
`grid_dim` and `block_dim` take 1, 2 or 3 extents, the third being 1.
Ranges are declared on the fields as `min`/`max` metadata and checked by
`KernelSpec.validate` and `CpuTrafficSpec.validate` (see `gmemsim.loader`).
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .loader import check_bounds, from_dict, reject_unknown, strip_version

WORKLOAD_SCHEMA_VERSION = 1


class MappingKind(str, Enum):
    """How a matrix's elements are distributed over threads.

    CLUSTERED: each block's threads cover one contiguous element range, so
    consecutive blocks walk consecutive address ranges (1D record kernels).
    A warp owns one run of elements.
    INTERLEAVED: thread (tx, ty) of block (bx, by) owns the element at global
    coordinates (bx*bdim.x + tx, by*bdim.y + ty), so blocks that are neighbors
    along x interleave within the same matrix rows (2D stencil/grid kernels).
    A warp owns one run per block row its lanes reach, at least
    ceil(warp_size / bdim.x) of them.  Either way a thread's access touches
    the line and the page of its element's first byte.
    """

    CLUSTERED = "clustered"
    INTERLEAVED = "interleaved"


@dataclass(frozen=True)
class MatrixMapping:
    base_addr: int = field(metadata={"min": 0})
    element_size: int = field(metadata={"min": 1})
    row_len: int = field(metadata={"min": 1})
    mapping: MappingKind
    accesses_per_thread: int = field(default=1, metadata={"min": 0})
    read_fraction: float = field(default=1.0, metadata={"min": 0, "max": 1})


def _dim2(raw, where: str) -> tuple[int, int]:
    # the field's own bound checks that each extent is >= 1
    if not isinstance(raw, (list, tuple)) or len(raw) not in (1, 2, 3):
        raise ValueError(f"{where} must be a 1D or 2D extent list")
    if len(raw) == 3 and raw[2] != 1:
        raise ValueError(f"{where}: 3D shapes are not supported")
    vals = list(raw[:2]) + [1] * (2 - len(raw[:2]))
    if not all(type(v) is int for v in vals):
        raise ValueError(f"{where} extents must be integers, not {raw!r}")
    return (vals[0], vals[1])


@dataclass(frozen=True)
class KernelSpec:
    """Thread hierarchy plus per-matrix thread-data mappings.

    Only 1D and 2D grids/blocks are allowed; a z extent other than 1 is
    rejected by the loader.  compute_gap is the number of non-memory cycles a
    warp spends between two successive memory instructions.
    """

    grid_dim: tuple[int, int] = field(metadata={"parse": _dim2, "min": 1})
    block_dim: tuple[int, int] = field(metadata={"parse": _dim2, "min": 1})
    warp_size: int = field(metadata={"min": 1})
    matrices: tuple[MatrixMapping, ...] = ()
    compute_gap: int = field(default=0, metadata={"min": 0})
    name: str = "kernel"

    @property
    def total_blocks(self) -> int:
        return self.grid_dim[0] * self.grid_dim[1]

    @property
    def threads_per_block(self) -> int:
        return self.block_dim[0] * self.block_dim[1]

    @property
    def warps_per_block(self) -> int:
        return -(-self.threads_per_block // self.warp_size)

    def validate(self, where: str = "kernel"):
        """Check every declared bound, then each interleaved matrix's row
        length against the grid."""
        check_bounds(self, where)
        width = self.grid_dim[0] * self.block_dim[0]
        for i, m in enumerate(self.matrices):
            if m.mapping is MappingKind.INTERLEAVED and m.row_len != width:
                raise ValueError(
                    f"{where}.matrices[{i}].row_len ({m.row_len}) of an "
                    f"interleaved matrix must equal the global thread width "
                    f"({width}); elements would fall outside the matrix")


@dataclass(frozen=True)
class CpuTrafficSpec:
    """Synthetic CPU request stream: `request_rate` is the configured
    requests per 1000 cycles, at most one arrival per cycle.  With
    `burstiness` b > 1 the stream delivers less, rate/(1 + p*(b - 1)) with
    p = rate/(1000*b), because a burst's cycles start no burst (an open
    defect, see `gen_cpu_traffic`).  `load_workload` calls `validate`, and
    the stream trusts the spec it is given."""

    request_rate: float = field(metadata={"min": 0, "max": 1000})
    address_region: tuple[int, int]
    rw_ratio: float = field(default=1.0, metadata={"min": 0, "max": 1})
    burstiness: int = field(default=1, metadata={"min": 1})
    seed: int = 0

    def validate(self, where: str = "cpu_traffic"):
        """Check every declared bound, then that the region is non-empty."""
        check_bounds(self, where)
        lo, hi = self.address_region
        if hi <= lo:
            raise ValueError(f"{where}.address_region must be non-empty, "
                             f"not [{lo}, {hi}]")


class CpuRequest(NamedTuple):
    cycle: int
    virtual_addr: int
    is_read: bool


def enumerate_blocks(spec: KernelSpec) -> list[tuple[int, int, int]]:
    """All block ids in dispatch order: row-major with x fastest."""
    gx, gy = spec.grid_dim
    return [(x, y, 0) for y in range(gy) for x in range(gx)]


def _is_read(ordinal: int, read_fraction: float) -> bool:
    # Spread reads evenly over the access ordinals; integer math keeps the
    # pattern exact and platform independent.
    num = round(read_fraction * 1000)
    return (ordinal + 1) * num // 1000 > ordinal * num // 1000


def owned_element(spec: KernelSpec, m: MatrixMapping, block_id, tx: int, ty: int) -> int:
    """Linear index of the matrix element owned by one thread."""
    (bx, by, _), (bdx, bdy) = block_id, spec.block_dim
    if m.mapping is MappingKind.CLUSTERED:
        return (by * spec.grid_dim[0] + bx) * bdx * bdy + ty * bdx + tx
    return (by * bdy + ty) * m.row_len + bx * bdx + tx


def element_runs(spec: KernelSpec, m: MatrixMapping, block_id,
                 threads: range, base: int) -> list[tuple[int, int]]:
    """The elements that the block's threads `threads` own, as (start
    address, count) runs in thread order, with the matrix placed at `base`.
    CLUSTERED threads own one run; INTERLEAVED ones one per block row, each
    row starting `row_len` elements past the last one's first column."""
    bdx, size, stop = spec.block_dim[0], m.element_size, threads.stop
    clustered = m.mapping is MappingKind.CLUSTERED
    runs, t = [], threads.start
    start = base + owned_element(spec, m, block_id, t % bdx, t // bdx) * size
    while t < stop:
        end = stop if clustered else min(stop, (t // bdx + 1) * bdx)
        runs.append((start, end - t))
        start += (m.row_len - t % bdx) * size
        t = end
    return runs


def first_byte_units(start: int, count: int, size: int,
                     unit: int) -> list[tuple[int, int]]:
    """(unit index, address of its first element) for each `unit`-byte line
    or page holding the first byte of one of `count` consecutive `size`-byte
    elements from `start`, in address order.  Elements no larger than a unit
    touch every unit from the first to the last; larger ones skip some."""
    if size >= unit:
        return [((start + i * size) // unit, start + i * size)
                for i in range(count)]
    last = start + (count - 1) * size
    return [(u, start + max(0, -(-(u * unit - start) // size)) * size)
            for u in range(start // unit, last // unit + 1)]


def gen_block_trace(spec: KernelSpec, block_id,
                    line_bytes: int) -> dict[int, list[list[tuple[int, bool]]]]:
    """Per warp id, in id order, the warp's memory instruction stream (see
    WarpState.slots), worked out from its element runs, not lane by lane.
    Each thread accesses its element of each matrix accesses_per_thread
    times, matrices in declaration order.  A slot holds one (address,
    is_read) per distinct line its lanes touch, in first-lane order, with
    the first such lane's address; a lane touches the line of its element's
    first byte only.  Pure."""
    bx, by, _ = block_id
    tpb, ws = spec.threads_per_block, spec.warp_size
    warp_base = (by * spec.grid_dim[0] + bx) * spec.warps_per_block
    out: dict[int, list] = {
        warp_base + w: [] for w in range(spec.warps_per_block)}
    for m in spec.matrices:
        flags = [_is_read(a, m.read_fraction)
                 for a in range(m.accesses_per_thread)]
        for w, slots in enumerate(out.values()):
            lanes = range(w * ws, min((w + 1) * ws, tpb))
            first: dict[int, int] = {}
            for start, count in element_runs(spec, m, block_id, lanes,
                                             m.base_addr):
                for line, addr in first_byte_units(start, count,
                                                   m.element_size, line_bytes):
                    first.setdefault(line, addr)
            slots.extend([(addr, is_read) for addr in first.values()]
                         for is_read in flags)
    return out


def gen_cpu_traffic(spec: CpuTrafficSpec,
                    horizon: int) -> Iterator[CpuRequest]:
    """Reproducible pseudo-random CPU request stream over [0, horizon), as a
    generator in cycle order that draws each request when it is pulled.
    `load_workload` has validated the spec, and `World` asks for a stream
    only when its horizon is > 0.

    A burst of `burstiness` back-to-back requests starts at any free cycle
    with probability p = rate/(1000*burstiness).  The cycles of a burst draw
    no start, so the stream delivers rate/(1 + p*(burstiness - 1)) requests
    per 1000 cycles, not rate: with bursts it falls short of the configured
    rate (an open defect; rate 400 with bursts of 4 delivers about 309).
    Addresses are uniform over the region at 64-byte granularity.  The
    stream is a pure function of (spec, horizon).
    """
    if spec.request_rate == 0:
        return
    rng = random.Random(spec.seed)
    draw, pick = rng.random, rng.randrange
    gran = 64
    lo, hi = spec.address_region
    slots = max(1, (hi - lo) // gran)
    burst, rw_ratio = spec.burstiness, spec.rw_ratio
    p_start = spec.request_rate / (1000.0 * burst)
    cycle = 0
    while cycle < horizon:
        if draw() < p_start:
            # each request draws its address slot, then its read flag
            for c in range(cycle, min(cycle + burst, horizon)):
                yield CpuRequest(c, lo + pick(slots) * gran, draw() < rw_ratio)
            cycle += burst
        else:
            cycle += 1


def kernel_from_dict(obj: dict, where: str = "kernel") -> KernelSpec:
    spec = from_dict(KernelSpec, obj, where)
    spec.validate(where)
    return spec


def load_workload(source) -> tuple[KernelSpec, CpuTrafficSpec | None]:
    """Parse a workload description from a path or a pre-parsed dict."""
    if isinstance(source, dict):
        obj = source
    else:
        with open(source) as f:
            obj = json.load(f)
    obj = strip_version(obj, "workload", WORKLOAD_SCHEMA_VERSION)
    reject_unknown(obj, {"kernel", "cpu_traffic"}, "workload")
    if "kernel" not in obj:
        raise ValueError("workload.kernel is required")
    kernel = kernel_from_dict(obj["kernel"], "workload.kernel")
    cpu = None
    if obj.get("cpu_traffic") is not None:
        cpu = from_dict(CpuTrafficSpec, obj["cpu_traffic"], "workload.cpu_traffic")
        cpu.validate("workload.cpu_traffic")
    return kernel, cpu
