"""The lane-level access model, kept as the reference that the run-based
generator in gmemsim.workload is compared against.

Every thread of a block is walked one by one: it owns one element per matrix
and touches that element's first byte once per access.  The lanes of one
warp instruction are then collapsed to distinct lines, first lane first,
which is what a warp's slot list holds.
"""

from gmemsim.batching import block_page_set
from gmemsim.workload import (MappingKind, _is_read, enumerate_blocks,
                              gen_block_trace)


def lane_element(spec, m, block_id, tx: int, ty: int) -> int:
    """Linear index of the matrix element owned by one thread."""
    bx, by, _ = block_id
    if m.mapping is MappingKind.CLUSTERED:
        blin = by * spec.grid_dim[0] + bx
        return blin * spec.threads_per_block + ty * spec.block_dim[0] + tx
    gx = bx * spec.block_dim[0] + tx
    gy = by * spec.block_dim[1] + ty
    return gy * m.row_len + gx


def lane_events(spec, block_id) -> list[tuple[int, bool, int, int]]:
    """One (virtual address, is_read, warp id, issue slot) per lane per
    access, in slot order and, within a slot, in lane order."""
    bx, by, _ = block_id
    blin = by * spec.grid_dim[0] + bx
    bdx = spec.block_dim[0]
    warp_base = blin * spec.warps_per_block
    out = []
    slot = 0
    for m in spec.matrices:
        for a in range(m.accesses_per_thread):
            for tlin in range(spec.threads_per_block):
                elem = lane_element(spec, m, block_id, tlin % bdx, tlin // bdx)
                out.append((m.base_addr + elem * m.element_size,
                            _is_read(a, m.read_fraction),
                            warp_base + tlin // spec.warp_size, slot + a))
        slot += m.accesses_per_thread
    return out


def lane_slots(spec, block_id, line_bytes: int) -> dict[int, list[list]]:
    """Per warp id, per slot, one (address, is_read) per distinct line, the
    address and flag being those of the first lane in that line."""
    blin = block_id[1] * spec.grid_dim[0] + block_id[0]
    warp_base = blin * spec.warps_per_block
    slots: dict[int, list[dict]] = {
        warp_base + w: [] for w in range(spec.warps_per_block)}
    for addr, is_read, warp, slot in lane_events(spec, block_id):
        per_slot = slots[warp]
        if slot == len(per_slot):
            per_slot.append({})
        per_slot[slot].setdefault(addr // line_bytes, (addr, is_read))
    return {w: [list(s.values()) for s in per_slot]
            for w, per_slot in slots.items()}


def lane_page_set(spec, block_id, page_size: int,
                  zero_base: bool = False) -> frozenset[int]:
    """Pages of the first bytes of every element the block's threads own in
    a matrix it accesses."""
    bdx = spec.block_dim[0]
    pages = set()
    for m in spec.matrices:
        if m.accesses_per_thread == 0:
            continue
        base = 0 if zero_base else m.base_addr
        for tlin in range(spec.threads_per_block):
            elem = lane_element(spec, m, block_id, tlin % bdx, tlin // bdx)
            pages.add((base + elem * m.element_size) // page_size)
    return frozenset(pages)


def assert_matches_lane_model(spec, line_bytes: int, page_size: int) -> dict:
    """Every block's slot lists and page sets, with matrices at their bases
    and at zero, equal the lane model's.  The slot lists are built twice:
    from templates of the block's own, and through one template store
    shared over the kernel's blocks, as `World` shares its store, so that a
    template built for one block is checked on every block that reuses it.
    Returns that shared store."""
    templates = {}
    for b in enumerate_blocks(spec):
        lanes = lane_slots(spec, b, line_bytes)
        assert gen_block_trace(spec, b, line_bytes) == lanes, b
        assert gen_block_trace(spec, b, line_bytes, templates) == lanes, b
        for zero_base in (False, True):
            assert block_page_set(spec, b, page_size, zero_base) == \
                lane_page_set(spec, b, page_size, zero_base), (b, zero_base)
    return templates
