import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmemsim.workload import (CpuTrafficSpec, MappingKind, enumerate_blocks,
                              gen_block_trace, gen_cpu_traffic, load_workload)

from conftest import clustered_rows_workload, interleaved_grid_workload


def test_enumerate_blocks_2x2(clustered_spec):
    assert enumerate_blocks(clustered_spec) == [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


def test_enumerate_blocks_single():
    kernel, _ = load_workload({
        "kernel": {"name": "one", "grid_dim": [1, 1], "block_dim": [4, 1],
                   "warp_size": 2, "matrices": []}})
    assert enumerate_blocks(kernel) == [(0, 0, 0)]


def test_enumerate_blocks_1d_row_major():
    kernel, _ = load_workload({
        "kernel": {"name": "row", "grid_dim": [4, 1], "block_dim": [2, 1],
                   "warp_size": 2, "matrices": []}})
    assert enumerate_blocks(kernel) == [
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]


def test_clustered_block_covers_its_matrix_row():
    kernel, _ = load_workload(clustered_rows_workload(accesses_per_thread=1))
    # row_len=4 elements of 4 bytes: matrix row i spans [16*i, 16*(i+1))
    trace = gen_block_trace(kernel, (1, 0, 0))
    addrs = {e.virtual_addr for evs in trace.values() for e in evs}
    assert addrs == {16, 20, 24, 28}


def test_interleaved_x_neighbors_share_rows():
    kernel, _ = load_workload(interleaved_grid_workload())
    rows = {}
    for b in enumerate_blocks(kernel):
        trace = gen_block_trace(kernel, b)
        rows[b] = {e.virtual_addr // 16 for evs in trace.values() for e in evs}
    assert rows[(0, 0, 0)] == rows[(1, 0, 0)] == {0, 1}
    assert rows[(0, 1, 0)] == rows[(1, 1, 0)] == {2, 3}


def test_zero_accesses_gives_empty_trace():
    kernel, _ = load_workload(clustered_rows_workload(accesses_per_thread=0))
    trace = gen_block_trace(kernel, (0, 0, 0))
    assert all(evs == [] for evs in trace.values())


def test_trace_covers_every_element_apt_times():
    apt = 3
    kernel, _ = load_workload(clustered_rows_workload(accesses_per_thread=apt))
    counts = {}
    for b in enumerate_blocks(kernel):
        for evs in gen_block_trace(kernel, b).values():
            for e in evs:
                counts[e.virtual_addr] = counts.get(e.virtual_addr, 0) + 1
    assert len(counts) == 16
    assert all(c == apt for c in counts.values())


def test_clustered_blocks_are_disjoint():
    kernel, _ = load_workload(clustered_rows_workload())
    seen = {}
    for b in enumerate_blocks(kernel):
        addrs = {e.virtual_addr
                 for evs in gen_block_trace(kernel, b).values() for e in evs}
        for other, oaddrs in seen.items():
            assert not (addrs & oaddrs), f"{b} overlaps {other}"
        seen[b] = addrs


def test_interleaved_rows_depend_only_on_by():
    kernel, _ = load_workload(interleaved_grid_workload())
    by_rows = {}
    for b in enumerate_blocks(kernel):
        rows = frozenset(e.virtual_addr // 16
                         for evs in gen_block_trace(kernel, b).values()
                         for e in evs)
        by_rows.setdefault(b[1], set()).add(rows)
    assert all(len(v) == 1 for v in by_rows.values())


def test_trace_is_pure():
    kernel, _ = load_workload(clustered_rows_workload())
    a = gen_block_trace(kernel, (1, 1, 0))
    b = gen_block_trace(kernel, (1, 1, 0))
    assert a == b


def test_issue_slots_increase_per_warp():
    kernel, _ = load_workload(clustered_rows_workload(accesses_per_thread=4))
    for evs in gen_block_trace(kernel, (0, 0, 0)).values():
        slots = [e.issue_slot for e in evs]
        assert slots == sorted(slots)
        instr = sorted(set(slots))
        assert instr == list(range(len(instr)))


def test_read_fraction_pattern():
    kernel, _ = load_workload(
        clustered_rows_workload(accesses_per_thread=4, read_fraction=0.5))
    for evs in gen_block_trace(kernel, (0, 0, 0)).values():
        per_thread = {}
        for e in evs:
            per_thread.setdefault(e.virtual_addr, []).append(e.is_read)
        for flags in per_thread.values():
            assert sum(flags) == 2


def test_loader_rejects_3d():
    wl = clustered_rows_workload()
    wl["kernel"]["grid_dim"] = [2, 2, 2]
    with pytest.raises(ValueError, match="3D"):
        load_workload(wl)


def test_loader_rejects_unknown_fields():
    wl = clustered_rows_workload()
    wl["kernel"]["surprise"] = 1
    with pytest.raises(ValueError, match="unknown field"):
        load_workload(wl)


def test_loader_names_the_matrix_field():
    wl = clustered_rows_workload()
    wl["kernel"]["matrices"][0]["mapping"] = "diagonal"
    with pytest.raises(ValueError, match=r"workload\.kernel\.matrices\[0\]"
                       r"\.mapping must be one of \['clustered', "):
        load_workload(wl)
    wl["kernel"]["matrices"][0]["mapping"] = "clustered"
    wl["kernel"]["grid_dim"] = [2, True]
    with pytest.raises(ValueError, match="grid_dim extents must be integers"):
        load_workload(wl)


def test_loader_rejects_degenerate_interleaved():
    wl = interleaved_grid_workload()
    wl["kernel"]["matrices"][0]["row_len"] = 8
    with pytest.raises(ValueError, match="row_len"):
        load_workload(wl)


def test_cpu_traffic_rate_zero():
    spec = CpuTrafficSpec(request_rate=0, address_region=(0, 4096))
    assert gen_cpu_traffic(spec, 1000) == []


def test_cpu_traffic_deterministic():
    spec = CpuTrafficSpec(request_rate=50, address_region=(0, 4096),
                          rw_ratio=0.7, burstiness=4, seed=11)
    assert gen_cpu_traffic(spec, 20000) == gen_cpu_traffic(spec, 20000)


def test_cpu_traffic_rate_within_ten_percent():
    spec = CpuTrafficSpec(request_rate=100, address_region=(0, 1 << 20), seed=7)
    events = gen_cpu_traffic(spec, 100_000)
    assert 9_000 <= len(events) <= 11_000


def test_cpu_traffic_addresses_in_region():
    spec = CpuTrafficSpec(request_rate=80, address_region=(1 << 12, 1 << 14),
                          seed=3, burstiness=2)
    for ev in gen_cpu_traffic(spec, 50_000):
        assert (1 << 12) <= ev.virtual_addr < (1 << 14)
        assert ev.virtual_addr % 64 == 0


@settings(max_examples=25, deadline=None)
@given(gx=st.integers(1, 4), gy=st.integers(1, 4),
       bx=st.integers(1, 8), apt=st.integers(0, 3))
def test_clustered_coverage_property(gx, gy, bx, apt):
    kernel, _ = load_workload({
        "kernel": {
            "name": "prop", "grid_dim": [gx, gy], "block_dim": [bx, 1],
            "warp_size": 2, "matrices": [
                {"base_addr": 0, "element_size": 4, "row_len": max(1, bx),
                 "mapping": "clustered", "accesses_per_thread": apt}],
        },
    })
    counts = {}
    for b in enumerate_blocks(kernel):
        for evs in gen_block_trace(kernel, b).values():
            for e in evs:
                counts[e.virtual_addr] = counts.get(e.virtual_addr, 0) + 1
    if apt == 0:
        assert counts == {}
    else:
        assert len(counts) == kernel.total_threads
        assert all(c == apt for c in counts.values())
