import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmemsim.workload import (CpuTrafficSpec, KernelSpec, MappingKind,
                              MatrixMapping, enumerate_blocks, gen_block_trace,
                              gen_cpu_traffic, load_workload)

from conftest import (clustered_rows_workload, interleaved_grid_workload,
                      random_kernels)
from cpu_stream_reference import reference_cpu_traffic
from lane_model import assert_matches_lane_model

# The test kernels use 4-byte elements: with 4-byte lines every lane has a
# line of its own, so a slot lists every lane's address.
WORD = 4


def entries(trace):
    """Every (address, is_read) entry of every slot of every warp."""
    return [e for slots in trace.values() for slot in slots for e in slot]


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
    trace = gen_block_trace(kernel, (1, 0, 0), WORD)
    assert {addr for addr, _ in entries(trace)} == {16, 20, 24, 28}


def test_interleaved_x_neighbors_share_rows():
    kernel, _ = load_workload(interleaved_grid_workload())
    rows = {}
    for b in enumerate_blocks(kernel):
        # 16-byte lines are the matrix rows
        trace = gen_block_trace(kernel, b, 16)
        rows[b] = {addr // 16 for addr, _ in entries(trace)}
    assert rows[(0, 0, 0)] == rows[(1, 0, 0)] == {0, 1}
    assert rows[(0, 1, 0)] == rows[(1, 1, 0)] == {2, 3}


def test_zero_accesses_gives_empty_trace():
    kernel, _ = load_workload(clustered_rows_workload(accesses_per_thread=0))
    trace = gen_block_trace(kernel, (0, 0, 0), WORD)
    assert len(trace) == kernel.warps_per_block
    assert all(slots == [] for slots in trace.values())


def test_trace_covers_every_element_apt_times():
    apt = 3
    kernel, _ = load_workload(clustered_rows_workload(accesses_per_thread=apt))
    counts = {}
    for b in enumerate_blocks(kernel):
        for addr, _ in entries(gen_block_trace(kernel, b, WORD)):
            counts[addr] = counts.get(addr, 0) + 1
    assert len(counts) == 16
    assert all(c == apt for c in counts.values())


def test_clustered_blocks_are_disjoint():
    kernel, _ = load_workload(clustered_rows_workload())
    seen = {}
    for b in enumerate_blocks(kernel):
        addrs = {addr for addr, _ in entries(gen_block_trace(kernel, b, WORD))}
        for other, oaddrs in seen.items():
            assert not (addrs & oaddrs), f"{b} overlaps {other}"
        seen[b] = addrs


def test_interleaved_rows_depend_only_on_by():
    kernel, _ = load_workload(interleaved_grid_workload())
    by_rows = {}
    for b in enumerate_blocks(kernel):
        rows = frozenset(addr // 16
                         for addr, _ in entries(gen_block_trace(kernel, b, 16)))
        by_rows.setdefault(b[1], set()).add(rows)
    assert all(len(v) == 1 for v in by_rows.values())


def test_trace_is_pure():
    kernel, _ = load_workload(clustered_rows_workload())
    a = gen_block_trace(kernel, (1, 1, 0), WORD)
    b = gen_block_trace(kernel, (1, 1, 0), WORD)
    assert a == b


def test_issue_slots_increase_per_warp():
    # slots are positions in the warp's list: one per access, none empty,
    # each listing the same lanes in lane order
    kernel, _ = load_workload(clustered_rows_workload(accesses_per_thread=4))
    for slots in gen_block_trace(kernel, (0, 0, 0), WORD).values():
        assert len(slots) == 4
        lanes = [addr for addr, _ in slots[0]]
        assert lanes == sorted(lanes) and len(lanes) == kernel.warp_size
        assert all([addr for addr, _ in slot] == lanes for slot in slots)


def test_read_fraction_pattern():
    kernel, _ = load_workload(
        clustered_rows_workload(accesses_per_thread=4, read_fraction=0.5))
    for slots in gen_block_trace(kernel, (0, 0, 0), WORD).values():
        per_thread = {}
        for slot in slots:
            for addr, is_read in slot:
                per_thread.setdefault(addr, []).append(is_read)
        assert per_thread
        for flags in per_thread.values():
            assert sum(flags) == 2


def test_loader_rejects_3d():
    wl = clustered_rows_workload()
    wl["kernel"]["grid_dim"] = [2, 2, 2]
    with pytest.raises(ValueError, match="3D"):
        load_workload(wl)


def test_loader_takes_a_third_extent_of_1_as_2d():
    wl = clustered_rows_workload()
    wl["kernel"]["grid_dim"] = [2, 2, 1]
    assert load_workload(wl) == load_workload(clustered_rows_workload())


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
    with pytest.raises(ValueError, match=r"workload\.kernel\.matrices\[0\]"
                       r"\.row_len \(8\) of an interleaved matrix must equal "
                       r"the global thread width \(4\)"):
        load_workload(wl)


def cpu_workload(**traffic) -> dict:
    wl = interleaved_grid_workload()
    wl["cpu_traffic"] = dict({"request_rate": 10,
                              "address_region": [0, 4096]}, **traffic)
    return wl


def test_cpu_rate_is_at_most_one_request_per_cycle():
    _, cpu = load_workload(cpu_workload(request_rate=1000))
    assert cpu.request_rate == 1000
    message = r"^workload\.cpu_traffic\.request_rate must be <= 1000, not 5000$"
    with pytest.raises(ValueError, match=message):
        load_workload(cpu_workload(request_rate=5000))


def test_empty_cpu_region_is_rejected():
    with pytest.raises(ValueError, match=r"^workload\.cpu_traffic\."
                       r"address_region must be non-empty, not \[8, 8\]$"):
        load_workload(cpu_workload(address_region=[8, 8]))


def test_cpu_traffic_rate_zero():
    spec = CpuTrafficSpec(request_rate=0, address_region=(0, 4096))
    assert list(gen_cpu_traffic(spec, 1000)) == []


def test_cpu_traffic_deterministic():
    spec = CpuTrafficSpec(request_rate=50, address_region=(0, 4096),
                          rw_ratio=0.7, burstiness=4, seed=11)
    assert list(gen_cpu_traffic(spec, 20000)) \
        == list(gen_cpu_traffic(spec, 20000))


def test_cpu_traffic_rate_within_ten_percent():
    spec = CpuTrafficSpec(request_rate=100, address_region=(0, 1 << 20), seed=7)
    events = list(gen_cpu_traffic(spec, 100_000))
    assert 9_000 <= len(events) <= 11_000


@pytest.mark.parametrize("rate, burstiness", [(400, 4), (800, 8)])
def test_bursty_cpu_traffic_delivers_less_than_its_rate(rate, burstiness):
    # a burst's cycles draw no burst start, so the stream delivers
    # rate/(1 + p*(b - 1)) per 1000 cycles with p = rate/(1000*b): an open
    # defect, pinned here so that the fix has to change this test
    spec = CpuTrafficSpec(request_rate=rate, address_region=(0, 1 << 20),
                          burstiness=burstiness, seed=1)
    horizon = 200_000
    p = rate / (1000 * burstiness)
    expected = horizon * rate / 1000 / (1 + p * (burstiness - 1))
    delivered = sum(1 for _ in gen_cpu_traffic(spec, horizon))
    assert abs(delivered - expected) <= 0.03 * expected


@settings(max_examples=60, deadline=None)
@given(rate=st.floats(0, 1000), burstiness=st.integers(1, 16),
       rw_ratio=st.floats(0, 1), region=st.integers(1, 1 << 20),
       seed=st.integers(0, 2**32), horizon=st.integers(1, 3000),
       cut=st.integers(0, 14))
def test_the_lazy_cpu_stream_matches_the_eager_reference(
        rate, burstiness, rw_ratio, region, seed, horizon, cut):
    spec = CpuTrafficSpec(request_rate=rate, address_region=(4096,
                          4096 + region), rw_ratio=rw_ratio,
                          burstiness=burstiness, seed=seed)
    whole = reference_cpu_traffic(spec, horizon)
    horizons = [horizon]
    if whole and burstiness > 1:
        # a horizon from one cycle into the first burst to one before its end
        horizons.append(whole[0].cycle + 1 + cut % (burstiness - 1))
    for h in horizons:
        assert list(gen_cpu_traffic(spec, h)) == reference_cpu_traffic(spec, h)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 80), burstiness=st.integers(1, 16),
       seed=st.integers(0, 2**32))
def test_pulling_part_of_the_cpu_stream_then_the_rest_gives_it_whole(
        k, burstiness, seed):
    spec = CpuTrafficSpec(request_rate=300, address_region=(0, 1 << 16),
                          burstiness=burstiness, seed=seed)
    whole = reference_cpu_traffic(spec, 2000)
    stream = gen_cpu_traffic(spec, 2000)
    head = list(itertools.islice(stream, k))
    assert head == whole[:k]
    assert head + list(stream) == whole


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
        for addr, _ in entries(gen_block_trace(kernel, b, WORD)):
            counts[addr] = counts.get(addr, 0) + 1
    if apt == 0:
        assert counts == {}
    else:
        assert len(counts) == kernel.total_blocks * kernel.threads_per_block
        assert all(c == apt for c in counts.values())


# a warp of 4 over 6-wide rows of 3-byte elements: warps start mid-row,
# span two rows, and the last of the block's 18 threads fill half a warp
ODD_WARPS = KernelSpec(
    grid_dim=(2, 2), block_dim=(6, 3), warp_size=4, matrices=(
        MatrixMapping(0, 3, 12, MappingKind.INTERLEAVED, 2, 0.5),
        MatrixMapping(4096, 40, 12, MappingKind.INTERLEAVED, 1, 1.0)))


# kernels whose blocks start at many offsets within a line, so that each
# builds many warp templates and reuses each over several blocks
MANY_OFFSETS = {
    # 12-byte elements in 5-wide blocks: a block starts 60 bytes past the
    # last, at every multiple of 4 within a 32-byte line
    "12-byte element": (KernelSpec(
        grid_dim=(8, 3), block_dim=(5, 2), warp_size=4, matrices=(
            MatrixMapping(0, 12, 40, MappingKind.INTERLEAVED, 1, 1.0),)),
        32, {(0, o) for o in range(0, 32, 4)}),
    # 40-byte elements span more than a 32-byte line; the clustered
    # matrix's 12-byte elements make blocks 72 bytes long
    "element wider than a line": (KernelSpec(
        grid_dim=(4, 3), block_dim=(3, 2), warp_size=4, matrices=(
            MatrixMapping(4096, 40, 12, MappingKind.INTERLEAVED, 2, 0.5),
            MatrixMapping(8192, 12, 7, MappingKind.CLUSTERED, 1, 0.0))),
        32, {(i, o) for i in (0, 1) for o in (0, 8, 16, 24)}),
    # 3 words wide: neither mapping's block width is a multiple of a line
    "block width not a multiple of a line": (KernelSpec(
        grid_dim=(8, 2), block_dim=(3, 1), warp_size=2, matrices=(
            MatrixMapping(0, 4, 24, MappingKind.INTERLEAVED, 1, 1.0),
            MatrixMapping(0, 4, 5, MappingKind.CLUSTERED, 1, 1.0))),
        16, {(i, o) for i in (0, 1) for o in (0, 4, 8, 12)}),
}


@pytest.mark.parametrize("name", sorted(MANY_OFFSETS))
def test_blocks_at_many_line_offsets_match_the_lane_model(name):
    spec, line_bytes, keys = MANY_OFFSETS[name]
    # one template per (matrix, offset of a block's start within its line)
    assert assert_matches_lane_model(spec, line_bytes, 64).keys() == keys


@settings(max_examples=200, deadline=None)
@given(spec=random_kernels(),
       line_bytes=st.sampled_from([1, 2, 4, 8, 16, 32, 128]),
       page_size=st.sampled_from([8, 32, 64, 256, 4096]))
@example(spec=ODD_WARPS, line_bytes=8, page_size=32)
@example(spec=ODD_WARPS, line_bytes=32, page_size=64)
def test_runs_match_the_lane_model(spec, line_bytes, page_size):
    assert_matches_lane_model(spec, line_bytes, page_size)
