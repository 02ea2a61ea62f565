from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmemsim.batching import (FALLBACK_THRESHOLD, Formation, block_page_set,
                              candidate_strides, form_batches, plan_to_dict,
                              profile_stride)
from gmemsim.workload import enumerate_blocks, load_workload

from conftest import (clustered_rows_workload, interleaved_grid_workload,
                      one_page_workload, random_kernels)
from lane_model import lane_page_set


def brute_force_stride(kernel, page_size, max_stride=16):
    """Independent minimizer: exhaustively count cross-batch shared pages for
    every stride, page by page."""
    blocks = enumerate_blocks(kernel)
    pages_per_block = [block_page_set(kernel, b, page_size, zero_base=True)
                       for b in blocks]
    best = None
    for stride in range(1, min(max_stride, len(blocks)) + 1):
        accessors = {}
        for i, pages in enumerate(pages_per_block):
            for p in pages:
                accessors.setdefault(p, set()).add(i // stride)
        shared = sum(1 for v in accessors.values() if len(v) > 1)
        if best is None or shared < best[1]:
            best = (stride, shared)
    return best[0]


def batches(spec, plan, page_size=32) -> list[tuple[list, list]]:
    """(block ids, page set) of each batch, as `plan_to_dict` writes them."""
    return [([tuple(b) for b in batch["block_ids"]], batch["page_set"])
            for batch in plan_to_dict(spec, plan, page_size)["batches"]]


def histogram(spec, plan, page_size) -> dict:
    """The sharing histogram that `plan_to_dict` writes."""
    return plan_to_dict(spec, plan, page_size)["sharing_histogram"]


def test_stride_one_when_page_is_one_row(clustered_spec):
    stride, formation = profile_stride(clustered_spec, 16)
    assert stride == 1
    assert formation is Formation.FIXED_STRIDE


def test_stride_two_when_page_is_two_rows(clustered_spec):
    stride, _ = profile_stride(clustered_spec, 32)
    assert stride == 2
    plan = form_batches(clustered_spec, stride)
    assert len(batches(clustered_spec, plan)) == 2


def test_interleaved_stride_two(interleaved_spec):
    stride, _ = profile_stride(interleaved_spec, 16)
    assert stride == 2
    plan = form_batches(interleaved_spec, 2)
    assert batches(interleaved_spec, plan, 16) == [
        ([(0, 0, 0), (1, 0, 0)], [0, 1]), ([(0, 1, 0), (1, 1, 0)], [2, 3])]


def test_a_page_no_stride_keeps_in_one_batch_profiles_as_fallback():
    kernel, _ = load_workload(one_page_workload())
    assert profile_stride(kernel, 4096) == (1, Formation.FALLBACK)


def test_profile_matches_brute_force_on_block_ranges_per_page():
    # page spanning k block footprints must give stride k
    for k in (1, 2, 4, 8):
        kernel, _ = load_workload({
            "kernel": {
                "name": f"span{k}", "grid_dim": [16, 1], "block_dim": [4, 1],
                "warp_size": 2, "matrices": [
                    {"base_addr": 0, "element_size": 4, "row_len": 4,
                     "mapping": "clustered", "accesses_per_thread": 1}],
            },
        })
        page = 16 * k  # one block touches 16 bytes
        stride, formation = profile_stride(kernel, page)
        assert stride == k == brute_force_stride(kernel, page)
        assert formation is Formation.FIXED_STRIDE


def test_form_batches_grouping(clustered_spec):
    plan = form_batches(clustered_spec, 2)
    assert [blocks for blocks, _ in batches(clustered_spec, plan)] == [
        [(0, 0, 0), (1, 0, 0)], [(0, 1, 0), (1, 1, 0)]]


def test_form_batches_remainder():
    kernel, _ = load_workload({
        "kernel": {"name": "five", "grid_dim": [5, 1], "block_dim": [4, 1],
                   "warp_size": 2, "matrices": [
                       {"base_addr": 0, "element_size": 4, "row_len": 4,
                        "mapping": "clustered", "accesses_per_thread": 1}]},
    })
    plan = form_batches(kernel, 2)
    assert [len(blocks) for blocks, _ in batches(kernel, plan)] == [2, 2, 1]


def test_form_batches_oversized_stride_collapses():
    kernel, _ = load_workload(clustered_rows_workload())
    plan = form_batches(kernel, 99)
    assert plan.stride == 4
    assert [len(blocks) for blocks, _ in batches(kernel, plan)] == [4]


def test_batches_preserve_block_order(clustered_spec):
    plan = form_batches(clustered_spec, 2)
    flat = [b for blocks, _ in batches(clustered_spec, plan) for b in blocks]
    assert flat == enumerate_blocks(clustered_spec)


@settings(max_examples=30, deadline=None)
@given(blocks=st.integers(1, 24), stride=st.integers(1, 30))
def test_block_i_is_in_batch_i_over_stride(blocks, stride):
    workload = clustered_rows_workload()
    workload["kernel"]["grid_dim"] = [blocks, 1]
    kernel, _ = load_workload(workload)
    plan = form_batches(kernel, stride)
    assert plan.stride == min(stride, blocks)
    written = batches(kernel, plan)
    for i, block in enumerate(enumerate_blocks(kernel)):
        assert block in written[i // plan.stride][0]


def test_page_sets_respect_base_addr():
    kernel, _ = load_workload(clustered_rows_workload(base_addr=64))
    plan = form_batches(kernel, 2)
    assert [pages for _, pages in batches(kernel, plan)] == [[2], [3]]


def test_histogram_exclusive(clustered_spec):
    plan = form_batches(clustered_spec, 2)
    hist = histogram(clustered_spec, plan, 32)
    assert hist["bins"] == {"0": 2}
    assert hist["total_pages"] == 2
    assert hist["exclusive_fraction"] == 1.0


def test_histogram_distance_one(clustered_spec):
    # stride 1 with 32-byte pages: each page is shared by two adjacent batches
    plan = form_batches(clustered_spec, 1)
    hist = histogram(clustered_spec, plan, 32)
    assert hist["bins"] == {"1": 2}


@settings(max_examples=30, deadline=None)
@given(blocks=st.integers(1, 24), stride=st.integers(1, 25),
       page_rows=st.sampled_from([1, 2, 4]))
def test_histogram_matches_brute_force(blocks, stride, page_rows):
    kernel, _ = load_workload({
        "kernel": {"name": "rand", "grid_dim": [blocks, 1],
                   "block_dim": [4, 1], "warp_size": 2, "matrices": [
                       {"base_addr": 0, "element_size": 4, "row_len": 4,
                        "mapping": "clustered", "accesses_per_thread": 1}]},
    })
    page = 16 * page_rows
    plan = form_batches(kernel, stride)
    hist = histogram(kernel, plan, page)
    # page-by-page scan, independent of the histogram implementation
    accessors = {}
    for i, blk in enumerate(enumerate_blocks(kernel)):
        for p in block_page_set(kernel, blk, page):
            accessors.setdefault(p, set()).add(i // plan.stride)
    expected = {}
    for p, owners in accessors.items():
        d = max(owners) - min(owners)
        expected[str(d)] = expected.get(str(d), 0) + 1
    assert hist["bins"] == expected
    assert hist["total_pages"] == len(accessors)
    assert sum(hist["bins"].values()) == hist["total_pages"]


def test_exclusive_fraction_nonincreasing_when_page_doubles(clustered_spec):
    # with the optimal stride at each size, bigger pages cannot get more
    # exclusive on these fixtures
    fracs = []
    for page in (16, 32, 64):
        stride, _ = profile_stride(clustered_spec, page)
        hist = histogram(clustered_spec,
                         form_batches(clustered_spec, stride), page)
        fracs.append(hist["exclusive_fraction"])
    assert fracs[0] >= fracs[1] >= fracs[2] or fracs == sorted(fracs)


def lane_accessors(spec, page_size, stride, zero_base) -> dict[int, set]:
    """Page -> the batches whose blocks touch it, block `i` in batch
    `i // stride`, from the lane model's page sets."""
    accessors = {}
    for i, blk in enumerate(enumerate_blocks(spec)):
        for p in lane_page_set(spec, blk, page_size, zero_base):
            accessors.setdefault(p, set()).add(i // stride)
    return accessors


# pages down to 8 bytes, so that elements wider than a page are drawn
PAGE_SIZES = st.sampled_from([8, 16, 32, 64, 256, 4096])


@settings(max_examples=200, deadline=None)
@given(spec=random_kernels(), page_size=PAGE_SIZES)
def test_profile_matches_a_page_by_page_search_over_every_candidate(
        spec, page_size):
    assume(any(m.accesses_per_thread for m in spec.matrices))
    best = None
    for stride in candidate_strides(spec):
        accessors = lane_accessors(spec, page_size, stride, zero_base=True)
        shared = sum(1 for batches in accessors.values() if len(batches) > 1)
        if best is None or shared < best[1]:
            best = (stride, shared, len(accessors))
    stride, shared, total = best
    formation = (Formation.FALLBACK if shared / total > FALLBACK_THRESHOLD
                 else Formation.FIXED_STRIDE)
    assert profile_stride(spec, page_size) == (stride, formation)


@settings(max_examples=200, deadline=None)
@given(spec=random_kernels(), page_size=PAGE_SIZES,
       stride=st.integers(1, 10))
def test_plan_histogram_matches_a_page_by_page_scan_at_declared_bases(
        spec, page_size, stride):
    assume(any(m.accesses_per_thread for m in spec.matrices))
    plan = form_batches(spec, stride)
    accessors = lane_accessors(spec, page_size, plan.stride, zero_base=False)
    expected = {}
    for owners in accessors.values():
        d = str(max(owners) - min(owners))
        expected[d] = expected.get(d, 0) + 1
    hist = histogram(spec, plan, page_size)
    assert hist["bins"] == expected
    assert list(hist["bins"]) == sorted(expected, key=int)
    assert hist["total_pages"] == len(accessors)
    assert hist["exclusive_fraction"] == expected.get("0", 0) / len(accessors)
