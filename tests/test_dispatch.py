import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmemsim.dispatch import Dispatcher, partition_blocks


def brute_force_split(sizes, num_sms):
    """Minimal max block load over all contiguous batch splits."""
    n = len(sizes)
    best = None
    for cuts in itertools.combinations(range(1, n), min(num_sms, n) - 1):
        bounds = [0, *cuts, n]
        loads = [sum(sizes[a:b]) for a, b in zip(bounds, bounds[1:])]
        best = min(best, max(loads)) if best is not None else max(loads)
    return best if best is not None else sum(sizes)


def greedy_fill(sizes, num_sms, cap):
    """Per-SM [head, tail) ranges in which each SM in turn takes whole
    batches while its load stays within `cap`."""
    ranges, head, i = [], 0, 0
    for _ in range(num_sms):
        tail, load = head, 0
        while i < len(sizes) and load + sizes[i] <= cap:
            load += sizes[i]
            tail += sizes[i]
            i += 1
        ranges.append([head, tail])
        head = tail
    return ranges


def batch_sizes(blocks, stride):
    """Sizes of consecutive `stride`-block chunks of `blocks` blocks."""
    return [len(range(blocks)[i:i + stride]) for i in range(0, blocks, stride)]


def test_even_split_on_batch_boundary():
    assert partition_blocks(8, 2, 2) == [[0, 4], [4, 8]]


def test_four_unit_batches_two_sms():
    assert partition_blocks(4, 2, 1) == [[0, 2], [2, 4]]


def test_three_batches_two_sms_matches_brute_force():
    ranges = partition_blocks(6, 2, 2)
    loads = [t - h for h, t in ranges]
    assert sorted(loads, reverse=True) == [4, 2]
    assert max(loads) == brute_force_split([2, 2, 2], 2)


@settings(max_examples=40, deadline=None)
@given(blocks=st.integers(1, 24), stride=st.integers(1, 6),
       num_sms=st.integers(1, 4))
def test_partition_matches_brute_force(blocks, stride, num_sms):
    sizes = batch_sizes(blocks, stride)
    ranges = partition_blocks(blocks, num_sms, stride)
    # contiguity and full coverage
    assert ranges[0][0] == 0 and ranges[-1][1] == blocks
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c
    even_share = -(-blocks // num_sms)
    if max(sizes) > even_share:
        # a single batch exceeds an even share: block-granular fallback
        loads = [t - h for h, t in ranges]
        assert max(loads) - min(loads) <= 1
        return
    # no batch straddles an SM boundary
    bounds = set()
    acc = 0
    for s in sizes:
        acc += s
        bounds.add(acc)
    for _, tail in ranges[:-1]:
        assert tail in bounds or tail == blocks
    # minimal max load at batch granularity, lower SM ids filled first
    cap = brute_force_split(sizes, num_sms)
    assert max(t - h for h, t in ranges) == cap
    assert ranges == greedy_fill(sizes, num_sms, cap)


def test_split_falls_back_when_batch_exceeds_even_share():
    ranges = partition_blocks(8, 2, 8)  # one batch of 8 blocks
    assert ranges == [[0, 4], [4, 8]]


def serial(total, num_sms, stride=1):
    """A dispatcher of the per-SM ranges that serial dispatch uses."""
    return Dispatcher(partition_blocks(total, num_sms, stride))


def interleaved(total, num_sms, seed=None):
    """A dispatcher whose SMs all share one range, as in interleaved
    dispatch."""
    return Dispatcher([[0, total]] * num_sms, seed=seed)


def test_queue_pop_sequence():
    d = Dispatcher([[4, 8]])
    assert d.next_block(0) == 4
    assert d.ranges[0][0] == 5
    assert [d.next_block(0) for _ in range(3)] == [5, 6, 7]
    assert not d.has_block(0)
    assert d.next_block(0) is None


def test_queue_empty_range():
    d = Dispatcher([[0, 3], [3, 3]])
    assert not d.has_block(1)
    assert d.next_block(1) is None


def test_serial_dispatcher_ranges():
    d = serial(8, 2, 4)
    assert d.ranges == [[0, 4], [4, 8]]
    # SMs pop from their own ranges, and serve in the order they come
    assert d.order_idle_sms([1, 0]) == [1, 0]
    assert (d.next_block(1), d.next_block(0)) == (4, 0)


def test_a_shared_range_hands_out_ids_in_order_to_any_sm():
    d = interleaved(4, 2)
    assert d.order_idle_sms([0, 1]) == [0, 1]
    assert [d.next_block(i % 2) for i in range(5)] == [0, 1, 2, 3, None]
    assert not d.has_block(0) and not d.has_block(1)


@settings(max_examples=50, deadline=None)
@given(ranges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                       min_size=1, max_size=4),
       seed=st.one_of(st.none(), st.integers(0, 9)),
       pops=st.lists(st.integers(0, 3), max_size=20))
def test_next_block_is_none_exactly_when_no_block_is_left(ranges, seed, pops):
    own = Dispatcher([[h, h + n] for h, n in ranges], seed=seed)
    shared = interleaved(sum(n for _, n in ranges), len(ranges), seed=seed)
    for d in (own, shared):
        for sm_id in pops:
            sm_id %= len(ranges)
            had = d.has_block(sm_id)
            assert (d.next_block(sm_id) is not None) == had


@settings(max_examples=50, deadline=None)
@given(total=st.integers(0, 24), num_sms=st.integers(1, 4),
       stride=st.integers(1, 6), seed=st.one_of(st.none(), st.integers(0, 9)),
       pops=st.lists(st.integers(0, 3), max_size=40))
def test_every_id_is_handed_out_exactly_once(total, num_sms, stride, seed,
                                             pops):
    # SMs ask in an arbitrary order, then each drains what is left for it
    for d in (serial(total, num_sms, stride), interleaved(total, num_sms, seed)):
        handed = [d.next_block(sm_id % num_sms) for sm_id in pops]
        for sm_id in range(num_sms):
            while d.has_block(sm_id):
                handed.append(d.next_block(sm_id))
        assert sorted(i for i in handed if i is not None) == list(range(total))


@given(idle=st.permutations(range(6)))
def test_only_a_seeded_dispatcher_shuffles_the_idle_sms(idle):
    assert interleaved(8, 6).order_idle_sms(list(idle)) == idle
    assert serial(8, 6).order_idle_sms(list(idle)) == idle
    assert sorted(interleaved(8, 6, seed=5).order_idle_sms(list(idle))) \
        == list(range(6))


def test_interleaved_seeded_mode_is_reproducible():
    a = interleaved(8, 3, seed=5)
    b = interleaved(8, 3, seed=5)
    assert a.order_idle_sms([0, 1, 2]) == b.order_idle_sms([0, 1, 2])


def test_single_sm_gets_everything():
    assert partition_blocks(6, 1, 2) == [[0, 6]]


def test_more_sms_than_batches_leaves_empties():
    ranges = partition_blocks(2, 4, 1)
    assert ranges[0] == [0, 1]
    assert ranges[1] == [1, 2]
    assert ranges[2] == [2, 2] and ranges[3] == [2, 2]
