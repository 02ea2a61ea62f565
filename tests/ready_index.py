"""The oracle of a scheduler's ready index: a rescan of the warps it holds.

The schedulers keep an index of their ready warps (a ready set under ccws, a
ready bitmask per batch under tbas_*) that the engine updates through their
hooks; `WarpState.is_ready` is what the index stands for.  The scheduler
tests call `assert_ready_index_matches_a_rescan`, and so does the engine's
rescan oracle in tests/test_engine.py after each step.
"""

from gmemsim.sched import CcwsScheduler


def assert_ready_index_matches_a_rescan(s, cycle: int):
    """Every warp `s` holds is indexed as ready exactly when it is ready at
    `cycle`, and its running set is one the policy allows."""
    if isinstance(s, CcwsScheduler):
        warps = s.running + s.pending
        assert len(s.running) <= s.capacity, "running set exceeds capacity"
        # each resident warp is running or pending, once; a finished warp is
        # forgotten, and only a warp held there can be ready
        assert len(set(warps)) == len(warps), "a warp is held twice"
        assert not any(w.finished for w in warps), "a finished warp is held"
        assert s.ready == {w for w in warps if w.is_ready(cycle)}, \
            "ready set disagrees with its warps"
        return
    for b, warps in s.batch_warps.items():
        assert all(w.batch_id == b for w in warps), \
            f"batch {b} holds another batch's warp"
        want = sum(1 << i for i, w in enumerate(warps) if w.is_ready(cycle))
        assert s.ready_mask[b] == want, \
            f"ready mask of batch {b} is {s.ready_mask[b]:#b}, " \
            f"its warps say {want:#b}"
        assert s.unfinished[b] == sum(not w.finished for w in warps), b
    # the running set is one batch, which has unfinished warps, and every
    # other batch with unfinished warps waits in the pending list, once
    b = s.running_batch
    assert b is None or s.unfinished[b] > 0, f"running batch {b} has finished"
    assert sorted(s.pending + ([] if b is None else [b])) \
        == sorted(x for x, n in s.unfinished.items() if n)
