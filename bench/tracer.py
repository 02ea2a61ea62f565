"""Per-function call counts and host time, measured from outside gmemsim.

A `Tracer` replaces named functions and methods with timing wrappers for the
duration of a `with tracer.installed():` block and restores them on exit.
Per layer name it keeps, in memory, the call count, total time, self time
(total minus the time of traced callees) and the number of calls that
returned None.  A target that can no longer be found is listed in `absent`
and reads as zero; the run goes on without it.

Targets are wrapped where the engine looks them up: `gmemsim.engine`
imports gen_block_trace, gen_cpu_traffic, profile_stride, form_batches,
mc_pick, bank_advance and compute_metrics by name, so those are replaced in
the engine's namespace, not in their home modules.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# layer name -> "module:attribute.path" targets whose calls it sums
TARGETS = {
    "workload.gen_block_trace": ["gmemsim.engine:gen_block_trace"],
    "workload.gen_cpu_traffic": ["gmemsim.engine:gen_cpu_traffic"],
    "batching.profile_stride": ["gmemsim.engine:profile_stride"],
    "batching.form_batches": ["gmemsim.engine:form_batches"],
    "memmap.translate": ["gmemsim.memmap:PageTable.translate"],
    "engine.l1": ["gmemsim.engine:L1Cache.lookup",
                  "gmemsim.engine:L1Cache.fill"],
    "engine.run": ["gmemsim.engine:World.run"],
    "engine.step": ["gmemsim.engine:World.step"],
    "engine.report": ["gmemsim.engine:World._report"],
    "sched.select_warp": ["gmemsim.sched:CcwsScheduler.select_warp",
                          "gmemsim.sched:TbasScheduler.select_warp"],
    "sched.has_issuable": ["gmemsim.sched:CcwsScheduler.has_issuable",
                           "gmemsim.sched:TbasScheduler.has_issuable"],
    "dram.mc_pick": ["gmemsim.engine:mc_pick"],
    "dram.bank_advance": ["gmemsim.engine:bank_advance"],
    "metrics.compute_metrics": ["gmemsim.engine:compute_metrics"],
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "none_returns")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.none_returns = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "none_returns": self.none_returns}


def _resolve(target: str):
    """(owner, attribute name, current value), or None when any part of the
    path is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # a class's own dict, so an inherited method is never shadowed
    space = vars(owner)
    if attr not in space or not callable(space[attr]):
        return None
    return owner, attr, space[attr]


class Tracer:
    def __init__(self, targets: dict[str, list[str]] = TARGETS):
        self.targets = targets
        self.stats = {name: Stat() for name in targets}
        self.absent: list[str] = []
        # child-time accumulators of the traced calls now on the stack
        self._stack = [0.0]

    def _wrapper(self, fn, stat: Stat):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
            if result is None:
                stat.none_returns += 1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name, targets in self.targets.items():
                for target in targets:
                    found = _resolve(target)
                    if found is None:
                        self.absent.append(target)
                        continue
                    owner, attr, fn = found
                    setattr(owner, attr, self._wrapper(fn, self.stats[name]))
                    undo.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)
