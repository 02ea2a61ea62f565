"""Tests of the benchmark's own arithmetic, checks and tracer."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gmemsim.config import config_from_dict  # noqa: E402
from gmemsim.engine import World  # noqa: E402
from gmemsim.workload import kernel_from_dict, owned_element  # noqa: E402


def _kernel(grid, block, warp, matrices):
    return {"name": "tiny", "grid_dim": grid, "block_dim": block,
            "warp_size": warp, "matrices": matrices}


def _mat(base, size, row_len, mapping, accesses=1, read_fraction=1.0):
    return {"base_addr": base, "element_size": size, "row_len": row_len,
            "mapping": mapping, "accesses_per_thread": accesses,
            "read_fraction": read_fraction}


def test_lines_interleaved_warp_spans_two_rows():
    # 2x1 grid of 4x2 blocks, one 8-lane warp per block, 8-wide matrix of
    # 4-byte elements, 16-byte lines.  Block 0's warp covers row 0 cols 0-3
    # (bytes 0-15, line 0) and row 1 cols 0-3 (bytes 32-47, line 2); block
    # 1's covers lines 1 and 3.
    k = _kernel([2, 1], [4, 2], 8, [_mat(0, 4, 8, "interleaved")])
    got = checks.expected_counts(k, line_bytes=16)
    assert got == {"warp_instructions": 2, "lane_events": 16,
                   "l1_lookups": 4, "read_lines": 4, "write_lines": 0,
                   "distinct_read_lines": 4}


def test_lines_clustered_partial_last_warp():
    # 2x1 grid of 6-thread blocks, 4-lane warps: each block has a full warp
    # and a 2-lane one.  8-byte elements, 32-byte lines.
    # block 0: elems 0-3 -> line 0; elems 4-5 -> line 1
    # block 1: elems 6-9 (bytes 48-79) -> lines 1, 2; elems 10-11 -> line 2
    k = _kernel([2, 1], [6, 1], 4, [_mat(0, 8, 12, "clustered", accesses=2)])
    got = checks.expected_counts(k, line_bytes=32)
    assert got["warp_instructions"] == 2 * 2 * 2
    assert got["read_lines"] == 2 * (1 + 1 + 2 + 1)
    assert got["distinct_read_lines"] == 3
    assert got["lane_events"] == 12 * 2


def test_lines_written_matrix_counts_as_writes():
    k = _kernel([2, 1], [6, 1], 4, [_mat(0, 8, 12, "clustered"),
                                     _mat(4096, 8, 12, "clustered",
                                          read_fraction=0.0)])
    got = checks.expected_counts(k, line_bytes=32)
    assert got["read_lines"] == got["write_lines"] == 5
    assert got["l1_lookups"] == 10
    assert got["warp_instructions"] == 8


def test_mixed_read_fraction_is_refused():
    k = _kernel([1, 1], [4, 1], 4, [_mat(0, 4, 4, "clustered",
                                         read_fraction=0.5)])
    with pytest.raises(ValueError):
        checks.expected_counts(k)


@pytest.mark.parametrize("mapping", ["clustered", "interleaved"])
def test_thread_element_agrees_with_the_package(mapping):
    k = _kernel([3, 2], [5, 3], 4, [_mat(0, 4, 15, mapping)])
    spec = kernel_from_dict(k)
    for bx in range(3):
        for by in range(2):
            for tx in range(5):
                for ty in range(3):
                    assert checks.thread_element(
                        k, k["matrices"][0], (bx, by), tx, ty) == \
                        owned_element(spec, spec.matrices[0], (bx, by, 0),
                                      tx, ty)


SMALL = {"stencil": {"grid": 2}, "corun": {"blocks": 4},
         "compute": {"grid": 2}}


@pytest.fixture(scope="module")
def simulations():
    """One small simulation of each workload, with what its checks need."""
    out = {}
    for name, size in SMALL.items():
        wl = run.Workload(name, workloads.WORKLOADS[name](3, **size))
        world = wl.setup()
        out[name] = {"wl": wl, "report": world.run(),
                     "log": checks.count_log(world.log)}
    return out


def _check(sim, report=None, log=None):
    wl = sim["wl"]
    return checks.check_simulation(
        wl.expected, report or vars(sim["report"]), log or sim["log"],
        wl.energy_params, wl.cpu)


@pytest.mark.parametrize("name", list(SMALL))
def test_small_workloads_pass_every_check(simulations, name):
    assert _check(simulations[name]) == []


def _doctor(report: dict, **changes) -> dict:
    out = json.loads(json.dumps(report))
    for key, value in changes.items():
        if "." in key:
            outer, inner = key.split(".")
            out[outer][inner] = value(out[outer][inner])
        else:
            out[key] = value(out[key])
    return out


DOCTORED = {
    "truncated": ({"truncated": lambda v: True}, "truncated"),
    "warp_instructions": ({"warp_instructions": lambda v: v + 1},
                          "warp_instructions"),
    "l1": ({"l1_hits": lambda v: v + 1}, "l1_hits + l1_misses"),
    "reads": ({"reads": lambda v: v + 1}, "reads + writes"),
    "row_hits": ({"row_hits": lambda v: v - 1}, "row_hits + activates"),
    "gpu_requests": ({"gpu_requests": lambda v: v + 1},
                     "gpu_requests + cpu_requests"),
    "energy_total": ({"energy.total": lambda v: v * 1.001}, "energy.total"),
    "energy_activate": ({"energy.activate": lambda v: v + 15.0},
                        "energy.activate"),
    "background": ({"cycles": lambda v: v + 1}, "energy.background"),
}


@pytest.mark.parametrize("case", list(DOCTORED))
def test_doctored_report_fails_its_check(simulations, case):
    sim = simulations["corun"]
    changes, needle = DOCTORED[case]
    problems = _check(sim, report=_doctor(vars(sim["report"]), **changes))
    assert any(needle in p for p in problems), problems


def test_doctored_dram_counts_fail(simulations):
    sim = simulations["stencil"]
    exp = sim["wl"].expected
    too_few = dict(sim["log"], gpu_reads=exp["distinct_read_lines"] - 1)
    too_many = dict(sim["log"], gpu_reads=exp["read_lines"] + 1)
    lost_write = dict(sim["log"], gpu_writes=exp["write_lines"] - 1)
    for log, needle in ((too_few, "GPU DRAM reads"),
                        (too_many, "GPU DRAM reads"),
                        (lost_write, "GPU DRAM writes")):
        assert any(needle in p for p in _check(sim, log=log))


def test_doctored_cpu_requests_fail(simulations):
    sim = simulations["corun"]
    r, cpu = vars(sim["report"]), sim["wl"].cpu
    limit = checks.cpu_request_limit(cpu["request_rate"], cpu["burstiness"],
                                     r["cycles"])
    for cpu in (0, int(limit) + 1):
        doctored = _doctor(r, cpu_requests=lambda v, c=cpu: c,
                           gpu_requests=lambda v, c=cpu: r["total_accesses"] - c)
        assert any("cpu_requests" in p for p in _check(sim, report=doctored))
    stencil = simulations["stencil"]
    doctored = _doctor(vars(stencil["report"]), cpu_requests=lambda v: 1)
    assert any("without CPU traffic" in p
               for p in _check(stencil, report=doctored))


def test_changed_report_between_repetitions_fails():
    wl = run.Workload("stencil", workloads.stencil(0, grid=2))
    world = wl.setup()
    report = world.run()
    assert wl.check(world, report) == []
    assert wl.check(world, report) == []
    report.ipc_proxy += 1e-12
    assert "report differs from the run's first report" in \
        wl.check(world, report)


def test_seed_reaches_the_random_inputs():
    a, b = workloads.corun(1), workloads.corun(2)
    assert a["workload"]["cpu_traffic"]["seed"] == 1
    assert b["workload"]["cpu_traffic"]["seed"] == 2
    assert workloads.compute(7)["random_dispatch_seed"] == 7
    assert workloads.stencil(1) == workloads.stencil(2)


def _small_world():
    return World(config_from_dict(workloads.corun(5, blocks=4)))


def test_traced_report_is_byte_identical():
    untraced = _small_world().run().to_json()
    t = tracer.Tracer()
    with t.installed():
        traced = _small_world().run().to_json()
    assert traced == untraced
    assert t.absent == []
    for name in ("engine.run", "engine.step", "memmap.translate",
                 "workload.gen_block_trace", "workload.gen_cpu_traffic",
                 "dram.mc_pick", "dram.bank_advance", "sched.select_warp",
                 "metrics.compute_metrics", "batching.profile_stride"):
        assert t.stats[name].calls > 0, name
    run_stat = t.stats["engine.run"]
    assert 0 < run_stat.self_time < run_stat.total


def test_tracer_restores_the_package_even_after_an_error():
    import gmemsim.engine as engine
    import gmemsim.memmap as memmap

    before = (engine.mc_pick, memmap.PageTable.translate, engine.World.step)
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert engine.mc_pick is not before[0]
            raise RuntimeError("boom")
    assert (engine.mc_pick, memmap.PageTable.translate,
            engine.World.step) == before


def test_missing_function_is_reported_absent():
    targets = {
        "engine.step": ["gmemsim.engine:World.step"],
        "gone.function": ["gmemsim.engine:no_such_function"],
        "gone.class": ["gmemsim.engine:NoSuchClass.method"],
        "gone.module": ["gmemsim.no_such_module:f"],
    }
    t = tracer.Tracer(targets)
    with t.installed():
        report = _small_world().run()
    assert not report.truncated
    assert sorted(t.absent) == sorted(
        ["gmemsim.engine:no_such_function",
         "gmemsim.engine:NoSuchClass.method", "gmemsim.no_such_module:f"])
    assert t.stats["engine.step"].calls > 0
    assert t.stats["gone.function"].calls == 0


def _declared(kind):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    wl = run.Workload("compute", workloads.compute(4, grid=2))
    result = run.measure(wl, seconds=0.0, min_sims=2)
    assert (result["attempted"], result["failed"]) == (2, 0)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    wl = run.Workload("corun", workloads.corun(5, blocks=4))
    result = run.measure_traced(wl, seconds=0.0, seed=5)
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert result["absent"] == []
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    dump = json.loads((tmp_path / "trace-corun-seed5.json").read_text())
    assert len(dump["simulations"]) == 1


def test_rounds_runs_the_minimum_even_without_time():
    assert list(run.rounds(0.0, 3)) == [0, 1, 2]


def test_probe_times_the_host():
    assert 0 < hostspeed.probe() < 10


def test_speed_follows_the_median_probe():
    nominal = hostspeed.NOMINAL_PROBE_S
    assert hostspeed.speed([nominal]) == 1.0
    # one slow outlier does not move the median
    twice = hostspeed.speed([nominal / 2, nominal / 2, nominal * 9])
    assert twice == pytest.approx(2 ** hostspeed.SENSITIVITY)
