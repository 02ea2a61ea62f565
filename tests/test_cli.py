"""The command line: exit codes of `run`, `validate`, `profile` and
`compare`, and the messages of malformed input."""

import copy
import csv
import dataclasses
import json
import math
import typing
from collections import Counter

import pytest

from conftest import (interleaved_grid_workload, one_page_workload,
                      small_hardware)
from gmemsim.batching import plan_to_dict
from gmemsim.cli import (EXIT_FAULT, EXIT_INVALID, EXIT_OK, EXIT_TRUNCATED,
                         _overlay, main)
from gmemsim.config import RunConfig, config_from_dict
from gmemsim.engine import SimulationFault, World
from gmemsim.sched import TbasScheduler
from gmemsim.workload import CpuTrafficSpec, KernelSpec


def base_config() -> dict:
    workload = interleaved_grid_workload()
    workload["cpu_traffic"] = {"request_rate": 10,
                               "address_region": [4096, 8192]}
    return {"workload": workload, "horizon": 10_000,
            "hardware": small_hardware()}


def cpu_config() -> dict:
    """`base_config` with CPU requests dense enough that its run enqueues
    some (7, in 78 cycles) before the GPU finishes; `base_config`'s ends at
    cycle 30 with none."""
    config = base_config()
    config["workload"]["cpu_traffic"]["request_rate"] = 200
    return config


def write(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_exits_0_when_complete_and_2_when_truncated(tmp_path,
                                                         monkeypatch):
    # a relative workload path is read from the config's directory, and
    # with no --out the report goes to $GMEMSIM_OUT/report.json
    write(tmp_path / "workload.json", interleaved_grid_workload())
    config = dict(base_config(), workload="workload.json")
    path = write(tmp_path / "config.json", config)
    out = str(tmp_path / "report.json")
    monkeypatch.setenv("GMEMSIM_OUT", str(tmp_path))
    assert main(["run", "--config", path]) == EXIT_OK
    with open(out) as f:
        assert not json.load(f)["truncated"]
    path = write(tmp_path / "config.json", dict(config, horizon=5))
    assert main(["run", "--config", path, "--out", out]) == EXIT_TRUNCATED
    with open(out) as f:
        assert json.load(f)["truncated"]


def test_a_zero_horizon_run_exits_2_with_a_zero_cycle_report(tmp_path):
    # horizon 0 is in bounds: no cycle runs and no CPU stream is drawn
    path = write(tmp_path / "config.json", dict(cpu_config(), horizon=0))
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == \
        EXIT_TRUNCATED
    report = json.loads(out.read_text())
    assert report["truncated"] and report["degenerate"]
    assert report["cycles"] == report["warp_instructions"] == 0
    assert report["cpu_requests"] == report["total_accesses"] == 0
    for ratio in ("ipc_proxy", "rbhr", "blp", "mpki_proxy"):
        assert report[ratio] == 0.0, ratio


def test_run_trace_logs_the_cpu_requests(tmp_path):
    path = write(tmp_path / "config.json", cpu_config())
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out),
                 "--trace"]) == EXIT_OK
    report = json.loads(out.read_text())
    with open(tmp_path / "report_trace" / "requests.csv") as f:
        agents = Counter(row["agent"] for row in csv.DictReader(f))
    assert report["cpu_requests"] > 0
    assert agents == {"cpu": report["cpu_requests"],
                      "gpu": report["gpu_requests"]}


DELETE = object()


def _set(obj: dict, dotted: str, value):
    *parents, last = dotted.split(".")
    for key in parents:
        obj = obj.setdefault(key, {})
    if value is DELETE:
        del obj[last]
    else:
        obj[last] = value


MALFORMED = {
    "unknown key": ("bogus", 1, "unknown field(s) in config: ['bogus']"),
    "missing warp_size": ("workload.kernel.warp_size", DELETE,
                          "workload.kernel.warp_size is required"),
    "string num_sms": ("hardware.num_sms", "8",
                       "config.hardware.num_sms must be int, not '8'"),
    "integer bw_ratio": ("hardware.bw_ratio", 5,
                         "config.hardware.bw_ratio must be a list [int, int], "
                         "not 5"),
    "one-item bw_ratio": ("hardware.bw_ratio", [2],
                          "config.hardware.bw_ratio must be a list [int, "
                          "int], not [2]"),
    "integer matrices": ("workload.kernel.matrices", 5,
                         "workload.kernel.matrices must be a list of "
                         "MatrixMapping, not 5"),
    "3D grid_dim": ("workload.kernel.grid_dim", [2, 2, 2],
                    "workload.kernel.grid_dim: 3D shapes are not supported"),
    "integer grid_dim": ("workload.kernel.grid_dim", 4,
                         "workload.kernel.grid_dim must be a 1D or 2D "
                         "extent list"),
    "4-extent grid_dim": ("workload.kernel.grid_dim", [2, 2, 1, 1],
                          "workload.kernel.grid_dim must be a 1D or 2D "
                          "extent list"),
    "empty workload": ("workload", {}, "workload.kernel is required"),
    "string address_region": (
        "workload.cpu_traffic.address_region", "ab",
        "workload.cpu_traffic.address_region must be a list [int, int], "
        "not 'ab'"),
    "float stride": ("stride", 2.5, "config.stride must be int or null"),
    "float tRCD": ("hardware.gddr.timing.tRCD", 1.5,
                   "config.hardware.gddr.timing.tRCD must be int, not 1.5"),
    "removed tRC": ("hardware.gddr.timing.tRC", 40,
                    "unknown field(s) in config.hardware.gddr.timing: "
                    "['tRC']"),
    "true horizon": ("horizon", True,
                     "config.horizon must be int, not True"),
    "unknown scheduler": ("scheduler", "fifo",
                          "config.scheduler must be one of ['ccws', "),
    "zero request_window": (
        "hardware.request_window", 0,
        "config.hardware.request_window must be >= 1, not 0"),
    "negative request_window": (
        "hardware.request_window", -100,
        "config.hardware.request_window must be >= 1, not -100"),
    "negative starvation_cap": (
        "hardware.starvation_cap", -1,
        "config.hardware.starvation_cap must be >= 0, not -1"),
    "one-row bank split": (
        "hardware.gddr.layout.row_bits", 0,
        "config.hardware.gddr.layout.row_bits must be >= 1 under "
        "coloring_hetero"),
    # small_hardware's gddr layout has 9 bits below its rows, ddr 7
    "65-bit gddr address": (
        "hardware.gddr.layout.row_bits", 56,
        "config.hardware.gddr.layout spans 65 address bits"),
    "65-bit ddr address": (
        "hardware.ddr.layout.row_bits", 58,
        "config.hardware.ddr.layout spans 65 address bits"),
    # wide enough that splitting the rows under coloring_hetero overflows a
    # float, which ended in a traceback before the width was bounded
    "2009-bit gddr address": (
        "hardware.gddr.layout.row_bits", 2000,
        "config.hardware.gddr.layout spans 2009 address bits"),
}
# the other fields a case sets first, to make its field malformed
ALSO_SET = {"one-row bank split": {"allocator": "coloring_hetero"},
            "2009-bit gddr address": {"allocator": "coloring_hetero"}}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_names_the_malformed_field(case, tmp_path, capsys):
    key, value, message = MALFORMED[case]
    config = copy.deepcopy(base_config())
    for other, v in ALSO_SET.get(case, {}).items():
        _set(config, other, v)
    _set(config, key, value)
    path = write(tmp_path / "config.json", config)
    assert main(["validate", "--config", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_a_config_that_is_not_an_object_exits_3(tmp_path, capsys):
    path = write(tmp_path / "config.json", [])
    assert main(["validate", "--config", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "config must be an object, not []" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, bad", [("validate", "config.json"),
                                          ("validate", "workload.json"),
                                          ("compare", "exp.json"),
                                          ("compare", "base.json")])
def test_a_file_that_is_not_json_exits_3(command, bad, tmp_path, capsys):
    # each file the command reads: the config, the workload it names, the
    # experiment and its base config
    write(tmp_path / "workload.json", interleaved_grid_workload())
    write(tmp_path / "config.json",
          dict(base_config(), workload="workload.json"))
    write(tmp_path / "base.json", base_config())
    write(tmp_path / "exp.json", {"name": "sweep", "base_config": "base.json",
                                  "axes": {"scheduler": ["ccws"]}})
    (tmp_path / bad).write_text("{")
    args = (["validate", "--config", str(tmp_path / "config.json")]
            if command == "validate" else
            ["compare", "--experiment", str(tmp_path / "exp.json"),
             "--out", str(tmp_path / "out")])
    assert main(args) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: Expecting property name enclosed in "
                          "double quotes: line 1 column 2 (char 1)")
    assert "Traceback" not in err


# where each command writes, from the working directory: --out as a bare
# file name, else the experiment's out_dir, else under $GMEMSIM_OUT, else
# under out/
OUT_PATHS = {
    "run --out file name": (["run", "--out", "r.json"], {}, None, "r.json"),
    "profile --out file name": (["profile", "--out", "p.json"], {}, None,
                                "p.json"),
    "profile to $GMEMSIM_OUT": (["profile"], {}, "env",
                                "env/interleaved_grid_plan.json"),
    "compare to out_dir": (["compare"], {"out_dir": "cells"}, "env",
                           "cells/summary.csv"),
    "compare to out/": (["compare"], {}, None, "out/sweep/summary.csv"),
}


@pytest.mark.parametrize("case", sorted(OUT_PATHS))
def test_each_command_writes_where_its_out_paths_say(case, tmp_path,
                                                      monkeypatch):
    args, experiment, env, written = OUT_PATHS[case]
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("GMEMSIM_OUT", raising=False)
    else:
        monkeypatch.setenv("GMEMSIM_OUT", env)
    write(tmp_path / "config.json", base_config())
    write(tmp_path / "exp.json", {"name": "sweep", "base_config": "config.json",
                                  "axes": {"scheduler": ["ccws"]},
                                  **experiment})
    command, *rest = args
    source = (["--experiment", "exp.json"] if command == "compare"
              else ["--config", "config.json"])
    assert main([command, *source, *rest]) == EXIT_OK
    assert (tmp_path / written).is_file()


@pytest.mark.parametrize("pool, row_bits", [("gddr", 55), ("ddr", 57)])
def test_a_64_bit_address_layout_is_valid(pool, row_bits, tmp_path, capsys):
    # one physical address word holds every field of the layout
    config = copy.deepcopy(base_config())
    _set(config, "allocator", "coloring_hetero")
    _set(config, f"hardware.{pool}.layout.row_bits", row_bits)
    path = write(tmp_path / "config.json", config)
    assert main(["validate", "--config", path]) == EXIT_OK, \
        capsys.readouterr().err


def declared_bounds(cls, path: str):
    """(dotted path, field type, "min" or "max", limit) for each bound that
    dataclass `cls` and the dataclasses nested in it declare; a tuple of
    dataclasses is entered at its first item."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp, where = hints[f.name], f"{path}.{f.name}"
        if typing.get_origin(tp) is tuple \
                and dataclasses.is_dataclass(typing.get_args(tp)[0]):
            yield from declared_bounds(typing.get_args(tp)[0], f"{where}[0]")
        elif dataclasses.is_dataclass(tp):
            yield from declared_bounds(tp, where)
        for side in ("min", "max"):
            if side in f.metadata:
                yield where, tp, side, f.metadata[side]


BOUNDS = [*declared_bounds(RunConfig, "config"),
          *declared_bounds(KernelSpec, "workload.kernel"),
          *declared_bounds(CpuTrafficSpec, "workload.cpu_traffic")]


def test_the_bound_walk_reaches_every_schema():
    paths = {path for path, *_ in BOUNDS}
    for path in ("config.horizon", "config.hardware.reply.latency",
                 "config.hardware.ddr.energy.p_background",
                 "workload.kernel.matrices[0].read_fraction",
                 "workload.cpu_traffic.request_rate"):
        assert path in paths


def _set_path(config: dict, path: str, value):
    """Set the dotted `path` (its first part names the document) in config,
    adding the objects on the way; `name[0]` enters a list."""
    *parents, last = path.split(".")[1:]
    obj = config if path.startswith("config.") else config["workload"]
    for key in parents:
        name, _, index = key.partition("[")
        obj = obj.setdefault(name, {})
        if index:
            obj = obj[int(index.rstrip("]"))]
    obj[last] = value


@pytest.mark.parametrize("path, tp, side, limit", BOUNDS,
                         ids=[f"{p} {s}" for p, _, s, _ in BOUNDS])
def test_validate_rejects_one_step_past_each_declared_bound(
        path, tp, side, limit, tmp_path, capsys):
    # the bounds come from the field metadata, so one added later is
    # tested here too
    is_tuple = typing.get_origin(tp) is tuple
    step = 1e-6 if tp is float else 1
    value = limit - step if side == "min" else limit + step
    config = base_config()
    _set_path(config, path, [value, value] if is_tuple else value)
    assert main(["validate", "--config",
                 write(tmp_path / "config.json", config)]) == EXIT_INVALID
    err = capsys.readouterr().err
    relation = ">=" if side == "min" else "<="
    assert f"{path}{'[0]' if is_tuple else ''} must be {relation} {limit}, " \
        f"not {value!r}" in err
    assert "Traceback" not in err


FLOAT_BOUNDS = sorted({path for path, tp, *_ in BOUNDS if tp is float})


@pytest.mark.parametrize("path", FLOAT_BOUNDS)
def test_validate_rejects_nan_in_each_bounded_float(path, tmp_path, capsys):
    # json.load reads a bare NaN token, and NaN fails every comparison, so a
    # bound must be written to fail on it rather than to pass
    config = base_config()
    _set_path(config, path, float("nan"))
    assert main(["validate", "--config",
                 write(tmp_path / "config.json", config)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{path} must be >= " in err and "not nan" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("path", FLOAT_BOUNDS)
def test_validate_rejects_an_infinity_in_each_bounded_float(
        path, value, tmp_path, capsys):
    # json.dumps writes a bare Infinity token, which json.load reads back
    config = base_config()
    _set_path(config, path, value)
    assert main(["validate", "--config",
                 write(tmp_path / "config.json", config)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{path} must be finite, not {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path", FLOAT_BOUNDS)
def test_validate_rejects_an_oversized_int_in_each_bounded_float(
        path, tmp_path, capsys):
    # json.load reads an integer of any size, and a float field keeps an int
    # as given, so one too large for a float would overflow in the run
    config = base_config()
    _set_path(config, path, 10**400)
    assert main(["validate", "--config",
                 write(tmp_path / "config.json", config)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{path} must be finite, not {10**400!r}" in err
    assert "Traceback" not in err


def kernel_of_256_thread_blocks() -> dict:
    kernel = interleaved_grid_workload()["kernel"]
    kernel.update(block_dim=[16, 16], warp_size=32)
    kernel["matrices"][0]["row_len"] = 32
    return kernel


# configs that load but that World rejects before the first cycle, each
# beside the message `run` prints for it
REJECTED_BY_WORLD = {
    # a matrix that no thread accesses, or one wholly above the CPU region,
    # shares no page with it; the rejection names the matrix that does
    "a CPU region over the second matrix under coloring_hetero": (
        {"config.allocator": "coloring_hetero",
         "workload.kernel.matrices": [
             dict(interleaved_grid_workload()["kernel"]["matrices"][0],
                  base_addr=base, accesses_per_thread=accesses)
             for base, accesses in ((0, 0), (4096, 1), (0, 1))],
         "workload.cpu_traffic.address_region": [0, 2048]},
        "workload.cpu_traffic.address_region [0, 2048] shares pages with "
        "workload.kernel.matrices[2]"),
    "unaligned matrix base": (
        {"workload.kernel.matrices[0].base_addr": 100},
        "workload.kernel.matrices[0].base_addr (0x64) must be a multiple of "
        "the 32-byte page size"),
    "no memory access to profile": (
        {"workload.kernel.matrices[0].accesses_per_thread": 0},
        "workload.kernel issues no memory accesses"),
    # a fixed stride skips the profiler, which rejects a kernel with no
    # access too
    "no memory access at a fixed stride": (
        {"workload.kernel.matrices[0].accesses_per_thread": 0,
         "config.stride": 2},
        "workload.kernel issues no memory accesses"),
    "more SMs than GDDR banks": (
        {"config.hardware": {"num_sms": 40}},
        "config.hardware.num_sms (40) must not exceed the 32 GDDR banks, as "
        "each SM owns at least one"),
    "a block too wide for an SM": (
        {"workload.kernel": kernel_of_256_thread_blocks(),
         "config.hardware.max_threads_per_sm": 32},
        "config.hardware.max_threads_per_sm (32) must hold one block's 8 "
        "warps of 32 threads"),
    # before World rejected it, this run faulted at cycle 10 on a CPU
    # request to a page that an SM had placed in the GPU's rows
    "a CPU region over a matrix under coloring_hetero": (
        {"config.allocator": "coloring_hetero",
         "config.hardware.cpu_pool": "gddr",
         "workload.cpu_traffic.request_rate": 1000,
         "workload.cpu_traffic.address_region": [0, 2048]},
        "workload.cpu_traffic.address_region [0, 2048] shares pages with "
        "workload.kernel.matrices[0], whose elements start at bytes 0 to 60, "
        "but coloring_hetero keeps CPU and GPU pages in separate rows"),
}


@pytest.mark.parametrize("command", ["validate", "profile"])
@pytest.mark.parametrize("case", sorted(REJECTED_BY_WORLD))
def test_validate_rejects_what_run_rejects(case, command, tmp_path, capsys):
    # `validate` and `profile` build the World that `run` builds
    changes, message = REJECTED_BY_WORLD[case]
    config = base_config()
    for path, value in changes.items():
        _set_path(config, path, value)
    path = write(tmp_path / "config.json", config)
    plan = tmp_path / "plan.json"
    assert main([command, "--config", path, "--out", str(plan)]
                if command == "profile"
                else [command, "--config", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not plan.exists()
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("allocator, cpu_pool", [
    ("coloring_hetero", "gddr"), ("coloring_hetero", "ddr"),
    ("coloring", "gddr")])
@pytest.mark.parametrize("region", [[64, 128], [63, 128], [0, 33]])
def test_only_coloring_hetero_rejects_a_cpu_region_on_a_matrix_page(
        allocator, cpu_pool, region):
    # the matrix's 16 words fill the 32-byte pages 0 and 1.  Under
    # coloring_hetero with the CPU in DDR, a CPU request to a page an SM
    # placed in GDDR faults too, so the pool does not matter
    config = base_config()
    _set_path(config, "config.allocator", allocator)
    _set_path(config, "config.hardware.cpu_pool", cpu_pool)
    _set_path(config, "workload.cpu_traffic.address_region", region)
    cfg = config_from_dict(config)
    if allocator == "coloring_hetero" and region[0] < 64:
        with pytest.raises(ValueError, match=r"address_region \[.*\] shares "
                           r"pages with workload\.kernel\.matrices\[0\]"):
            World(cfg)
    else:
        World(cfg)


def test_validate_accepts_the_base_config(tmp_path):
    path = write(tmp_path / "config.json", base_config())
    assert main(["validate", "--config", path]) == EXIT_OK


def test_simulation_fault_exits_4(tmp_path, monkeypatch, capsys):
    def fault(self):
        raise SimulationFault(7, "injected")

    monkeypatch.setattr(World, "run", fault)
    path = write(tmp_path / "config.json", base_config())
    assert main(["run", "--config", path,
                 "--out", str(tmp_path / "r.json")]) == EXIT_FAULT
    assert "cycle 7: injected" in capsys.readouterr().err
    # a check inside the run may raise a bare AssertionError; a TBAS hook
    # the engine calls on every issue raises one here
    monkeypatch.undo()
    monkeypatch.setattr(TbasScheduler, "on_issue", failed_check)
    assert main(["run", "--config", path,
                 "--out", str(tmp_path / "r.json")]) == EXIT_FAULT
    err = capsys.readouterr().err
    assert "injected check" in err and "Traceback" not in err


def failed_check(self, warp):
    """`TbasScheduler.on_issue` made to fail; ccws cells never call it."""
    raise AssertionError("injected check")


def test_compare_records_a_cell_whose_engine_check_fails(
        tmp_path, monkeypatch, capsys):
    # the tbas_e cell's injected check fails; the sweep goes on, and
    # summary.csv lists that cell as failed
    monkeypatch.setattr(TbasScheduler, "on_issue", failed_check)
    write(tmp_path / "base.json", base_config())
    path = write(tmp_path / "exp.json", {
        "name": "sweep", "base_config": "base.json",
        "axes": {"scheduler": ["ccws", "tbas_e"]}})
    out = tmp_path / "out"
    assert main(["compare", "--experiment", path,
                 "--out", str(out)]) == EXIT_FAULT
    err = capsys.readouterr().err
    assert "cell scheduler-tbas_e failed: injected check" in err
    rows = (out / "summary.csv").read_text().splitlines()
    assert [(r.split(",")[0], r.split(",")[-1]) for r in rows[1:]] \
        == [("scheduler-ccws", "ok"), ("scheduler-tbas_e", "failed")]


# a sweep whose horizon -1 cells fail config validation
INVALID_CELL_AXES = {"horizon": [10_000, -1]}


@pytest.mark.parametrize("schedulers, code",
                         [(["ccws"], EXIT_INVALID),
                          (["ccws", "tbas_e"], EXIT_FAULT)],
                         ids=["invalid", "invalid-and-fault"])
def test_compare_exits_3_for_invalid_cells_and_4_for_a_fault(
        schedulers, code, tmp_path, monkeypatch, capsys):
    # the tbas_e cell at horizon 10,000 fails its injected check, and a
    # fault outranks an invalid cell
    monkeypatch.setattr(TbasScheduler, "on_issue", failed_check)
    write(tmp_path / "base.json", base_config())
    path = write(tmp_path / "exp.json", {
        "name": "sweep", "base_config": "base.json",
        "axes": dict(INVALID_CELL_AXES, scheduler=schedulers),
        "baseline": {"horizon": 10_000, "scheduler": "ccws"}})
    out = tmp_path / "out"
    assert main(["compare", "--experiment", path,
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "cell horizon--1__scheduler-ccws failed: config.horizon must be " \
        ">= 0, not -1" in err
    rows = [r.split(",") for r in
            (out / "summary.csv").read_text().splitlines()[1:]]
    assert {r[0]: r[-1] for r in rows} == {
        f"horizon-{h}__scheduler-{s}":
            "ok" if (h, s) == (10_000, "ccws") else "failed"
        for h in INVALID_CELL_AXES["horizon"] for s in schedulers}


def test_compare_rejects_a_baseline_that_names_no_cell_before_any_runs(
        tmp_path, capsys):
    # the default baseline sets only the scheduler, but every cell also
    # sets a horizon
    write(tmp_path / "base.json", base_config())
    path = write(tmp_path / "exp.json", {
        "name": "sweep", "base_config": "base.json",
        "axes": {"scheduler": ["ccws"], "horizon": [10_000, 20_000]}})
    out = tmp_path / "out"
    assert main(["compare", "--experiment", path,
                 "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "experiment.baseline {'scheduler': 'ccws'} names no cell: it " \
        "must set one value of each axis ['horizon', 'scheduler']" in err
    assert "Traceback" not in err and not out.exists()


def test_compare_exits_3_when_its_baseline_cell_fails(tmp_path, capsys):
    write(tmp_path / "base.json", base_config())
    path = write(tmp_path / "exp.json", {
        "name": "sweep", "base_config": "base.json",
        "axes": dict(INVALID_CELL_AXES, scheduler=["ccws"]),
        "baseline": {"horizon": -1, "scheduler": "ccws"}})
    out = tmp_path / "out"
    assert main(["compare", "--experiment", path,
                 "--out", str(out)]) == EXIT_INVALID
    assert "baseline cell horizon--1__scheduler-ccws failed; cannot " \
        "normalize" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("allocator", ["first_touch", "coloring"])
def test_pool_exhaustion_exits_3(allocator, tmp_path, capsys):
    # a 64 KiB matrix (16 pages) over a GDDR pool of one row of 4 banks of
    # 2 pages each (8 frames); the partial layout overlays the default one
    kernel = {"name": "big", "grid_dim": [8, 8], "block_dim": [16, 16],
              "warp_size": 32,
              "matrices": [{"base_addr": 0, "element_size": 4,
                            "row_len": 128, "mapping": "interleaved"}]}
    config = {"workload": {"kernel": kernel}, "allocator": allocator,
              "hardware": {"num_sms": 4, "gddr": {"layout": {
                  "channel_bits": 0, "bank_bits": 2, "row_bits": 0}}}}
    path = write(tmp_path / "config.json", config)
    assert main(["run", "--config", path,
                 "--out", str(tmp_path / "r.json")]) == EXIT_INVALID
    assert "gddr pool exhausted: every frame of rows [0, 1) is in use" \
        in capsys.readouterr().err


def test_profile_warns_of_a_fallback_plan(tmp_path, capsys):
    # the default hardware's 4096-byte pages: all 100 blocks share one
    config = {"workload": one_page_workload()}
    path = write(tmp_path / "config.json", config)
    out = tmp_path / "plan.json"
    assert main(["profile", "--config", path, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: no fixed stride suppresses page sharing well; plan marked "
        "fallback\n")
    plan = json.loads(out.read_text())
    assert (plan["stride"], plan["formation"]) == (1, "fallback")
    assert plan["sharing_histogram"]["exclusive_fraction"] == 0.0


def test_run_seed_changes_only_the_reports_seed(tmp_path):
    # the CPU stream draws from cpu_traffic.seed, not from the config's seed
    path = write(tmp_path / "config.json", cpu_config())
    plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
    assert main(["run", "--config", path, "--out", str(plain)]) == EXIT_OK
    assert main(["run", "--config", path, "--out", str(seeded),
                 "--seed", "7"]) == EXIT_OK
    plain, seeded = json.loads(plain.read_text()), json.loads(seeded.read_text())
    assert (plain["seed"], seeded["seed"]) == (0, 7)
    assert plain["cpu_requests"] and dict(plain, seed=7) == seeded


def test_profile_writes_the_plan(tmp_path):
    # 32-byte pages and a fixed stride, both read from the config
    config = dict(base_config(), stride=2)
    path = write(tmp_path / "config.json", config)
    out = tmp_path / "plan.json"
    assert main(["profile", "--config", path, "--out", str(out)]) == EXIT_OK
    plan = json.loads(out.read_text())
    world = World(config_from_dict(config))
    assert (plan["page_size"], plan["stride"]) == (32, 2)
    assert plan == plan_to_dict(world.kernel, world.plan, 32)
    # each batch holds one block-row, on a page of its own
    assert plan["sharing_histogram"] == {
        "bins": {"0": 2}, "total_pages": 2, "exclusive_fraction": 1.0}
    blocks = [tuple(b) for batch in plan["batches"] for b in batch["block_ids"]]
    assert blocks == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


def test_compare_output_is_reproducible(tmp_path):
    write(tmp_path / "base.json", base_config())
    write(tmp_path / "exp.json", {
        "name": "sweep", "base_config": "base.json",
        "axes": {"scheduler": ["ccws", "tbas_e"],
                 "allocator": ["first_touch", "coloring"]},
        "baseline": {"scheduler": "ccws", "allocator": "first_touch"}})
    tables = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["compare", "--experiment", str(tmp_path / "exp.json"),
                     "--out", str(out)]) == EXIT_OK
        tables.append((out / "summary.csv").read_bytes())
    assert tables[0] == tables[1]
    header = tables[0].decode().splitlines()[0].split(",")
    assert header[-1] == "status" and "timestamp" not in header
    # each energy component is normalised beside the total
    rows = {row["cell"]: row for row in
            csv.DictReader(tables[0].decode().splitlines())}
    baseline = rows["allocator-first_touch__scheduler-ccws"]
    for part in ("activate", "read_write", "background"):
        assert f"norm_energy_{part}" in header
        assert baseline[f"norm_energy_{part}"] == "1.0"


# a 2x2 sweep over a top-level and a nested field; 2-deep queues
# back-pressure base_config's issue, 64-deep ones never do
NESTED_AXES = {"scheduler": ["ccws", "tbas_e"],
               "hardware.mc_queue_capacity": [64, 2]}


def test_compare_sweeps_a_nested_field(tmp_path):
    write(tmp_path / "base.json", base_config())
    path = write(tmp_path / "exp.json", {
        "name": "sweep", "base_config": "base.json", "axes": NESTED_AXES,
        "baseline": {"scheduler": "ccws", "hardware.mc_queue_capacity": 2}})
    out = tmp_path / "out"
    assert main(["compare", "--experiment", path,
                 "--out", str(out)]) == EXIT_OK
    # the baseline cell reports what a run of its config reports
    config = dict(base_config(), scheduler="ccws")
    config["hardware"]["mc_queue_capacity"] = 2
    direct = tmp_path / "direct.json"
    assert main(["run", "--config", write(tmp_path / "config.json", config),
                 "--out", str(direct)]) == EXIT_OK
    base_cell = "hardware.mc_queue_capacity-2__scheduler-ccws"
    assert (out / f"{base_cell}.json").read_text() == direct.read_text()
    # cells that differ only in the nested field report differently
    for sched in NESTED_AXES["scheduler"]:
        deep, shallow = (json.loads((out / f"hardware.mc_queue_capacity-"
                                     f"{cap}__scheduler-{sched}.json")
                                    .read_text()) for cap in (64, 2))
        assert deep["issue_backpressure"] == 0 \
            < shallow["issue_backpressure"]


def test_a_compare_cell_leaves_the_base_config_as_it_was():
    base = base_config()
    before = copy.deepcopy(base)
    cell = _overlay(base, {"hardware.mc_queue_capacity": 2,
                           "hardware.reply.latency": 3, "scheduler": "tbas_e"})
    assert base == before
    assert cell["hardware"]["mc_queue_capacity"] == 2
    assert cell["hardware"]["reply"] == dict(before["hardware"]["reply"],
                                             latency=3)
    assert cell["hardware"]["l1"] == before["hardware"]["l1"]
    assert cell["scheduler"] == "tbas_e"
    # a path through an object the base config leaves out makes one
    assert _overlay({}, {"hardware.reply.latency": 3}) \
        == {"hardware": {"reply": {"latency": 3}}}


@pytest.mark.parametrize("axis, message", [
    ("hardware.mc_queue_capcity",
     "cell hardware.mc_queue_capcity-2__scheduler-ccws failed: unknown "
     "field(s) in config.hardware: ['mc_queue_capcity']"),
    ("horizon.cycles",
     "cell horizon.cycles-2__scheduler-ccws failed: experiment.axes."
     "horizon.cycles: config.horizon must be an object, not 10000"),
], ids=["unknown leaf", "through a non-object"])
def test_compare_names_a_bad_nested_axis(axis, message, tmp_path, capsys):
    write(tmp_path / "base.json", base_config())
    path = write(tmp_path / "exp.json", {
        "name": "sweep", "base_config": "base.json",
        "axes": {"scheduler": ["ccws"], axis: [2]},
        "baseline": {"scheduler": "ccws", axis: 2}})
    assert main(["compare", "--experiment", path,
                 "--out", str(tmp_path / "out")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


MALFORMED_EXPERIMENTS = {
    "axis value not a list": ({"axes": {"horizon": 100}},
                              "experiment.axes.horizon must be list, not 100"),
    "axes not an object": ({"axes": 5}, "experiment.axes must be dict, not 5"),
    "unsupported schema_version": (
        {"schema_version": 2}, "unsupported experiment schema_version 2"),
    "string max_cells": ({"max_cells": "9"},
                         "experiment.max_cells must be int, not '9'"),
    "empty axis": ({"axes": {"scheduler": []}},
                   "experiment.axes.scheduler must not be empty"),
    "no axis": ({"axes": {}}, "experiment.axes must name at least one field"),
    "more cells than max_cells": ({"max_cells": 1},
                                  "experiment has 2 cells, cap is 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_EXPERIMENTS))
def test_compare_names_the_malformed_experiment_field(case, tmp_path, capsys):
    change, message = MALFORMED_EXPERIMENTS[case]
    write(tmp_path / "base.json", base_config())
    exp = dict({"name": "sweep", "base_config": "base.json",
                "axes": {"scheduler": ["ccws", "tbas_e"]}}, **change)
    path = write(tmp_path / "exp.json", exp)
    assert main(["compare", "--experiment", path,
                 "--out", str(tmp_path / "out")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
