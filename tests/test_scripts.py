"""The scripts under scripts/ still run against the package."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tune_sched_fixture_measures_one_operating_point():
    tune = load_script("tune_sched_fixture")
    # blocks, threads, accesses, gap, drain, reply latency, tRCD, tRP, tCAS,
    # tBURST, ccws capacity
    res = tune.measure(4, 12, 2, 0, 1, 1, 6, 6, 4, 2, 2)
    # (activates, peak window requests, rbhr, cycles) per scheduler
    assert res == {s: (6, 18, 0.75, 212)
                   for s in ("ccws", "tbas_c", "tbas_d", "tbas_e")}
