"""Host-speed benchmark of gmemsim on three workloads.

    python3 bench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

With --workload, one workload runs in this process for about S seconds and
the last line of standard output is one JSON object: `correct`, `attempted`
and `failed` simulations, and `metrics` by name with value and unit.  Without
--workload, every workload runs in its own process, one after another, and
the metrics are printed as a table.

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
is a separate run: it wraps the package's functions (see tracer.py), reports
per-layer counts and host times, and writes the per-function figures to
bench/out/.  Every simulation in either mode is checked (see checks.py); the
exit code is 1 if any simulation failed.

The timed figures are medians over repetitions spread across the run, so
that no single slow or fast phase of the host decides them, scaled by the
run's host speed (see hostspeed.py).  gmemsim is imported from the `src/`
directory next to this one, never from elsewhere.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

from checks import (check_simulation, count_log, energy_params,  # noqa: E402
                    expected_counts)
from hostspeed import NOMINAL_PROBE_S, probe, speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SETUP_ROUNDS, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"sim_cycles_per_s": "cycles/s",
                    "dram_requests_per_s": "req/s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


def import_gmemsim():
    """The checkout's gmemsim; exits with a message when there is none."""
    sys.path.insert(0, SRC)
    try:
        import gmemsim
        from gmemsim.config import config_from_dict
        from gmemsim.engine import World
    except ImportError as e:
        sys.exit(f"bench: cannot import gmemsim from {SRC}: {e}")
    where = os.path.dirname(os.path.abspath(gmemsim.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        sys.exit(f"bench: gmemsim was imported from {where}, not {SRC}")
    return config_from_dict, World


class Workload:
    """One workload's inputs, the counts its simulations must reproduce, and
    the checks that every simulation of it goes through."""

    def __init__(self, name: str, config: dict):
        self.config_from_dict, self.World = import_gmemsim()
        self.name = name
        self.config = config
        hw = self.config_from_dict(config).hardware
        self.expected = expected_counts(config["workload"]["kernel"],
                                        hw.l1.line_bytes)
        self.energy_params = energy_params(hw)
        self.cpu = config["workload"].get("cpu_traffic")
        self.reference: str | None = None

    def setup(self):
        """Config dict to constructed World: the span setup_s measures."""
        return self.World(self.config_from_dict(self.config))

    def check(self, world, report) -> list[str]:
        problems = check_simulation(self.expected, vars(report),
                                    count_log(world.log), self.energy_params,
                                    self.cpu)
        text = report.to_json()
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("report differs from the run's first report")
        return problems


def simulate(wl: Workload, setup_rounds: int) -> dict:
    """One simulation: `setup_rounds` timed setups, the last of which is
    run, between two host-speed probes.  Returns the raw timings, the
    probe times, the report and World, and the check failures."""
    gc.collect()
    probe_before = probe()
    setups = []
    for _ in range(setup_rounds):
        world = None  # drop the previous World before building the next
        t0 = time.perf_counter()
        world = wl.setup()
        setups.append(time.perf_counter() - t0)
    gc.collect()
    t0 = time.perf_counter()
    report = world.run()
    run_s = time.perf_counter() - t0
    out = {"setup_s": setups, "run_s": run_s,
           "probes": [probe_before, probe()],
           "report": report, "world": world}
    out["problems"] = wl.check(world, report)
    return out


def attempt(wl: Workload, tracer: Tracer | None = None) -> dict | None:
    """A simulation, or None when it raised or failed a check."""
    try:
        if tracer is None:
            sim = simulate(wl, SETUP_ROUNDS[wl.name])
        else:
            with tracer.installed():
                sim = simulate(wl, 1)
    except Exception as e:  # a failed simulation is counted, not fatal
        print(f"bench: {wl.name}: simulation raised {type(e).__name__}: {e}",
              file=sys.stderr)
        return None
    if sim["problems"]:
        for p in sim["problems"]:
            print(f"bench: {wl.name}: check failed: {p}", file=sys.stderr)
        return None
    return sim


def rounds(seconds: float, minimum: int):
    """Round numbers 0, 1, ... for about `seconds`: stop before a round that
    would, at the mean length of the rounds so far, end later than that, but
    not before `minimum` rounds."""
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if n >= minimum and elapsed + elapsed / n > seconds:
            return
        yield n
        n += 1


def measure(wl: Workload, seconds: float, min_sims: int = 3) -> dict:
    """End-to-end metrics from repeated untraced simulations."""
    attempted = failed = 0
    setups, cycle_rates, request_rates, probes = [], [], [], []
    for _ in rounds(seconds, min_sims):
        attempted += 1
        sim = attempt(wl)
        if sim is None:
            failed += 1
            continue
        report = sim["report"]
        setups.extend(sim["setup_s"])
        cycle_rates.append(report.cycles / sim["run_s"])
        request_rates.append(report.total_accesses / sim["run_s"])
        probes.extend(sim["probes"])
        del sim, report
    metrics = {}
    if cycle_rates:
        host = speed(probes)
        cycles_per_s = statistics.median(cycle_rates)
        setup_s = statistics.median(setups)
        metrics = {
            "sim_cycles_per_s": cycles_per_s / host,
            "dram_requests_per_s": statistics.median(request_rates) / host,
            "setup_s": setup_s * host,
        }
        print(f"{wl.name:8s} host speed {host:.3f} of nominal; unscaled "
              f"sim_cycles_per_s {cycles_per_s:.6g}, setup_s {setup_s:.6g}")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def layer_metrics(wl: Workload, stats: dict, sim: dict) -> dict:
    """Per-layer metrics of one traced simulation: (value, unit) by name."""
    report, world = sim["report"], sim["world"]

    def calls(name):
        return stats[name].calls

    def total(name):
        return stats[name].total

    def ratio(num, den):
        return num / den if den else 0.0

    cycles = report.cycles
    generated = len(world.cpu_stream)
    cpu_rate = wl.cpu["request_rate"] if wl.cpu else 0.0
    attempts = report.warp_instructions + report.issue_backpressure
    return {
        "workload.gen_block_trace_s": (total("workload.gen_block_trace"), "s"),
        "workload.lane_events": (wl.expected["lane_events"], "count"),
        "workload.gen_cpu_traffic_s": (total("workload.gen_cpu_traffic"), "s"),
        "workload.cpu_stream_used_ratio": (
            ratio(report.cpu_requests, generated), "ratio"),
        "workload.cpu_rate_delivered": (
            ratio(report.cpu_requests * 1000, cycles), "req/kcycle"),
        "workload.cpu_rate_configured": (float(cpu_rate), "req/kcycle"),
        "batching.profile_stride_s": (total("batching.profile_stride"), "s"),
        "batching.form_batches_s": (total("batching.form_batches"), "s"),
        "memmap.translate_calls": (calls("memmap.translate"), "count"),
        "memmap.translate_s": (total("memmap.translate"), "s"),
        "memmap.lanes_per_translate": (
            ratio(wl.expected["lane_events"], calls("memmap.translate")),
            "ratio"),
        "engine.l1_calls": (calls("engine.l1"), "count"),
        "engine.l1_s": (total("engine.l1"), "s"),
        "engine.issue_retry_ratio": (
            ratio(report.issue_backpressure, attempts), "ratio"),
        "engine.step_calls": (calls("engine.step"), "count"),
        "engine.step_s": (total("engine.step"), "s"),
        "engine.run_s": (sim["run_s"], "s"),
        "engine.run_self_s": (stats["engine.run"].self_time, "s"),
        "engine.skipped_cycle_ratio": (
            ratio(cycles - calls("engine.step"), cycles), "ratio"),
        "sched.select_warp_calls": (calls("sched.select_warp"), "count"),
        "sched.select_warp_s": (total("sched.select_warp"), "s"),
        "sched.has_issuable_s": (total("sched.has_issuable"), "s"),
        "dram.mc_pick_calls": (calls("dram.mc_pick"), "count"),
        "dram.mc_pick_s": (total("dram.mc_pick"), "s"),
        "dram.mc_pick_idle_ratio": (
            ratio(stats["dram.mc_pick"].none_returns, calls("dram.mc_pick")),
            "ratio"),
        "dram.bank_advance_calls": (calls("dram.bank_advance"), "count"),
        "metrics.compute_metrics_s": (total("metrics.compute_metrics"), "s"),
        "metrics.logged_requests": (len(world.log), "count"),
        "engine.sim_cycles": (cycles, "cycles"),
        "engine.ipc": (report.ipc_proxy, "inst/cycle"),
        "engine.reply_stalls": (report.reply_stalls, "count"),
        "dram.energy_total": (report.energy["total"], "energy"),
        "dram.rbhr": (report.rbhr, "ratio"),
        "dram.blp": (report.blp, "banks"),
        "memmap.local_ratio": (report.local_ratio, "ratio"),
    }


def measure_traced(wl: Workload, seconds: float, seed: int) -> dict:
    """Per-layer metrics from traced simulations, alternating with untraced
    ones.  The first simulation is untraced, so every traced report is
    checked byte for byte against an untraced one (see Workload.check).
    Counts come from the last traced simulation; host times are medians over
    the traced ones, scaled by the run's host speed, and the tracing overhead
    is the ratio of the median traced and untraced World.run times."""
    attempted = failed = 0
    untraced_s, per_sim, dumps, absent, probes = [], [], [], [], []
    for n in rounds(seconds, 2):
        attempted += 1
        tracer = Tracer() if n % 2 else None
        sim = attempt(wl, tracer)
        if sim is None:
            failed += 1
            continue
        probes.extend(sim["probes"])
        if tracer is None:
            untraced_s.append(sim["run_s"])
        else:
            absent = tracer.absent
            per_sim.append(layer_metrics(wl, tracer.stats, sim))
            dumps.append({name: s.as_dict()
                          for name, s in tracer.stats.items()})
        del sim
    metrics = {}
    if per_sim and untraced_s:
        host = speed(probes)
        for name, (value, unit) in per_sim[-1].items():
            if unit == "s":
                value = statistics.median(m[name][0] for m in per_sim) * host
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": (statistics.median(m["engine.run_s"][0]
                                        for m in per_sim)
                      / statistics.median(untraced_s)),
            "unit": "ratio"}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json"), "w") as f:
        json.dump({"workload": wl.name, "seed": seed,
                   "nominal_probe_s": NOMINAL_PROBE_S, "probe_s": probes,
                   "untraced_run_s": untraced_s, "absent": absent,
                   "simulations": dumps}, f, indent=1, sort_keys=True)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "absent": absent}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = Workload(name, WORKLOADS[name](seed))
    if trace:
        result = measure_traced(wl, seconds, seed)
        for target in result.pop("absent"):
            print(f"bench: {name}: {target} is absent; its layer reads 0")
    else:
        result = measure(wl, seconds)
    for metric, m in result["metrics"].items():
        print(f"{name:8s} {metric:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:8s} simulations attempted {result['attempted']}, "
          f"failed {result['failed']}")
    ok = result["failed"] == 0
    print(json.dumps({"correct": ok, **result}))
    return 0 if ok else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    status, merged = 0, {"correct": True, "attempted": 0, "failed": 0,
                         "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
