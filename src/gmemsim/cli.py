"""Command line runner: validate configs, execute runs, write batch plans,
and sweep policy comparisons into plot-ready CSV tables.

`validate`, `run` and `profile` each build the `World` of one config, so
they reject the same configs with the same message, and `profile` writes
the batch plan (stride, batches, page-sharing histogram) that `run`
follows: its page size and any fixed `stride` come from the config.

Exit codes: 0 ok, 2 run truncated at the horizon, 3 invalid input,
4 simulation fault.  `compare` exits 3 before any cell runs if its
baseline names no cell; otherwise it records each failed cell and goes on,
and exits 4 if any cell hit an engine check (an `AssertionError`), else 3
if any cell's input was invalid or unreadable, else 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys

from .batching import plan_to_dict
from .config import config_from_dict, load_config
from .engine import BANK_COUNTERS, World
from .loader import from_dict, strip_version
from .metrics import MetricsReport

EXIT_OK = 0
EXIT_TRUNCATED = 2
EXIT_INVALID = 3
EXIT_FAULT = 4

EXPERIMENT_SCHEMA_VERSION = 1

# metrics carried into comparison tables; ratios are taken against the
# baseline cell for each of these
SUMMARY_METRICS = ["ipc_proxy", "rbhr", "blp", "local_ratio",
                   "mean_access_delay", "reply_stalls", "energy_total",
                   "energy_activate", "energy_read_write",
                   "energy_background", "cpu_mean_delay"]


def _default_out() -> str:
    return os.environ.get("GMEMSIM_OUT", "out")


def _write_report(report: MetricsReport, path: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(report.to_json())


def _write_traces(world: World, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    # the MemoryRequest fields that requests.csv holds, a flag as 0 or 1
    fields = ["pool", "channel", "bank", "row", "column", "is_read", "agent",
              "sm_id", "warp_id", "batch_id", "t_arrival", "t_enqueue",
              "t_issue", "t_complete", "was_hit"]
    tables = [
        ("requests.csv", fields,
         ([int(v) if isinstance(v, bool) else v
           for v in (getattr(r, k) for k in fields)] for r in world.log)),
        ("dispatch.csv", ["cycle", "sm_id", "block_linear", "batch_id"],
         world.dispatch_log),
        ("issues.csv", ["cycle", "sm_id", "warp_id", "batch_id", "slot"],
         world.issue_log),
        ("pagetable.csv",
         ["vpn", "pool", "channel", "bank", "row", "owner_sm"],
         world.page_table.dump_rows()),
        ("banks.csv", ["pool", "channel", "bank", *BANK_COUNTERS],
         ([pool.value, ch, b, *(getattr(st, k) for k in BANK_COUNTERS)]
          for (pool, ch), q in world.mc_queues.items()
          for b, st in enumerate(q.banks))),
    ]
    for name, header, rows in tables:
        with open(os.path.join(out_dir, name), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    world = World(cfg, collect_issue_log=args.trace)
    report = world.run()
    out = args.out or os.path.join(_default_out(), "report.json")
    _write_report(report, out)
    if args.trace:
        _write_traces(world, os.path.splitext(out)[0] + "_trace")
    print(f"{report.workload}: cycles={report.cycles} "
          f"ipc={report.ipc_proxy:.4f} rbhr={report.rbhr:.4f} "
          f"blp={report.blp:.4f} local={report.local_ratio:.4f} "
          f"energy={report.energy.get('total', 0.0):.1f} -> {out}")
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def cmd_profile(args) -> int:
    # the World that `run` builds, so the plan is the one `run` follows
    world = World(load_config(args.config))
    kernel, plan = world.kernel, world.plan
    if plan.formation.value == "fallback":
        print("warning: no fixed stride suppresses page sharing well; "
              "plan marked fallback", file=sys.stderr)
    out = args.out or os.path.join(_default_out(), f"{kernel.name}_plan.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    payload = plan_to_dict(kernel, plan, world.cfg.page_size)
    with open(out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    exclusive = payload["sharing_histogram"]["exclusive_fraction"]
    print(f"{kernel.name}: stride={plan.stride} "
          f"formation={plan.formation.value} "
          f"batches={len(payload['batches'])} "
          f"exclusive={exclusive:.3f} -> {out}")
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A `compare` sweep: each combination of the axes' values laid over
    the base config is one cell, and each cell's metrics are divided by the
    baseline cell's.  An axis names a config field by its dotted path, so
    `hardware.mc_queue_capacity` sweeps a nested one.  base_config is read
    relative to the experiment file."""

    name: str
    base_config: str
    axes: dict[str, list]
    baseline: dict | None = None
    out_dir: str | None = None
    max_cells: int = 64


def _load_experiment(path: str) -> Experiment:
    with open(path) as f:
        obj = strip_version(json.load(f), "experiment", EXPERIMENT_SCHEMA_VERSION)
    exp = from_dict(Experiment, obj, "experiment")
    here = os.path.dirname(os.path.abspath(path))
    return dataclasses.replace(
        exp, base_config=os.path.join(here, exp.base_config))


def _experiment_cells(exp: Experiment) -> list[dict]:
    if not exp.axes:
        raise ValueError("experiment.axes must name at least one field")
    for key, values in exp.axes.items():
        if not values:
            raise ValueError(f"experiment.axes.{key} must not be empty")
    keys = sorted(exp.axes)
    cells = [dict(zip(keys, combo))
             for combo in itertools.product(*(exp.axes[k] for k in keys))]
    if len(cells) > exp.max_cells:
        raise ValueError(
            f"experiment has {len(cells)} cells, cap is {exp.max_cells}")
    return cells


def _cell_name(cell: dict) -> str:
    return "__".join(f"{k}-{cell[k]}" for k in sorted(cell))


def _overlay(base: dict, cell: dict) -> dict:
    """`base` with each of the cell's values laid at its dotted field path
    (`hardware.mc_queue_capacity`), copying every object on that path, so
    that no cell changes `base` or another cell."""
    out = dict(base)
    for key, value in cell.items():
        *parents, leaf = key.split(".")
        obj = out
        for i, part in enumerate(parents):
            sub = obj.get(part, {})
            if not isinstance(sub, dict):
                raise ValueError(f"experiment.axes.{key}: config."
                                 f"{'.'.join(parents[:i + 1])} must be an "
                                 f"object, not {sub!r}")
            obj[part] = dict(sub)
            obj = obj[part]
        obj[leaf] = value
    return out


def cmd_compare(args) -> int:
    exp = _load_experiment(args.experiment)
    with open(exp.base_config) as f:
        base_obj = json.load(f)
    base_dir = os.path.dirname(exp.base_config)
    cells = _experiment_cells(exp)
    baseline_cell = exp.baseline or {"scheduler": "ccws"}
    base_name = _cell_name(baseline_cell)
    if base_name not in map(_cell_name, cells):
        raise ValueError(
            f"experiment.baseline {baseline_cell} names no cell: it must "
            f"set one value of each axis {sorted(exp.axes)}")
    out_dir = args.out or exp.out_dir or os.path.join(_default_out(), exp.name)
    os.makedirs(out_dir, exist_ok=True)

    rows, failed, faulted = {}, {}, False
    for cell in cells:
        name = _cell_name(cell)
        try:
            cfg = config_from_dict(_overlay(base_obj, cell), base_dir=base_dir)
            world = World(cfg)
            report = world.run()
            _write_report(report, os.path.join(out_dir, f"{name}.json"))
            rows[name] = (cell, report.flat())
        except (ValueError, AssertionError, OSError) as e:
            failed[name] = str(e)
            faulted |= isinstance(e, AssertionError)
            print(f"cell {name} failed: {e}", file=sys.stderr)

    if base_name not in rows:
        print(f"baseline cell {base_name} failed; cannot normalize",
              file=sys.stderr)
        return EXIT_INVALID
    base_flat = rows[base_name][1]

    csv_path = os.path.join(out_dir, "summary.csv")
    cell_keys = sorted(cells[0])
    metric_keys = sorted(rows[base_name][1])
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        header = (["cell"] + cell_keys + metric_keys
                  + [f"norm_{m}" for m in SUMMARY_METRICS]
                  + ["status"])
        w.writerow(header)
        for name in sorted(set(rows) | set(failed)):
            if name in failed:
                w.writerow([name] + [""] * (len(header) - 2) + ["failed"])
                continue
            cell, flat = rows[name]
            norm = []
            for m in SUMMARY_METRICS:
                base_v = base_flat.get(m, 0)
                norm.append(flat.get(m, 0) / base_v if base_v else "")
            w.writerow([name] + [cell[k] for k in cell_keys]
                       + [flat[k] for k in metric_keys] + norm + ["ok"])
    print(f"{len(rows)} cells ok, {len(failed)} failed -> {csv_path}")
    if faulted:
        return EXIT_FAULT
    return EXIT_INVALID if failed else EXIT_OK


def cmd_validate(args) -> int:
    # the World that `run` builds, so every check `run` makes before its
    # first cycle is made here too
    cfg = World(load_config(args.config)).cfg
    print(f"{args.config}: ok "
          f"({cfg.dispatch.value}/{cfg.allocator.value}/"
          f"{cfg.scheduler.value}/{cfg.arbitration.value})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gmemsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one simulation run")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", help="report JSON path")
    run_p.add_argument(
        "--seed", type=int,
        help="override the config's seed, which only labels the report; "
             "the random inputs take theirs from the workload's "
             "cpu_traffic.seed and the config's random_dispatch_seed")
    run_p.add_argument("--trace", action="store_true",
                       help="also write request/dispatch/issue CSV traces")
    run_p.set_defaults(func=cmd_run)

    doc = ("write the batch plan that `run` follows for a config: its stride, "
           "batches and page-sharing histogram")
    prof_p = sub.add_parser("profile", help=doc, description=doc)
    prof_p.add_argument("--config", required=True)
    prof_p.add_argument("--out", help="plan JSON path")
    prof_p.set_defaults(func=cmd_profile)

    doc = ("run a policy-comparison sweep; exit 4 if any cell hit an engine "
           "check, else 3 if any cell was invalid, else 0")
    cmp_p = sub.add_parser("compare", help=doc, description=doc)
    cmp_p.add_argument("--experiment", required=True)
    cmp_p.add_argument("--out", help="output directory")
    cmp_p.set_defaults(func=cmd_compare)

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as e:  # a SimulationFault or another engine check
        print(f"simulation fault: {e}", file=sys.stderr)
        return EXIT_FAULT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
