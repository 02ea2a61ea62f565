"""Run configuration: policy selections plus hardware parameters.

Every run is fully determined by its config.  Timing and energy numbers
are configuration defaults chosen to be representative of a GDDR-like and a
DDR-like device; they are knobs, not measured ground truth, and experiments
should treat derived energy figures as relative.

A config file is a JSON object with the fields of RunConfig, `hardware`
holding those of HardwareConfig, and so on down; `gmemsim.loader` reads it
by the field annotations.  Types are strict: a count must be an integer
(not a float, a string or a boolean), a fraction a number, a policy one of
its enum's values.  Every field may be left out except `workload`.  A
partial `gddr`/`ddr` object (or a partial `layout`, `timing` or `energy`
inside it) overlays that pool's defaults field by field.

A numeric range is declared once, on its field, as inclusive `min`/`max`
metadata, and `RunConfig.validate` enforces every one of them through
`gmemsim.loader.check_bounds`.  The `validate` methods hold only the rules
that read more than one field or are not ranges.  Every message names the
field's dotted path: `config.hardware.reply.latency must be >= 0, not -1`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .dispatch import DispatchKind
from .dram import Arbitration, EnergyParams, TimingParams
from .loader import check_bounds, from_dict, strip_version
from .memmap import AddressLayout, PagePolicy, Pool
from .sched import SchedPolicy

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class L1Config:
    size_bytes: int = field(default=32768, metadata={"min": 0})
    assoc: int = 4
    line_bytes: int = field(default=128, metadata={"min": 1})

    def validate(self, where: str):
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"{where}.line_bytes must be a power of two, "
                             f"not {self.line_bytes}")
        # the shape of a disabled cache (size 0) is never read
        if self.size_bytes:
            if self.assoc < 1:
                raise ValueError(f"{where}.assoc must be >= 1 when size_bytes "
                                 f"is above 0, not {self.assoc}")
            if self.size_bytes % (self.assoc * self.line_bytes):
                raise ValueError(
                    f"{where}.size_bytes ({self.size_bytes}) must be a "
                    f"multiple of assoc * line_bytes "
                    f"({self.assoc * self.line_bytes})")


@dataclass(frozen=True)
class PoolConfig:
    layout: AddressLayout
    timing: TimingParams
    energy: EnergyParams


@dataclass(frozen=True)
class ReplyConfig:
    queue_capacity: int = field(default=64, metadata={"min": 1})
    drain_per_cycle: int = field(default=2, metadata={"min": 1})
    latency: int = field(default=2, metadata={"min": 0})


def default_gddr() -> PoolConfig:
    return PoolConfig(
        layout=AddressLayout(byte_offset_bits=6, column_bits=7, channel_bits=1,
                             bank_bits=4, row_bits=14, page_offset_bits=12),
        timing=TimingParams(tRCD=12, tRP=12, tCAS=12, tBURST=4),
        energy=EnergyParams(e_activate=15.0, e_read=4.0, e_write=4.0,
                            p_background=0.05),
    )


def default_ddr() -> PoolConfig:
    return PoolConfig(
        layout=AddressLayout(byte_offset_bits=6, column_bits=7, channel_bits=0,
                             bank_bits=3, row_bits=14, page_offset_bits=12),
        timing=TimingParams(tRCD=11, tRP=11, tCAS=11, tBURST=4),
        energy=EnergyParams(e_activate=10.0, e_read=3.0, e_write=3.0,
                            p_background=0.03),
    )


@dataclass(frozen=True)
class HardwareConfig:
    num_sms: int = field(default=8, metadata={"min": 1})
    max_blocks_per_sm: int = field(default=8, metadata={"min": 1})
    max_threads_per_sm: int = field(default=1536, metadata={"min": 1})
    running_set_warps: int = field(default=2, metadata={"min": 1})
    sufficient_active_threshold: int = field(default=1, metadata={"min": 1})
    l1: L1Config = field(default_factory=L1Config)
    gddr: PoolConfig = field(default_factory=default_gddr)
    ddr: PoolConfig = field(default_factory=default_ddr)
    reply: ReplyConfig = field(default_factory=ReplyConfig)
    mc_queue_capacity: int = field(default=64, metadata={"min": 1})
    starvation_cap: int = field(default=0, metadata={"min": 0})
    bw_ratio: tuple[int, int] = field(default=(2, 1), metadata={"min": 1})
    cpu_row_fraction: float = 0.5
    cpu_pool: Pool = Pool.DDR
    request_window: int = field(default=100, metadata={"min": 1})

    def validate(self, where: str, coloring: bool = False):
        if not 0.0 < self.cpu_row_fraction < 1.0:
            raise ValueError(f"{where}.cpu_row_fraction must lie strictly in "
                             f"(0, 1), not {self.cpu_row_fraction!r}")
        self.l1.validate(f"{where}.l1")
        self.gddr.layout.validate(f"{where}.gddr.layout", coloring=coloring)
        self.ddr.layout.validate(f"{where}.ddr.layout")
        page_bits = self.gddr.layout.page_offset_bits
        if self.ddr.layout.page_offset_bits != page_bits:
            raise ValueError(
                f"{where}.ddr.layout.page_offset_bits "
                f"({self.ddr.layout.page_offset_bits}) must equal "
                f"{where}.gddr.layout.page_offset_bits ({page_bits}): "
                "pools must share one page size")
        # the engine coalesces lanes by virtual line, which is exact only
        # when a line never spans two pages
        if self.l1.line_bytes > self.gddr.layout.page_size:
            raise ValueError(
                f"{where}.l1.line_bytes ({self.l1.line_bytes}) must not "
                f"exceed the page size ({self.gddr.layout.page_size})")


@dataclass(frozen=True)
class RunConfig:
    """One simulation run: the workload, the policies and the hardware.

    `seed` only labels the report: no random number is drawn from it, so
    two runs that differ only in `seed` simulate the same thing.  The
    inputs that do draw random numbers have their own seeds: the workload's
    `cpu_traffic.seed` (the CPU request stream) and `random_dispatch_seed`
    (the idle-SM order of interleaved dispatch).
    """

    workload: str | dict
    horizon: int = field(default=1_000_000, metadata={"min": 0})
    seed: int = 0
    dispatch: DispatchKind = DispatchKind.SERIAL
    allocator: PagePolicy = PagePolicy.COLORING
    scheduler: SchedPolicy = SchedPolicy.TBAS_E
    arbitration: Arbitration = Arbitration.FR_FCFS
    stride: int | None = field(default=None, metadata={"min": 1})
    random_dispatch_seed: int | None = None
    hardware: HardwareConfig = field(default_factory=HardwareConfig)

    @property
    def page_size(self) -> int:
        return self.hardware.gddr.layout.page_size

    def validate(self):
        """Check every declared bound, then the rules that read more than
        one field.  `World` calls this too, for configs built directly."""
        check_bounds(self, "config")
        coloring = self.allocator in (PagePolicy.COLORING, PagePolicy.COLORING_HETERO)
        self.hardware.validate("config.hardware", coloring=coloring)
        row_bits = self.hardware.gddr.layout.row_bits
        if self.allocator is PagePolicy.COLORING_HETERO and row_bits < 1:
            raise ValueError(
                "config.hardware.gddr.layout.row_bits must be >= 1 under "
                "coloring_hetero, which splits each bank's rows between the "
                f"GPU and the CPU, not {row_bits}")


def config_from_dict(obj: dict, base_dir: str | None = None) -> RunConfig:
    """A validated RunConfig; a relative workload path is taken from
    base_dir, the directory of the config file."""
    obj = strip_version(obj, "config", CONFIG_SCHEMA_VERSION)
    workload = obj.get("workload")
    if isinstance(workload, str) and base_dir is not None \
            and not os.path.isabs(workload):
        obj["workload"] = os.path.join(base_dir, workload)
    cfg = from_dict(RunConfig, obj, "config")
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path) as f:
        obj = json.load(f)
    return config_from_dict(obj, base_dir=os.path.dirname(os.path.abspath(path)))


def policies_dict(cfg: RunConfig) -> dict:
    return {
        "dispatch": cfg.dispatch.value,
        "allocator": cfg.allocator.value,
        "scheduler": cfg.scheduler.value,
        "arbitration": cfg.arbitration.value,
    }
