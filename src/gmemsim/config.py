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
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .dispatch import DispatchKind
from .dram import Arbitration, EnergyParams, TimingParams
from .loader import from_dict, strip_version
from .memmap import AddressLayout, PagePolicy, Pool
from .sched import SchedPolicy

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class L1Config:
    size_bytes: int = 32768
    assoc: int = 4
    line_bytes: int = 128

    def validate(self):
        if self.line_bytes < 1 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("l1 line_bytes must be a power of two")
        if self.size_bytes < 0:
            raise ValueError("l1 size_bytes must be >= 0")
        if self.size_bytes:
            if self.assoc < 1:
                raise ValueError("l1 assoc must be >= 1")
            if self.size_bytes % (self.assoc * self.line_bytes):
                raise ValueError("l1 size must be a multiple of assoc*line")


@dataclass(frozen=True)
class PoolConfig:
    layout: AddressLayout
    timing: TimingParams
    energy: EnergyParams

    def validate(self, coloring: bool = False):
        self.layout.validate(coloring=coloring)
        self.timing.validate()
        self.energy.validate()


@dataclass(frozen=True)
class ReplyConfig:
    queue_capacity: int = 64
    drain_per_cycle: int = 2
    latency: int = 2

    def validate(self):
        if self.queue_capacity < 1:
            raise ValueError("reply queue_capacity must be >= 1")
        if self.drain_per_cycle < 1:
            raise ValueError("reply drain_per_cycle must be >= 1")
        if self.latency < 0:
            raise ValueError("reply latency must be >= 0")


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
    num_sms: int = 8
    max_blocks_per_sm: int = 8
    max_threads_per_sm: int = 1536
    running_set_warps: int = 2
    sufficient_active_threshold: int = 1
    l1: L1Config = field(default_factory=L1Config)
    gddr: PoolConfig = field(default_factory=default_gddr)
    ddr: PoolConfig = field(default_factory=default_ddr)
    reply: ReplyConfig = field(default_factory=ReplyConfig)
    mc_queue_capacity: int = 64
    starvation_cap: int = 0
    bw_ratio: tuple[int, int] = (2, 1)
    cpu_row_fraction: float = 0.5
    cpu_pool: Pool = Pool.DDR
    request_window: int = 100
    check_invariants: bool = True

    def validate(self, coloring: bool = False):
        if self.num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        if self.max_blocks_per_sm < 1:
            raise ValueError("max_blocks_per_sm must be >= 1")
        if self.max_threads_per_sm < 1:
            raise ValueError("max_threads_per_sm must be >= 1")
        if self.running_set_warps < 1:
            raise ValueError("running_set_warps must be >= 1")
        if self.sufficient_active_threshold < 1:
            raise ValueError("sufficient_active_threshold must be >= 1")
        if self.mc_queue_capacity < 1:
            raise ValueError("mc_queue_capacity must be >= 1")
        if self.starvation_cap < 0:
            raise ValueError("starvation_cap must be >= 0")
        if self.request_window < 1:
            raise ValueError("request_window must be >= 1")
        if self.bw_ratio[0] < 1 or self.bw_ratio[1] < 1:
            raise ValueError("bw_ratio parts must be >= 1")
        if not 0.0 < self.cpu_row_fraction < 1.0:
            raise ValueError("cpu_row_fraction must lie strictly in (0, 1)")
        self.l1.validate()
        self.gddr.validate(coloring=coloring)
        self.ddr.validate(coloring=False)
        self.reply.validate()
        if self.gddr.layout.page_offset_bits != self.ddr.layout.page_offset_bits:
            raise ValueError("pools must share one page size")
        # the engine coalesces lanes by virtual line, which is exact only
        # when a line never spans two pages
        if self.l1.line_bytes > self.gddr.layout.page_size:
            raise ValueError(
                f"l1 line_bytes ({self.l1.line_bytes}) must not exceed the "
                f"page size ({self.gddr.layout.page_size})")


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
    horizon: int = 1_000_000
    seed: int = 0
    dispatch: DispatchKind = DispatchKind.SERIAL
    allocator: PagePolicy = PagePolicy.COLORING
    scheduler: SchedPolicy = SchedPolicy.TBAS_E
    arbitration: Arbitration = Arbitration.FR_FCFS
    stride: int | None = None
    search_cap: int = 64
    fallback_threshold: float = 0.5
    random_dispatch_seed: int | None = None
    hardware: HardwareConfig = field(default_factory=HardwareConfig)

    @property
    def page_size(self) -> int:
        return self.hardware.gddr.layout.page_size

    def validate(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be >= 1 when given")
        coloring = self.allocator in (PagePolicy.COLORING, PagePolicy.COLORING_HETERO)
        self.hardware.validate(coloring=coloring)


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
