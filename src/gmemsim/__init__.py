"""gmemsim: deterministic GPU memory-subsystem simulator.

Models thread-batch formation, serial block dispatch, SM-bound page coloring,
batch-aware warp scheduling, and FR-FCFS DRAM controllers, and reports
bank-level parallelism, row-buffer hit rate, access locality, latency, reply
network stalls, and DRAM energy.
"""

from .config import RunConfig, load_config
from .engine import SimulationFault, World
from .metrics import MetricsReport

__version__ = "0.1.0"

__all__ = [
    "MetricsReport",
    "RunConfig",
    "SimulationFault",
    "World",
    "load_config",
    "__version__",
]
