"""GPGPU-Sim-like simulator substrate.

Functional SIMT execution of the PTX-subset IR plus a cycle-approximate
SM timing model (one core, :mod:`repro.sim.batch`): greedy-then-oldest
(GTO) warp scheduling, an L1 with finite MSHRs, an L2 slice, a DRAM
bandwidth model, and a GPUWattch-style energy model.
"""

from .batch import (
    BATCH_SCHEMA_VERSION,
    PackedGrid,
    simulate_traces_batched,
)
from .cache import Cache, CacheStats, DRAMModel
from .energy import DEFAULT_ENERGY_MODEL, EnergyModel, attach_energy
from .executor import (
    BlockExecutor,
    BlockTrace,
    DivergentBranchError,
    WarpOp,
    run_grid,
)
from .gpu import simulate, simulate_traces, trace_grid
from .memory import BlockMemory, GlobalMemory
from .multisim import makespan, simulate_multi_sm
from .stats import SimResult

__all__ = [
    "BATCH_SCHEMA_VERSION",
    "BlockExecutor",
    "BlockMemory",
    "BlockTrace",
    "Cache",
    "CacheStats",
    "DEFAULT_ENERGY_MODEL",
    "DRAMModel",
    "DivergentBranchError",
    "EnergyModel",
    "GlobalMemory",
    "PackedGrid",
    "SimResult",
    "WarpOp",
    "attach_energy",
    "run_grid",
    "simulate",
    "simulate_multi_sm",
    "simulate_traces",
    "simulate_traces_batched",
    "makespan",
    "trace_grid",
]
