"""CRAT: Coordinated Register Allocation and Thread-level parallelism.

Reproduction of Xie et al., "Enabling Coordinated Register Allocation
and Thread-level Parallelism Optimization for GPUs" (MICRO-48, 2015).

Quickstart::

    from repro import CRATOptimizer, FERMI, load_workload

    workload = load_workload("CFD")
    optimizer = CRATOptimizer(FERMI)
    result = optimizer.optimize(
        workload.kernel,
        default_reg=workload.default_reg,
        grid_blocks=workload.grid_blocks,
        param_sizes=workload.param_sizes,
    )
    print(result.chosen.point, result.speedup_vs("opttlp"))

Package map:

* :mod:`repro.ptx` — PTX-subset IR (parser, printer, builder)
* :mod:`repro.cfg` — CFG, liveness, dominators, loops
* :mod:`repro.regalloc` — Chaitin-Briggs + linear-scan allocators,
  spill code, rematerialization, shared-memory spilling (Algorithm 1)
* :mod:`repro.arch` — Fermi/Kepler configs, occupancy, measured costs
* :mod:`repro.sim` — GPGPU-Sim-like functional + timing simulator
* :mod:`repro.analysis` — static OptTLP estimation (GTO mimic)
* :mod:`repro.core` — the CRAT optimizer, design space, TPSC model
* :mod:`repro.engine` — shared evaluation engine (caching, batched
  sweeps, instrumentation)
* :mod:`repro.workloads` — the 22-kernel synthetic benchmark suite
* :mod:`repro.bench` — experiment driver for the paper's figures
"""

from .arch import FERMI, KEPLER, GPUConfig, compute_occupancy, get_config
from .engine import EvaluationEngine, get_engine
from .core import (
    CRATOptimizer,
    CRATResult,
    DesignPoint,
    ResourceUsage,
    collect_resource_usage,
    prune,
    run_baselines,
)
from .ptx import Kernel, KernelBuilder, parse_kernel, print_kernel
from .regalloc import AllocationResult, allocate, register_demand
from .sim import SimResult, simulate
from .workloads import Workload, full_suite, load_workload

__version__ = "1.0.0"

__all__ = [
    "AllocationResult",
    "CRATOptimizer",
    "CRATResult",
    "DesignPoint",
    "EvaluationEngine",
    "FERMI",
    "GPUConfig",
    "KEPLER",
    "Kernel",
    "KernelBuilder",
    "ResourceUsage",
    "SimResult",
    "Workload",
    "allocate",
    "collect_resource_usage",
    "compute_occupancy",
    "full_suite",
    "get_config",
    "get_engine",
    "load_workload",
    "parse_kernel",
    "print_kernel",
    "prune",
    "register_demand",
    "run_baselines",
    "simulate",
    "__version__",
]
