"""Top-level simulation entry points.

``simulate(kernel, config, tlp)`` runs the whole pipeline: build the
global-memory image, execute every block functionally to produce warp
traces, then replay the traces through the SM timing model at the given
TLP.  Because the traces depend only on the kernel and grid (not on the
TLP), :func:`trace_grid` exposes the expensive functional step so TLP
sweeps (OptTLP profiling, design-space exploration) can reuse it;
:func:`simulate_traces` also takes them packed
(:class:`~repro.sim.batch.PackedGrid`), so a caller that replays one
grid many times packs it once.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..arch.config import GPUConfig
from ..ptx.module import Kernel
from .batch import Traces, simulate_traces_batched
from .executor import BlockTrace, run_grid
from .memory import GlobalMemory
from .stats import SimResult


def trace_grid(
    kernel: Kernel,
    config: GPUConfig,
    grid_blocks: int,
    param_sizes: Optional[Dict[str, int]] = None,
    global_mem: Optional[GlobalMemory] = None,
) -> List[BlockTrace]:
    """Functionally execute the grid once, returning per-block traces."""
    if global_mem is None:
        global_mem = GlobalMemory(kernel, param_sizes)
    return run_grid(
        kernel,
        global_mem,
        grid_blocks,
        warp_size=config.warp_size,
        line_bytes=config.l1.line_bytes,
    )


def simulate_traces(
    traces: Traces,
    config: GPUConfig,
    tlp: int,
    warp_limit: Optional[int] = None,
) -> SimResult:
    """Replay pre-computed traces, plain or packed, through the SM
    timing model: the one-TLP call of
    :func:`~repro.sim.batch.simulate_traces_batched`.

    ``warp_limit`` caps how many warps are schedulable at once
    (fine-grained throttling, paper ref [2]); the rest park until an
    active warp retires.
    """
    result, = simulate_traces_batched(traces, config, [tlp], warp_limit)
    return result


def simulate(
    kernel: Kernel,
    config: GPUConfig,
    tlp: int,
    grid_blocks: Optional[int] = None,
    param_sizes: Optional[Dict[str, int]] = None,
) -> SimResult:
    """Simulate ``kernel`` at a given TLP (blocks per SM).

    ``grid_blocks`` defaults to two waves at the hardware block limit,
    enough for steady-state behaviour without simulating a full app.
    """
    if grid_blocks is None:
        grid_blocks = 2 * config.max_blocks_per_sm
    traces = trace_grid(kernel, config, grid_blocks, param_sizes)
    return simulate_traces(traces, config, tlp)
