"""Baseline schemes: MaxTLP and OptTLP thread throttling (paper [3]).

``MaxTLP`` runs the default register allocation at the hardware's
maximum occupancy.  ``OptTLP`` keeps the default allocation but limits
the number of concurrent thread blocks to the profiled optimum —
"determined offline by exhaustively testing all the possible TLPs"
(Section 7.2).  Both are oblivious to register allocation, which is the
register waste CRAT recovers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..arch.config import GPUConfig
from ..engine import EvaluationEngine, get_engine
from ..ptx.module import Kernel
from ..regalloc.allocator import AllocationResult, allocate
from ..sim.stats import SimResult
from .params import ResourceUsage, collect_resource_usage


@dataclasses.dataclass
class BaselineResult:
    """A baseline scheme's chosen point and its simulation."""

    scheme: str
    reg: int
    tlp: int
    allocation: AllocationResult
    sim: SimResult
    profile: Optional[Dict[int, SimResult]] = None


def allocation_key(fingerprint: str, reg: int, spare_shm_bytes: int) -> Tuple:
    """The engine stage-memo key of one ``allocate`` call.

    It holds everything :func:`allocate` reads: the kernel (by
    fingerprint), the register limit and the spare shared-memory bytes.
    Spare 0 also stands for shared-memory spilling turned off, which
    allocates identically.
    """
    return ("allocate", fingerprint, reg, spare_shm_bytes)


def default_allocation(
    kernel: Kernel, usage: ResourceUsage, spare_shm_bytes: int = 0
) -> AllocationResult:
    """The toolchain-default allocation: ``default_reg``, local spills only.

    The production compiler never spills to shared memory; CRAT
    introduces that (Section 5.3), so baselines disable it.
    """
    return allocate(
        kernel,
        usage.default_reg,
        spare_shm_bytes=spare_shm_bytes,
        enable_shm_spill=False,
    )


def opt_tlp_from_profile(profile: Dict[int, SimResult]) -> int:
    """The TLP with the fewest cycles (ties to fewer blocks)."""
    return min(profile, key=lambda tlp: (profile[tlp].cycles, tlp))


def run_baselines(
    kernel: Kernel,
    config: GPUConfig,
    usage: Optional[ResourceUsage] = None,
    grid_blocks: Optional[int] = None,
    param_sizes: Optional[Dict[str, int]] = None,
    engine: Optional[EvaluationEngine] = None,
    fingerprint: Optional[str] = None,
) -> Dict[str, BaselineResult]:
    """Evaluate MaxTLP and OptTLP for one kernel.

    Returns ``{"maxtlp": ..., "opttlp": ...}``; the OptTLP entry carries
    the full TLP profile so callers (CRAT, benches) can reuse it.

    The profile covers every TLP achievable at *any* register choice
    (the occupancy ceiling at ``MinReg``), not just the TLPs reachable
    with the default allocation: CRAT's pruning needs the cache-
    contention optimum over the whole range — for register-bound apps
    like FDTD the default allocation caps occupancy below it (the paper
    reports CRAT picking TLP 2 where OptTLP could only run 1).  The
    throttling *baseline* itself is restricted to ``[1, MaxTLP]``, as a
    thread-throttling technique cannot raise occupancy.

    The default allocation goes through the engine's stage memo, keyed
    by ``fingerprint`` (the kernel's, computed here when not given).
    """
    if usage is None:
        usage = collect_resource_usage(kernel, config)
    if grid_blocks is None:
        grid_blocks = 2 * config.max_blocks_per_sm
    from ..arch.occupancy import compute_occupancy

    ceiling = compute_occupancy(
        config,
        min(usage.min_reg, usage.default_reg),
        usage.shm_size,
        usage.block_size,
    ).blocks
    ceiling = max(ceiling, usage.max_tlp)
    engine = engine or get_engine()
    if fingerprint is None:
        fingerprint = kernel.fingerprint()
    allocation = engine.memo(
        allocation_key(fingerprint, usage.default_reg, 0),
        lambda: default_allocation(kernel, usage),
    )
    profile = engine.profile_tlp(
        allocation.kernel, config, ceiling, grid_blocks, param_sizes
    )
    baseline_profile = {t: r for t, r in profile.items() if t <= usage.max_tlp}
    opt = opt_tlp_from_profile(baseline_profile)
    return {
        "maxtlp": BaselineResult(
            scheme="maxtlp",
            reg=usage.default_reg,
            tlp=usage.max_tlp,
            allocation=allocation,
            sim=profile[usage.max_tlp],
        ),
        "opttlp": BaselineResult(
            scheme="opttlp",
            reg=usage.default_reg,
            tlp=opt,
            allocation=allocation,
            sim=profile[opt],
            profile=profile,
        ),
    }
