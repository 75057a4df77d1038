"""The TPSC prediction model (paper Section 6).

``TPSC = TLP_gain * Spill_cost`` ranks the surviving design points:

* ``TLP_gain = 1 - TLP*BlockSize / (TLP*BlockSize + MaxThread)``
  shrinks as TLP grows — adding threads has diminishing returns once
  latency is already hidden;
* ``Spill_cost = Num_local*Cost_local + Num_shm*Cost_shm +
  Num_others*Cost_other`` charges every inserted spill instruction its
  measured per-access delay (local and shared memory costs come from
  micro-benchmarks, :mod:`repro.arch.latency`); ``Num_others`` counts
  the address-computation and rematerialization instructions.

The smallest TPSC wins.  The metric deliberately ignores cache effects:
points with serious contention were already pruned (Section 4.2).
Spill-free candidates all score zero, so ties break toward higher TLP
then higher reg/thread — more parallelism at equal single-thread cost.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..arch.config import GPUConfig
from ..arch.latency import MemoryCosts, measure_costs
from ..regalloc.allocator import AllocationResult
from .design_space import DesignPoint


@dataclasses.dataclass(frozen=True)
class ScoredPoint:
    """A design point with its allocation outcome and TPSC score."""

    point: DesignPoint
    allocation: AllocationResult
    tlp_gain: float
    spill_cost: float

    @property
    def tpsc(self) -> float:
        return self.tlp_gain * self.spill_cost


def tlp_gain(tlp: int, block_size: int, max_threads: int) -> float:
    """``TLP_gain`` of Section 6 (diminishing returns in thread count)."""
    if tlp <= 0:
        raise ValueError("tlp must be positive")
    active = tlp * block_size
    return 1.0 - active / (active + max_threads)


def spill_cost(allocation: AllocationResult, costs: MemoryCosts) -> float:
    """``Spill_cost`` of Section 6, over the statically counted spill
    instructions the allocation inserted."""
    others = allocation.num_address_insts + allocation.num_remat_insts
    return (
        allocation.num_local_insts * costs.cost_local
        + allocation.num_shared_insts * costs.cost_shared
        + others * costs.cost_other
    )


def score(
    point: DesignPoint,
    allocation: AllocationResult,
    config: GPUConfig,
    block_size: int,
    costs: Optional[MemoryCosts] = None,
) -> ScoredPoint:
    """Score one allocated design point."""
    if costs is None:
        costs = measure_costs(config)
    return ScoredPoint(
        point=point,
        allocation=allocation,
        tlp_gain=tlp_gain(point.tlp, block_size, config.max_threads_per_sm),
        spill_cost=spill_cost(allocation, costs),
    )


def select_best(scored: List[ScoredPoint]) -> ScoredPoint:
    """Pick the winner: min TPSC, ties to higher TLP then higher reg."""
    if not scored:
        raise ValueError("no candidates to select from")
    return min(scored, key=_rank_key)


def _rank_key(s: ScoredPoint) -> Tuple[float, int, int]:
    return (s.tpsc, -s.point.tlp, -s.point.reg)
