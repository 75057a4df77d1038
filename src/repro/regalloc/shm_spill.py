"""Shared-memory spilling optimization (paper Algorithm 1, Section 5.3).

Off-chip local memory is far slower than on-chip shared memory, and
most applications leave shared memory nearly idle (3.8% average
utilization, paper Figure 7).  Algorithm 1 therefore relocates the most
profitable parts of the spill stack to the *spare* shared memory:

1. **split** the spill stack into ``N`` sub-stacks by data type and
   width ("all the integer variables with 32-bit width are spilled to
   the same sub-stack");
2. **gain estimation** — scan the kernel and count, per sub-stack, the
   number of spill instructions that would access it;
3. **0-1 knapsack** — each sub-stack either moves to shared memory or
   stays local; maximize total gain subject to the spare shared-memory
   budget, solved by dynamic programming.

The knapsack weight of a sub-stack is its *per-block* footprint:
``per-thread bytes x block size``, because every thread of the block
needs its own copy of the slot.  The spare budget is what the TLP
target leaves unused:
``SpareShmSize = shm_per_sm / TLP - ShmSize`` — the optimization
"ensures that the TLP is not changed and only utilizes the spare shared
memory" (Section 5.3).

Alternative split granularities (single stack, per-variable) are
implemented for the ablation the paper defers to future work.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence, Tuple

from ..cfg.liveness import LivenessInfo
from ..ptx.isa import DType

SplitKey = Callable[[str, DType], str]


def split_by_type(name: str, dtype: DType) -> str:
    """Paper's split: one sub-stack per (type kind, width)."""
    kind = "f" if dtype.is_float else "i"
    return f"{kind}{dtype.bits}"


def split_single(name: str, dtype: DType) -> str:
    """Degenerate split: the whole stack is one sub-stack (ablation)."""
    return "all"


def split_per_variable(name: str, dtype: DType) -> str:
    """Finest split: every variable is its own sub-stack (ablation)."""
    return name


@dataclasses.dataclass(frozen=True)
class SubStack:
    """One sub-stack produced by the split step."""

    key: str
    variables: Tuple[str, ...]
    thread_bytes: int  # per-thread footprint of this sub-stack
    gain: int  # number of spill instructions accessing it

    def block_bytes(self, block_size: int) -> int:
        return self.thread_bytes * block_size


@dataclasses.dataclass(frozen=True)
class ShmSpillPlan:
    """Output of Algorithm 1: which sub-stacks move to shared memory."""

    substacks: Tuple[SubStack, ...]
    chosen: Tuple[bool, ...]
    spare_shm_bytes: int
    block_size: int

    @property
    def shared_variables(self) -> List[str]:
        out: List[str] = []
        for sub, pick in zip(self.substacks, self.chosen):
            if pick:
                out.extend(sub.variables)
        return out

    @property
    def local_variables(self) -> List[str]:
        out: List[str] = []
        for sub, pick in zip(self.substacks, self.chosen):
            if not pick:
                out.extend(sub.variables)
        return out

    @property
    def total_gain(self) -> int:
        return sum(s.gain for s, pick in zip(self.substacks, self.chosen) if pick)

    @property
    def shared_block_bytes(self) -> int:
        return sum(
            s.block_bytes(self.block_size)
            for s, pick in zip(self.substacks, self.chosen)
            if pick
        )


def build_substacks(
    spilled: Dict[str, DType],
    liveness: LivenessInfo,
    split: SplitKey = split_by_type,
) -> List[SubStack]:
    """Split + gain estimation (Algorithm 1 lines 1-12).

    The gain of a sub-stack is the number of spill instructions that
    would access it: one load per use and one store per definition of
    each member variable (spill code inserts exactly that many).
    """
    groups: Dict[str, List[str]] = {}
    for name in sorted(spilled):
        groups.setdefault(split(name, spilled[name]), []).append(name)
    ranges = liveness.ranges
    return [
        SubStack(
            key=key,
            variables=tuple(names),
            thread_bytes=sum(spilled[name].bytes for name in names),
            gain=sum(ranges[name].accesses for name in names if name in ranges),
        )
        for key, names in sorted(groups.items())
    ]


def knapsack(
    sizes: Sequence[int], gains: Sequence[int], capacity: int
) -> Tuple[int, List[bool]]:
    """0-1 knapsack by dynamic programming (Algorithm 1 lines 14-23).

    Returns ``(best_gain, chosen_mask)``.  Sizes are compressed by their
    GCD so the DP table stays small even for byte-granular capacities.
    """
    n = len(sizes)
    if n != len(gains):
        raise ValueError("sizes and gains must have equal length")
    if capacity <= 0 or n == 0:
        return 0, [False] * n

    import math

    scale = 0
    for s in sizes:
        scale = math.gcd(scale, s)
    scale = math.gcd(scale, capacity) or 1
    sizes_s = [s // scale for s in sizes]
    cap_s = capacity // scale

    neg = float("-inf")
    table = [[0] * (cap_s + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        size, gain = sizes_s[i - 1], gains[i - 1]
        prev = table[i - 1]
        row = table[i]
        for v in range(cap_s + 1):
            best = prev[v]
            if size <= v and prev[v - size] + gain > best:
                best = prev[v - size] + gain
            row[v] = best
    # Backtrack the chosen mask.
    chosen = [False] * n
    v = cap_s
    for i in range(n, 0, -1):
        if table[i][v] != table[i - 1][v]:
            chosen[i - 1] = True
            v -= sizes_s[i - 1]
    assert v >= 0
    return table[n][cap_s], chosen


def plan_shared_spilling(
    spilled: Dict[str, DType],
    liveness: LivenessInfo,
    spare_shm_bytes: int,
    block_size: int,
    split: SplitKey = split_by_type,
) -> ShmSpillPlan:
    """Run Algorithm 1 and return the placement plan.

    ``spare_shm_bytes`` is the per-block budget; a plan never exceeds
    it, so the chosen TLP is preserved by construction.
    """
    substacks = build_substacks(spilled, liveness, split)
    sizes = [s.block_bytes(block_size) for s in substacks]
    gains = [s.gain for s in substacks]
    _, chosen = knapsack(sizes, gains, spare_shm_bytes)
    return ShmSpillPlan(
        substacks=tuple(substacks),
        chosen=tuple(chosen),
        spare_shm_bytes=spare_shm_bytes,
        block_size=block_size,
    )
