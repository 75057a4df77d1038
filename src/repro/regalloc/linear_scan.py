"""Linear-scan register allocation (Poletto & Sarkar [13]).

The paper cross-validates its Chaitin-Briggs allocator against the
nvcc PTX assembler's (undisclosed) allocator by comparing spill
load/store bytes across register limits (Figure 12).  nvcc is not
available offline, so this module provides a genuinely *different*
allocation algorithm to play the reference role: live intervals are
sorted by start point and registers assigned greedily; on pressure, the
interval with the furthest end point is spilled.

Like the graph-coloring path it shares the spill-code machinery, so the
two allocators are directly comparable on spill bytes, spill counts,
and (through the simulator) performance.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set

from ..cfg.liveness import LivenessInfo
from ..ptx.isa import DType, RegClass, Space
from ..ptx.module import Kernel
from .allocator import (
    DATA_CLASSES,
    AllocationResult,
    InsufficientRegistersError,
    rename_registers,
)
from .spill import insert_spill_code


@dataclasses.dataclass
class _Interval:
    name: str
    dtype: DType
    start: int
    end: int
    weight: float

    @property
    def reg_class(self) -> RegClass:
        return self.dtype.reg_class


def _scan_class(
    intervals: List[_Interval], k: int, unspillable: Set[str]
) -> tuple:
    """Linear scan over one class: returns (assignment, spilled names)."""
    assignment: Dict[str, int] = {}
    spilled: List[str] = []
    active: List[_Interval] = []  # kept sorted by end point
    free = list(range(k - 1, -1, -1))  # pop() yields the lowest index

    def place(interval: _Interval, reg: int) -> None:
        assignment[interval.name] = reg
        active.append(interval)
        active.sort(key=lambda iv: (iv.end, iv.name))

    def evict(victim: _Interval) -> int:
        reg = assignment.pop(victim.name)
        spilled.append(victim.name)
        active.remove(victim)
        return reg

    for interval in sorted(intervals, key=lambda iv: (iv.start, iv.name)):
        # Expire intervals that ended before this one starts.
        still_active = []
        for iv in active:
            if iv.end < interval.start:
                free.append(assignment[iv.name])
            else:
                still_active.append(iv)
        active[:] = still_active

        if free:
            place(interval, free.pop())
            continue
        # Register pressure: spill the active interval ending last
        # (Poletto-Sarkar) if it outlasts the new one; otherwise spill
        # the new interval itself.  Unspillable intervals always win.
        candidates = [iv for iv in active if iv.name not in unspillable]
        victim: Optional[_Interval] = candidates[-1] if candidates else None
        must_place = interval.name in unspillable
        if victim is not None and (must_place or victim.end > interval.end):
            place(interval, evict(victim))
        elif must_place:
            raise InsufficientRegistersError(
                "linear scan cannot place an unspillable interval"
            )
        else:
            spilled.append(interval.name)
    return assignment, spilled


def allocate_linear_scan(
    kernel: Kernel,
    reg_limit: int,
    rename: bool = True,
) -> AllocationResult:
    """Allocate with linear scan; local-memory spilling only.

    The reference allocator deliberately skips the shared-memory
    optimization — it stands in for a conventional compiler, which is
    exactly what Figure 12 compares against.
    """
    if reg_limit <= 0:
        raise ValueError("reg_limit must be positive")

    original = kernel
    spilled: Dict[str, DType] = {}
    unspillable: Set[str] = set()
    current = original
    local_result = None
    assignment_by_class: Dict[RegClass, Dict[str, int]] = {}
    iterations = 0

    while True:
        iterations += 1
        if iterations > 24:
            raise InsufficientRegistersError(
                f"linear scan did not converge at reg_limit={reg_limit}"
            )
        liveness = LivenessInfo(current)
        intervals_by_class: Dict[RegClass, List[_Interval]] = {
            rc: [] for rc in RegClass
        }
        for name, rng in liveness.ranges.items():
            intervals_by_class[rng.dtype.reg_class].append(
                _Interval(name, rng.dtype, rng.start, rng.end, rng.weight)
            )

        # Budget partition: greedy, proportional to per-class pressure.
        budgets = _partition(liveness, intervals_by_class, reg_limit, unspillable)

        new_spills: Dict[str, DType] = {}
        assignment_by_class = {}
        for rc in DATA_CLASSES:
            assignment, class_spills = _scan_class(
                intervals_by_class[rc], budgets[rc], unspillable
            )
            assignment_by_class[rc] = assignment
            for name in class_spills:
                new_spills[name] = liveness.dtype_of[name]
        pred_assignment, _ = _scan_class(
            intervals_by_class[RegClass.PRED],
            max(len(intervals_by_class[RegClass.PRED]), 1),
            set(),
        )
        assignment_by_class[RegClass.PRED] = pred_assignment

        if not new_spills:
            break
        spilled.update(new_spills)
        local_result = insert_spill_code(original, spilled, Space.LOCAL)
        current = local_result.kernel
        unspillable = set(local_result.temp_names)

    final = current
    if rename:
        name_map: Dict[str, str] = {}
        for rc, assignment in assignment_by_class.items():
            prefix = f"%{rc.value}"
            for vname, idx in assignment.items():
                name_map[vname] = f"{prefix}{idx}"
        final = rename_registers(current, name_map)

    colors = {
        rc: (max(assignment_by_class[rc].values()) + 1 if assignment_by_class[rc] else 0)
        for rc in DATA_CLASSES
    }
    reg_per_thread = sum(colors[rc] * rc.slots for rc in DATA_CLASSES)
    return AllocationResult(
        kernel=final,
        reg_per_thread=reg_per_thread,
        reg_limit=reg_limit,
        colors=colors,
        spilled=dict(spilled),
        shm_plan=None,
        num_local_loads=local_result.num_loads if local_result else 0,
        num_local_stores=local_result.num_stores if local_result else 0,
        num_shared_loads=0,
        num_shared_stores=0,
        num_address_insts=local_result.num_address_insts if local_result else 0,
        num_remat_insts=0,
        weighted_local_accesses=float(
            (local_result.num_loads + local_result.num_stores) if local_result else 0
        ),
        weighted_shared_accesses=0.0,
        iterations=iterations,
        local_stack_bytes=local_result.layout.total_bytes if local_result else 0,
        shm_spill_block_bytes=0,
    )


def _partition(
    liveness: LivenessInfo,
    intervals_by_class: Dict[RegClass, List[_Interval]],
    limit: int,
    unspillable: Set[str],
) -> Dict[RegClass, int]:
    """Split the slot budget across classes by peak pressure.

    Each class keeps at least the peak simultaneous pressure of its
    *unspillable* intervals (spill temporaries and stack bases must
    always be placeable), plus one working register when spillable
    intervals exist.
    """
    # Linear scan works on whole [start, end] intervals, so its true
    # demand is the peak *interval* overlap — higher than instantaneous
    # liveness pressure whenever ranges have lifetime holes.
    demand = {rc: _peak_overlap(intervals_by_class[rc]) for rc in DATA_CLASSES}
    budgets = dict(demand)

    floors: Dict[RegClass, int] = {}
    for rc in DATA_CLASSES:
        intervals = intervals_by_class[rc]
        pinned = [iv for iv in intervals if iv.name in unspillable]
        floor = _peak_overlap(pinned)
        if any(iv.name not in unspillable for iv in intervals):
            floor = max(floor + 1, 1)
        floors[rc] = min(max(floor, 1 if intervals else 0), demand[rc])

    def total(b):
        return sum(b[rc] * rc.slots for rc in DATA_CLASSES)

    # Reduce the largest consumer first until we fit.
    while total(budgets) > limit:
        candidates = [rc for rc in DATA_CLASSES if budgets[rc] > floors[rc]]
        if not candidates:
            raise InsufficientRegistersError(
                f"register limit {limit} too small for linear scan "
                f"(floors need {total(floors)} slots)"
            )
        victim = max(candidates, key=lambda rc: (budgets[rc] * rc.slots, rc.value))
        budgets[victim] -= 1
    return budgets


def _peak_overlap(intervals: List[_Interval]) -> int:
    """Maximum number of simultaneously-live intervals."""
    events = []
    for iv in intervals:
        events.append((iv.start, 1))
        events.append((iv.end + 1, -1))
    peak = count = 0
    for _, delta in sorted(events):
        count += delta
        peak = max(peak, count)
    return peak
