"""Public register-allocation facade: ``allocate(kernel, reg_limit)``.

Runs the full paper pipeline (Figure 9, "Register Allocation" box):

1. live-range analysis,
2. interference-graph construction (one graph per register class),
3. partition of the per-thread register budget across classes,
4. Chaitin-Briggs coloring per class,
5. spill-code insertion for uncolorable variables (iterated to a fixed
   point, since spill temporaries add short live ranges),
6. optionally, the shared-memory spilling optimization (Algorithm 1),
7. renaming of virtual registers to physical names.

The budget is expressed in 32-bit register slots per thread — the unit
hardware occupancy calculators use.  64-bit values cost two slots;
predicates live in a separate file and cost none.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, List, Optional, Set, Tuple

from ..cfg.liveness import LivenessInfo
from ..ptx.instruction import Instruction, Reg
from ..ptx.isa import DType, RegClass, Space
from ..ptx.module import Kernel
from .chaitin_briggs import ColoringResult, chromatic_demand, color_graph
from .interference import InterferenceGraph, build_interference
from .shm_spill import ShmSpillPlan, SplitKey, plan_shared_spilling, split_by_type
from .spill import (
    SHARED_SPILL_NAME,
    SpillCodeResult,
    SpillRegionInfo,
    insert_spill_code,
)

#: Register classes that consume register-file slots.
DATA_CLASSES = (RegClass.R32, RegClass.R64, RegClass.F32, RegClass.F64)

_MAX_ITERATIONS = 24

#: Loop-weight above which a variable counts as "hot" for budget floors.
_HOT_WEIGHT = 50.0


class InsufficientRegistersError(ValueError):
    """The register limit is too small even with everything spilled."""


@dataclasses.dataclass(frozen=True)
class AllocationResult:
    """Outcome of allocating one kernel under a register limit.

    Immutable, like everything it reaches, so the engine's stage memo
    hands one shared value to every caller.  Its dict fields are never
    written after construction.
    """

    kernel: Kernel
    reg_per_thread: int
    reg_limit: int
    colors: Dict[RegClass, int]
    spilled: Dict[str, DType]
    shm_plan: Optional[ShmSpillPlan]
    num_local_loads: int
    num_local_stores: int
    num_shared_loads: int
    num_shared_stores: int
    num_address_insts: int
    num_remat_insts: int
    weighted_local_accesses: float
    weighted_shared_accesses: float
    iterations: int
    local_stack_bytes: int
    shm_spill_block_bytes: int
    rematerialized: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Validator-facing provenance: the kernel before physical renaming
    #: (same instructions as ``kernel``, virtual names), the virtual →
    #: physical name map applied, and one record per spill stack — what
    #: :func:`repro.verify.verify_allocation` rechecks independently.
    pre_rename_kernel: Optional[Kernel] = None
    name_map: Dict[str, str] = dataclasses.field(default_factory=dict)
    spill_regions: Tuple[SpillRegionInfo, ...] = ()

    def __reduce__(self):
        return _decoded_allocation, (
            {f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
        )

    @property
    def num_local_insts(self) -> int:
        """Paper's ``Num_local``: inserted local-memory spill instructions."""
        return self.num_local_loads + self.num_local_stores

    @property
    def num_shared_insts(self) -> int:
        """Paper's ``Num_shm``: inserted shared-memory spill instructions."""
        return self.num_shared_loads + self.num_shared_stores

    @property
    def has_spills(self) -> bool:
        return bool(self.spilled)

    @property
    def static_spill_bytes(self) -> int:
        """Total bytes of spill loads+stores, counted statically (Fig 12)."""
        total = 0
        for inst in self.kernel.instructions():
            if inst.is_memory and inst.space in (Space.LOCAL, Space.SHARED):
                if inst.dtype is not None:
                    total += inst.dtype.bytes
        return total


def _decoded_allocation(fields: Dict[str, object]) -> AllocationResult:
    """An unpickled :class:`AllocationResult`.  Its name map shares one
    string per register name with every other decoded allocation, as
    its kernels share registers and instructions
    (:mod:`repro.ptx.instruction`)."""
    intern = sys.intern
    fields["name_map"] = {
        intern(virtual): intern(physical)
        for virtual, physical in fields["name_map"].items()
    }
    return AllocationResult(**fields)


def register_demand(kernel: Kernel) -> int:
    """The paper's ``MaxReg``: slots to hold every variable with no spills.

    Computed as the sum over data classes of the chromatic demand of
    each class's interference graph ("obtained through data flow
    analysis", Section 4.1).
    """
    liveness = LivenessInfo(kernel)
    graphs = build_interference(liveness)
    return sum(
        chromatic_demand(graphs[rc]) * rc.slots for rc in DATA_CLASSES
    )


def _partition_budget(
    graphs: Dict[RegClass, InterferenceGraph],
    limit: int,
    unspillable: Set[str],
) -> Dict[RegClass, int]:
    """Split the slot budget across register classes.

    Start every class at its chromatic demand; while the total exceeds
    the limit, take a register away from the class whose next-cheapest
    spill candidate costs the least per freed slot (Chaitin's metric).
    """
    demands = {rc: chromatic_demand(graphs[rc]) for rc in DATA_CLASSES}
    budgets = dict(demands)

    def subgraph_demand(rc: RegClass, names) -> int:
        graph = graphs[rc]
        names = set(names)
        if not names:
            return 0
        sub = InterferenceGraph(rc)
        for name in names:
            sub.add_node(name)
            for other in graph.nodes[name].neighbors & names:
                sub.add_edge(name, other)
        return chromatic_demand(sub)

    # Hard floors: a class must keep enough colors for its unspillable
    # nodes plus one working register when spillable nodes exist.
    floors: Dict[RegClass, int] = {}
    for rc in DATA_CLASSES:
        graph = graphs[rc]
        pinned = [n for n in graph.nodes if n in unspillable]
        spillable = [n for n in graph.nodes if n not in unspillable]
        floor = subgraph_demand(rc, pinned)
        if spillable:
            floor = max(floor + 1, 1) if pinned else max(floor, 1)
        floors[rc] = min(floor, demands[rc]) if demands[rc] else 0

    def total(b: Dict[RegClass, int]) -> int:
        return sum(b[rc] * rc.slots for rc in DATA_CLASSES)

    # Soft floors: try to keep every frequently-accessed node (loop
    # weight >= _HOT_WEIGHT) resident — spilling an inner-loop value or
    # a carried address pointer costs far more than the cross-class
    # greedy's static estimate admits.  Only applied when the limit can
    # actually accommodate them.
    soft_floors: Dict[RegClass, int] = {}
    for rc in DATA_CLASSES:
        hot = [
            n
            for n, node in graphs[rc].nodes.items()
            if node.weight >= _HOT_WEIGHT or n in unspillable
        ]
        soft = subgraph_demand(rc, hot)
        if soft < demands[rc]:
            soft += 1  # one working register for the cold traffic
        soft_floors[rc] = max(floors[rc], min(soft, demands[rc]))
    if total(soft_floors) <= limit:
        floors = soft_floors

    # Cheapest-next-spill estimate per class: sorted *dynamic access
    # weights* of spillable nodes; decrementing the budget by one forces
    # roughly one more spill, starting with the cheapest.  Chaitin's
    # weight/degree metric stays the within-class spill choice, but the
    # cross-class comparison must not divide by degree — a class with
    # many mutually-interfering cheap nodes would otherwise look
    # arbitrarily cheap to cut and starve (e.g. all hot f32 accumulators
    # spilled to protect one address register).
    metrics: Dict[RegClass, List[float]] = {}
    cut_count: Dict[RegClass, int] = {rc: 0 for rc in DATA_CLASSES}
    for rc in DATA_CLASSES:
        vals = sorted(
            node.weight
            for name, node in graphs[rc].nodes.items()
            if name not in unspillable
        )
        metrics[rc] = vals

    while total(budgets) > limit:
        candidates = [rc for rc in DATA_CLASSES if budgets[rc] > floors[rc]]
        if not candidates:
            raise InsufficientRegistersError(
                f"register limit {limit} cannot accommodate the kernel "
                f"(floors require {total({rc: floors[rc] for rc in DATA_CLASSES})} slots)"
            )

        def next_cost(rc: RegClass) -> float:
            vals = metrics[rc]
            idx = min(cut_count[rc], len(vals) - 1) if vals else 0
            base = vals[idx] if vals else float("inf")
            return base / rc.slots

        victim = min(candidates, key=lambda rc: (next_cost(rc), rc.value))
        budgets[victim] -= 1
        cut_count[victim] += 1
    return budgets


def allocate(
    kernel: Kernel,
    reg_limit: int,
    spare_shm_bytes: int = 0,
    enable_shm_spill: bool = True,
    optimistic: bool = True,
    coalesce: bool = True,
    remat: bool = True,
    split: SplitKey = split_by_type,
    rename: bool = True,
) -> AllocationResult:
    """Allocate registers for ``kernel`` under ``reg_limit`` slots/thread.

    ``spare_shm_bytes`` is the per-block shared-memory budget Algorithm 1
    may use for spill sub-stacks (0 disables it, as does
    ``enable_shm_spill=False`` — the paper's *CRAT-local* variant).

    Returns an :class:`AllocationResult` whose ``kernel`` is rewritten
    (spill code inserted, registers renamed to physical names) and whose
    counters feed the TPSC model.
    """
    if reg_limit <= 0:
        raise ValueError("reg_limit must be positive")

    from .remat import RematResult, remat_candidates, rematerialize

    original = kernel
    # Remat-eligible variables (single mov-immediate def) are nearly
    # free to "spill": bias the spill heuristics toward them.
    remat_eligible = (
        remat_candidates(original, original.register_names())
        if remat
        else {}
    )
    spilled: Dict[str, DType] = {}
    remat_values: Dict[str, object] = {}
    remat_result: Optional[RematResult] = None
    shm_vars: Set[str] = set()
    shm_plan: Optional[ShmSpillPlan] = None
    base_liveness = LivenessInfo(original)

    current = original
    local_result: Optional[SpillCodeResult] = None
    shared_result: Optional[SpillCodeResult] = None
    unspillable: Set[str] = set()
    pinned_bases: Set[str] = set()
    colorings: Dict[RegClass, ColoringResult] = {}
    liveness = base_liveness

    iteration = 0
    while True:
        iteration += 1
        if iteration > _MAX_ITERATIONS:
            raise InsufficientRegistersError(
                f"allocation did not converge in {_MAX_ITERATIONS} iterations "
                f"at reg_limit={reg_limit}"
            )
        if iteration > 1:
            liveness = LivenessInfo(current)
        # Only the stack-base registers are *pinned* (they interfere with
        # their whole class: the base must stay resident across the
        # kernel).  Spill temporaries are merely unspillable — their
        # natural live ranges are a couple of instructions.
        graphs = build_interference(liveness, pinned=pinned_bases)
        for graph in graphs.values():
            for name, node in graph.nodes.items():
                if name in remat_eligible:
                    node.weight *= 0.125
        budgets = _partition_budget(graphs, reg_limit, unspillable)
        colorings = {}
        new_spills: Dict[str, DType] = {}
        for rc in DATA_CLASSES:
            result = color_graph(
                graphs[rc],
                budgets[rc],
                unspillable=unspillable,
                optimistic=optimistic,
                coalesce=coalesce,
            )
            colorings[rc] = result
            for name in result.spilled:
                if name in unspillable:
                    raise InsufficientRegistersError(
                        f"spill temporary {name} could not be colored at "
                        f"reg_limit={reg_limit}"
                    )
                new_spills[name] = liveness.dtype_of[name]
        # Predicates: color with unlimited budget (separate file).
        pred_graph = graphs[RegClass.PRED]
        colorings[RegClass.PRED] = color_graph(
            pred_graph, k=max(len(pred_graph), 1), coalesce=coalesce
        )

        # Constant-defined candidates rematerialize instead of spilling
        # (Briggs); the rest go to memory.
        if remat:
            eligible = remat_candidates(original, new_spills)
            for name in eligible:
                new_spills.pop(name)
            remat_values.update(eligible)
        else:
            eligible = {}

        if not new_spills and not eligible:
            break

        spilled.update(new_spills)
        # Re-plan the local/shared partition of the cumulative spill set.
        if enable_shm_spill and spare_shm_bytes > 0:
            shm_plan = plan_shared_spilling(
                spilled,
                base_liveness,
                spare_shm_bytes,
                original.block_size,
                split=split,
            )
            shm_vars = set(shm_plan.shared_variables)
        else:
            shm_plan = None
            shm_vars = set()

        base = original
        remat_temp_names: Set[str] = set()
        if remat_values:
            remat_result = rematerialize(original, remat_values)
            base = remat_result.kernel
            remat_temp_names = remat_result.temp_names
        else:
            remat_result = None

        local_spill = {n: t for n, t in spilled.items() if n not in shm_vars}
        shared_spill = {n: t for n, t in spilled.items() if n in shm_vars}
        local_result = insert_spill_code(base, local_spill, Space.LOCAL)
        current = local_result.kernel
        unspillable = set(local_result.temp_names) | remat_temp_names
        pinned_bases = set()
        if local_result.base_reg is not None:
            pinned_bases.add(local_result.base_reg.name)
        if shared_spill:
            shared_result = insert_spill_code(
                current,
                shared_spill,
                Space.SHARED,
                stack_name=SHARED_SPILL_NAME,
                per_thread_indexing=True,
            )
            current = shared_result.kernel
            unspillable |= shared_result.temp_names
            if shared_result.base_reg is not None:
                pinned_bases.add(shared_result.base_reg.name)
        else:
            shared_result = None

    weighted_local, weighted_shared = _weighted_spill_accesses(
        current,
        local_base=local_result.base_reg.name
        if local_result and local_result.base_reg
        else None,
        shared_base=shared_result.base_reg.name
        if shared_result and shared_result.base_reg
        else None,
    )

    final = current
    name_map = _build_name_map(colorings)
    if rename:
        final = rename_registers(final, name_map)

    spill_regions: List[SpillRegionInfo] = []
    for spill_result in (local_result, shared_result):
        if spill_result is not None:
            region = spill_result.region()
            if region is not None:
                spill_regions.append(region)

    colors = {rc: colorings[rc].colors_used for rc in DATA_CLASSES}
    reg_per_thread = sum(colors[rc] * rc.slots for rc in DATA_CLASSES)

    return AllocationResult(
        kernel=final,
        reg_per_thread=reg_per_thread,
        reg_limit=reg_limit,
        colors=colors,
        spilled=dict(spilled),
        shm_plan=shm_plan,
        num_local_loads=local_result.num_loads if local_result else 0,
        num_local_stores=local_result.num_stores if local_result else 0,
        num_shared_loads=shared_result.num_loads if shared_result else 0,
        num_shared_stores=shared_result.num_stores if shared_result else 0,
        num_address_insts=(
            (local_result.num_address_insts if local_result else 0)
            + (shared_result.num_address_insts if shared_result else 0)
        ),
        num_remat_insts=(
            remat_result.num_remat_insts if remat_result is not None else 0
        ),
        weighted_local_accesses=weighted_local,
        weighted_shared_accesses=weighted_shared,
        iterations=iteration,
        local_stack_bytes=(
            local_result.layout.total_bytes if local_result else 0
        ),
        shm_spill_block_bytes=(shm_plan.shared_block_bytes if shm_plan else 0),
        rematerialized=dict(remat_values),
        pre_rename_kernel=current,
        name_map=name_map,
        spill_regions=tuple(spill_regions),
    )


def _build_name_map(
    colorings: Dict[RegClass, ColoringResult]
) -> Dict[str, str]:
    """Virtual → physical name map implied by the per-class colorings."""
    name_map: Dict[str, str] = {}
    for rc, result in colorings.items():
        prefix = f"%{rc.value}"
        for vname, color in result.coloring.items():
            name_map[vname] = f"{prefix}{color}"
    return name_map


def rename_registers(kernel: Kernel, name_map: Dict[str, str]) -> Kernel:
    """Rewrite virtual register names to physical ``%r<color>`` names.

    The new kernel holds one :class:`Reg` object per (name, dtype), so
    a pickle of it stores each register once.
    """
    regs: Dict[tuple, Reg] = {}

    def remap(reg: Reg) -> Reg:
        key = (name_map.get(reg.name, reg.name), reg.dtype)
        new = regs.get(key)
        if new is None:
            new = regs[key] = reg if key[0] == reg.name else Reg(*key)
        return new

    return dataclasses.replace(kernel, body=[
        item if not isinstance(item, Instruction) else item.rewrite_regs(remap)
        for item in kernel.body
    ])


def _weighted_spill_accesses(
    kernel: Kernel,
    local_base: Optional[str],
    shared_base: Optional[str],
) -> tuple:
    """Loop-depth-weighted counts of local/shared *spill* instructions.

    Spill accesses are identified by their base register: spill code
    addresses exclusively through the stack-base registers created by
    :func:`insert_spill_code`, so application memory traffic (including
    the app's own shared-memory tiles) is excluded.
    """
    from ..cfg.graph import CFG
    from ..cfg.loops import loop_depths

    cfg = CFG(kernel)
    depths = loop_depths(cfg)
    weighted_local = 0.0
    weighted_shared = 0.0
    for block in cfg.blocks:
        scale = 10.0 ** depths.get(block.index, 0)
        for inst in block.instructions:
            if not inst.is_memory or inst.mem is None:
                continue
            base = inst.mem.base
            base_name = base.name if isinstance(base, Reg) else None
            if inst.space is Space.LOCAL and base_name == local_base:
                weighted_local += scale
            elif inst.space is Space.SHARED and base_name == shared_base:
                weighted_shared += scale
    return weighted_local, weighted_shared
