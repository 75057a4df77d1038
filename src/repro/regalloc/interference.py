"""Interference-graph construction (paper Section 5.1, step 1).

Two variables interfere when one is defined at a point where the other
is live; interfering variables cannot share a register.  PTX is
type-sensitive (Section 5.2): "when a variable dies, the corresponding
register could not be assigned to a variable with different type" — we
model this by building one interference graph per register class, so a
freed f32 register is never handed to an s32 variable.

Move-related pairs (``mov %a, %b``) are recorded separately; the
Chaitin-Briggs allocator uses them for conservative coalescing hints.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..cfg.liveness import LivenessInfo, iter_interference_sites
from ..ptx.isa import RegClass


@dataclasses.dataclass
class InterferenceNode:
    """One variable in the interference graph."""

    name: str
    reg_class: RegClass
    neighbors: Set[str] = dataclasses.field(default_factory=set)
    weight: float = 0.0  # loop-weighted access count (spill cost numerator)
    accesses: int = 0

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def spill_metric(self) -> float:
        """Chaitin's heuristic: cheap-to-spill = low weight, high degree."""
        return self.weight / (self.degree + 1)


class InterferenceGraph:
    """Per-class interference graph for one kernel."""

    def __init__(self, reg_class: RegClass):
        self.reg_class = reg_class
        self.nodes: Dict[str, InterferenceNode] = {}
        self.move_pairs: Set[FrozenSet[str]] = set()

    def add_node(self, name: str, weight: float = 0.0, accesses: int = 0) -> None:
        node = self.nodes.get(name)
        if node is None:
            self.nodes[name] = InterferenceNode(
                name, self.reg_class, weight=weight, accesses=accesses
            )
        else:
            node.weight = max(node.weight, weight)
            node.accesses = max(node.accesses, accesses)

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self.nodes[a].neighbors.add(b)
        self.nodes[b].neighbors.add(a)

    def interferes(self, a: str, b: str) -> bool:
        return b in self.nodes.get(a, InterferenceNode(a, self.reg_class)).neighbors

    def add_move_pair(self, a: str, b: str) -> None:
        if a != b:
            self.move_pairs.add(frozenset((a, b)))

    def degree(self, name: str) -> int:
        return self.nodes[name].degree

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes


def build_interference(
    liveness: LivenessInfo,
    pinned: Optional[Iterable[str]] = None,
) -> Dict[RegClass, InterferenceGraph]:
    """Build the per-class interference graphs for one kernel.

    ``pinned`` registers (e.g. a spill-stack base address that must stay
    resident) are included as ordinary nodes; the allocator marks them
    unspillable.

    The standard construction: at every instruction, each defined
    register interferes with every register live out of that point.  For
    a register-to-register ``mov``, the def does not interfere with the
    moved source (they may share a register), and the pair is recorded
    as move-related for coalescing.
    """
    graphs: Dict[RegClass, InterferenceGraph] = {
        rc: InterferenceGraph(rc) for rc in RegClass
    }
    dtype_of = liveness.dtype_of
    class_of = {name: dtype.reg_class for name, dtype in dtype_of.items()}

    # Seed nodes with spill weights from the live ranges.  Every def
    # and every live-out name has a range, so the edge loop below can
    # write straight into both neighbour sets.
    for name, rng in liveness.ranges.items():
        graphs[class_of[name]].add_node(
            name, weight=rng.weight, accesses=rng.accesses
        )
    nodes_of = {rc: graph.nodes for rc, graph in graphs.items()}

    for site in iter_interference_sites(liveness):
        inst, live_out, move_src = site.inst, site.live_out, site.move_src
        if move_src is not None:
            if inst.dst is not None and class_of[move_src] is class_of[inst.dst.name]:
                graphs[class_of[move_src]].add_move_pair(inst.dst.name, move_src)
        for dreg in inst.defs():
            dname = dreg.name
            dclass = class_of[dname]
            nodes = nodes_of[dclass]
            neighbors = nodes[dname].neighbors
            for live_name in live_out & nodes.keys():
                if live_name == dname or live_name == move_src:
                    continue  # a mov's pair may share a register
                neighbors.add(live_name)
                nodes[live_name].neighbors.add(dname)
        # Registers simultaneously live out of the same point interfere
        # pairwise only if some def separates them; the def-vs-live-out
        # rule above captures exactly that, because every live range
        # starts at a def.  (Kernel parameters/specials enter via movs.)
    if pinned:
        # A pinned register interferes with everything in its class: it
        # must hold its value across the whole kernel.
        for name in pinned:
            if name not in dtype_of:
                continue
            graph = graphs[class_of[name]]
            graph.add_node(name)
            for other in list(graph.nodes):
                if other != name:
                    graph.add_edge(name, other)
    return graphs


def verify_coloring(
    graph: InterferenceGraph, coloring: Dict[str, int]
) -> List[Tuple[str, str]]:
    """Return interfering pairs that received the same color (should be [])."""
    conflicts = []
    for name, node in graph.nodes.items():
        if name not in coloring:
            continue
        for other in node.neighbors:
            if other in coloring and coloring[other] == coloring[name] and name < other:
                conflicts.append((name, other))
    return conflicts
