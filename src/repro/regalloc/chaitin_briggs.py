"""Chaitin-Briggs graph-coloring register allocation (paper Section 5.1).

The paper implements "a Chaitin-Briggs' register allocator [10]": build
the interference graph, color it, and spill what cannot be colored.
This module colors *one register class* with ``k`` colors:

* **simplify** — repeatedly remove any node with degree < k (it is
  trivially colorable) and push it on the select stack;
* **spill candidate** — when no low-degree node exists, pick the node
  with the smallest Chaitin metric ``weight / degree`` and push it
  *optimistically* (Briggs: it may still get a color if its neighbors
  happen to share colors);
* **select** — pop nodes, assigning the lowest color unused by already
  colored neighbors; optimistic nodes with no free color become actual
  spills.

Conservative move coalescing (George's test) is applied first when
enabled; it removes copies the SSA-style PTX front end produces and is
ablated in ``benchmarks/test_ablation_allocator.py``.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Set

from .interference import InterferenceGraph


@dataclasses.dataclass
class ColoringResult:
    """Outcome of coloring one class graph with ``k`` colors."""

    coloring: Dict[str, int]
    spilled: List[str]
    colors_used: int
    coalesced: Dict[str, str]  # merged name -> representative it joined

    @property
    def success(self) -> bool:
        return not self.spilled


def color_graph(
    graph: InterferenceGraph,
    k: int,
    unspillable: Optional[Set[str]] = None,
    optimistic: bool = True,
    coalesce: bool = True,
) -> ColoringResult:
    """Color ``graph`` with at most ``k`` colors, spilling when forced.

    ``unspillable`` names (spill temps, pinned base registers) are never
    chosen as spill candidates; if the graph cannot be colored without
    spilling one of them, ``ValueError`` is raised — callers guarantee
    spill temps have tiny live ranges precisely so this cannot happen
    for sensible ``k``.

    ``optimistic=False`` degrades Briggs to classic pessimistic Chaitin
    (a spill candidate is spilled immediately); exposed for the
    allocator ablation benchmark.
    """
    unspillable = unspillable or set()
    if k < 0:
        raise ValueError("k must be non-negative")

    # --- coalescing (conservative, George's test) ---------------------
    alias: Dict[str, str] = {}
    adjacency: Dict[str, Set[str]] = {
        name: set(node.neighbors) for name, node in graph.nodes.items()
    }
    weight: Dict[str, float] = {
        name: node.weight for name, node in graph.nodes.items()
    }

    def find(name: str) -> str:
        while name in alias:
            name = alias[name]
        return name

    if coalesce and k > 0:
        for pair in sorted(graph.move_pairs, key=lambda p: sorted(p)):
            a, b = sorted(pair)
            a, b = find(a), find(b)
            if a == b or b in adjacency.get(a, ()):  # merged or now interfering
                continue
            if a not in adjacency or b not in adjacency:
                continue
            # George: safe to merge b into a if every high-degree
            # neighbor of b already interferes with a.
            safe = all(
                (len(adjacency[t]) < k) or (t in adjacency[a])
                for t in adjacency[b]
            )
            if not safe:
                continue
            # Don't coalesce into/out of unspillable pinned names other
            # than keeping the pinned name as representative.
            rep, gone = (a, b)
            if gone in unspillable and rep not in unspillable:
                rep, gone = gone, rep
            if gone in unspillable:
                continue
            for t in adjacency[gone]:
                adjacency[t].discard(gone)
                if t != rep:
                    adjacency[t].add(rep)
                    adjacency[rep].add(t)
            weight[rep] = weight.get(rep, 0.0) + weight.get(gone, 0.0)
            del adjacency[gone]
            alias[gone] = rep

    # --- simplify / optimistic spill -----------------------------------
    # The simplify pick is the remaining node with the smallest
    # (degree, name).  A lazy min-heap holds one entry per degree a node
    # has had; an entry is stale once its node is removed or its degree
    # has dropped since it was pushed.
    degrees = {name: len(neigh) for name, neigh in adjacency.items()}
    removed: Set[str] = set()
    stack: List[str] = []
    optimistic_nodes: Set[str] = set()
    remaining = set(adjacency)
    heap = [(degree, name) for name, degree in degrees.items()]
    heapq.heapify(heap)

    while remaining:
        degree, simplifiable = heap[0]
        while simplifiable in removed or degrees[simplifiable] != degree:
            heapq.heappop(heap)
            degree, simplifiable = heap[0]
        if degree < k:
            heapq.heappop(heap)
        else:
            # Choose a spill candidate by Chaitin's metric.
            candidates = [n for n in remaining if n not in unspillable]
            if not candidates:
                raise ValueError(
                    "graph not colorable and all remaining nodes are unspillable"
                )
            simplifiable = min(
                candidates,
                key=lambda n: (weight.get(n, 0.0) / (degrees[n] + 1), n),
            )
            optimistic_nodes.add(simplifiable)
        remaining.discard(simplifiable)
        removed.add(simplifiable)
        stack.append(simplifiable)
        for neigh in adjacency[simplifiable]:
            if neigh not in removed:
                degrees[neigh] -= 1
                heapq.heappush(heap, (degrees[neigh], neigh))

    # --- select ---------------------------------------------------------
    coloring: Dict[str, int] = {}
    spilled: List[str] = []
    while stack:
        name = stack.pop()
        if not optimistic and name in optimistic_nodes:
            # Pessimistic Chaitin: spill candidates are spilled outright,
            # never given the chance Briggs optimism affords them.
            spilled.append(name)
            continue
        used = {
            coloring[neigh]
            for neigh in adjacency[name]
            if neigh in coloring
        }
        color = next((c for c in range(k) if c not in used), None)
        if color is None:
            spilled.append(name)
            continue
        coloring[name] = color

    # Resolve aliases: coalesced names take their representative's fate.
    for gone in alias:
        rep = find(gone)
        if rep in coloring:
            coloring[gone] = coloring[rep]
        elif rep in spilled:
            spilled.append(gone)

    colors_used = (max(coloring.values()) + 1) if coloring else 0
    rep_alias = {gone: find(gone) for gone in alias}
    return ColoringResult(
        coloring=coloring,
        spilled=sorted(set(spilled)),
        colors_used=colors_used,
        coalesced=rep_alias,
    )


def chromatic_demand(graph: InterferenceGraph) -> int:
    """Colors needed when no limit applies (color with k = |V|).

    This is the per-class register demand used to compute the paper's
    ``MaxReg``: allocating more registers than this "would not increase
    the single-thread performance" (Section 4.1).
    """
    if not graph.nodes:
        return 0
    result = color_graph(graph, k=len(graph.nodes), coalesce=True)
    return result.colors_used
