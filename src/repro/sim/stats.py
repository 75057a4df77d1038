"""Simulation result containers."""

from __future__ import annotations

import dataclasses
from typing import Dict

from .cache import CacheStats


@dataclasses.dataclass
class SimResult:
    """Outcome of simulating one kernel configuration on one SM.

    ``cycles`` is the makespan; ``instructions`` counts warp-level
    dynamic instructions (one per warp per op, the unit GPGPU-Sim
    reports).  Stall counters separate the two pathologies the paper
    plots: ``mshr_stall_cycles`` (pipeline stalls from cache-request
    congestion, Figure 5b) and ``barrier_stall_cycles``.
    """

    cycles: float
    instructions: int
    tlp: int
    blocks_executed: int
    l1: CacheStats
    l2: CacheStats
    mshr_stall_events: int
    mshr_stall_cycles: float
    barrier_stall_cycles: float
    idle_cycles: float
    local_load_insts: int
    local_store_insts: int
    shared_insts: int
    global_insts: int
    bypassed_insts: int
    dram_transactions: int
    dram_bytes: int
    issued_by_class: Dict[str, int]
    energy_nj: float = 0.0
    #: Always False; kept for the tools/ledger.json and serve-hits.json digests.
    estimated: bool = False

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1.hit_rate

    @property
    def local_insts(self) -> int:
        return self.local_load_insts + self.local_store_insts

    def summary(self) -> str:
        return (
            f"cycles={self.cycles:.0f} insts={self.instructions} "
            f"ipc={self.ipc:.2f} tlp={self.tlp} "
            f"l1_hit={self.l1_hit_rate:.2%} "
            f"mshr_stalls={self.mshr_stall_cycles:.0f}cy "
            f"local={self.local_insts}"
        )
