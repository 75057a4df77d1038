"""Multi-SM simulation: N SMs sharing the L2 and the DRAM channel.

The paper simulates 15 SMs; the per-figure benchmarks here simulate one
SM with an interference-discounted L2 slice, which is far cheaper.
This module provides the full-chip mode used to *validate* that the
single-SM model is representative: every SM runs the same kernel at the
same TLP, blocks are distributed round-robin, the L2 is the whole
768 KB chip cache contended by everyone, and the DRAM channel carries
``num_sms`` times the per-SM bandwidth share.

Each SM is one lane of the timing core (:mod:`repro.sim.batch`).  SMs
advance in lock-step over a global clock; when no SM can issue, the
clock jumps to the earliest pending event.
"""

from __future__ import annotations

from typing import List, Optional

from ..arch.config import GPUConfig
from .batch import PackedGrid, _Lane
from .cache import Cache, DRAMModel, make_l2_slice_config
from .executor import BlockTrace
from .stats import SimResult


def simulate_multi_sm(
    traces: List[BlockTrace],
    config: GPUConfig,
    tlp: int,
    num_sms: Optional[int] = None,
) -> List[SimResult]:
    """Simulate ``num_sms`` SMs (default: the config's count) sharing
    the chip-level L2 and DRAM; returns exactly one :class:`SimResult`
    per SM — including SMs the round-robin deal left without blocks,
    which report zero cycles and zero work.

    The block list is dealt round-robin across SMs, mirroring the
    hardware block scheduler's greedy distribution.
    """
    if tlp <= 0:
        raise ValueError("tlp must be positive")
    n = config.num_sms if num_sms is None else num_sms
    if n <= 0:
        raise ValueError("num_sms must be positive")
    lat = config.latency

    dram = DRAMModel(
        latency=lat.dram - lat.l2_hit,
        bytes_per_cycle=config.dram_bytes_per_cycle * n,
        line_bytes=config.l1.line_bytes,
    )
    l2 = Cache(
        make_l2_slice_config(config, whole=True),
        hit_latency=lat.l2_hit - lat.l1_hit,
        next_mem=dram.access,
    )

    # One lane per SM slot, trace-less SMs included: the returned list
    # always has ``n`` entries, so callers can index it by SM and
    # chip-level aggregates (makespan, per-SM load skew) see the idle
    # SMs instead of a silently shorter list.  A lane's ``finish`` is
    # ``None`` until it drains; 0.0 is a legitimate finish time for an
    # SM with no blocks.
    lanes = [
        _Lane(config, PackedGrid(traces[sm_index::n], config), tlp,
              l2=l2, dram=dram)
        for sm_index in range(n)
    ]

    now = 0.0
    while True:
        live = [lane for lane in lanes if lane.finish is None]
        if not live:
            break
        issued = False
        for lane in live:
            if lane.step(now):
                issued = True
        if issued:
            now += 1
            continue
        times = [
            t
            for lane in live
            if lane.finish is None
            for t in (lane.next_event_time(),)
            if t is not None
        ]
        if not times:
            break
        now = max(now + 1, min(times))

    for lane in lanes:
        if lane.finish is None:
            lane.now = now
    return [lane.result() for lane in lanes]


def makespan(results: List[SimResult]) -> float:
    """Chip-level completion time: the slowest SM."""
    return max(r.cycles for r in results) if results else 0.0
