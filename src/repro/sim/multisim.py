"""Multi-SM simulation: N SMs sharing the L2 and the DRAM channel.

The paper simulates 15 SMs; the per-figure benchmarks here simulate one
SM with an interference-discounted L2 slice, which is far cheaper.
This module provides the full-chip mode used to *validate* that the
single-SM model is representative: every SM runs the same kernel at the
same TLP, blocks are distributed round-robin, the L2 is the whole
768 KB chip cache contended by everyone, and the DRAM channel carries
``num_sms`` times the per-SM bandwidth share.

Each SM is one lane of the timing core (:mod:`repro.sim.batch`), run by
the loop every single-SM point runs, ``_Lane.advance``, one chip cycle
at a time.  At chip cycle ``now`` every lane whose clock is at most
``now`` runs that cycle, in SM order; a lane that cannot issue jumps its
own clock to its next event.  The chip clock then moves to ``max(now +
1, earliest lane clock)``: cycles where no SM can issue are skipped, and
a lane woken at a fractional event time issues at the next chip
cycle, so the SMs reach the shared L2 and DRAM in lock-step order.  A
one-SM chip gives the single-SM answer field for field, except energy.
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
    hardware block scheduler's greedy distribution.  Each SM's ``l2``,
    ``dram_transactions`` and ``dram_bytes`` are the shared chip
    totals, the same on every SM, and ``energy_nj`` stays 0.0.  A
    deadlock (a barrier some warp never reaches) raises
    :class:`RuntimeError`, as a single-SM run does.
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

    # The chip cycle loop of the module docstring.
    now = 0.0
    live = [lane for lane in lanes if lane.finish is None]
    while live:
        for lane in live:
            if lane.now <= now:
                lane.now = now
                lane.advance(now)
        live = [lane for lane in live if lane.finish is None]
        if live:
            now = max(now + 1, min(lane.now for lane in live))
    return [lane.result() for lane in lanes]


def makespan(results: List[SimResult]) -> float:
    """Chip-level completion time: the slowest SM."""
    return max(r.cycles for r in results) if results else 0.0
