"""Static OptTLP estimation by mimicking GTO scheduling (paper Fig 10b).

"Recent study [5] has shown that the OptTLP can be estimated by using a
greedy-warp scheduler (greedy-then-oldest, GTO).  The behind intuition
is if when the first thread block finishes execution, only n thread
blocks are involved in the GTO scheduling, then n thread blocks will be
sufficient for this application" (Section 4.1).

The mimic runs ``MaxTLP`` identical segment streams (one per block) on
one virtual core: the greedy block computes until it issues a memory
segment, then blocks for the average memory latency while the next
oldest ready block runs.  The paper's extensions are included: memory
*bandwidth* is modeled with a busy-until channel, and *cache
contention* inflates the average latency as more blocks become
involved.  The estimate is the number of distinct blocks that executed
anything before the first block finished.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..arch.config import GPUConfig
from ..ptx.module import Kernel
from .segments import DEFAULT_TRIP_COUNT, Segment, segment_kernel


@dataclasses.dataclass
class StaticEstimate:
    """Result of the static analysis."""

    opt_tlp: int
    blocks_involved: int
    first_block_finish: float
    segments: List[Segment]


def _expand(segments: List[Segment]) -> List[Segment]:
    """Unroll weighted segments into a bounded explicit stream.

    Loop segments repeat ``weight`` times; to keep the mimic cheap the
    expansion is capped and the segment latencies scaled so total work
    is preserved.
    """
    stream: List[Segment] = []
    cap = 64  # repeats beyond this are folded into scaled segments
    for seg in segments:
        repeats = max(1, int(round(seg.weight)))
        if repeats <= cap:
            stream.extend(
                Segment(seg.kind, seg.cycles, seg.mem_requests, 1.0)
                for _ in range(repeats)
            )
        else:
            scale = repeats / cap
            stream.extend(
                Segment(seg.kind, seg.cycles * scale, int(seg.mem_requests * scale), 1.0)
                for _ in range(cap)
            )
    return stream


def estimate_opt_tlp(
    kernel: Kernel,
    config: GPUConfig,
    max_tlp: int,
    hit_ratio: float = 0.6,
    trip_count: int = DEFAULT_TRIP_COUNT,
    segments: Optional[List[Segment]] = None,
) -> StaticEstimate:
    """Estimate OptTLP via the GTO-scheduling mimic.

    ``hit_ratio`` is the empirically measured average L1 hit ratio
    (Section 4.1 measures it once across applications); the average
    memory latency is ``hit * l1 + miss * dram``.  Cache contention is
    modeled by degrading the effective hit ratio as more blocks join
    the scheduling, and bandwidth by a busy-until memory channel.
    """
    if max_tlp <= 0:
        raise ValueError("max_tlp must be positive")
    if segments is None:
        segments = segment_kernel(kernel, config, trip_count=trip_count)
    stream = _expand(segments)
    if not stream:
        return StaticEstimate(1, 1, 0.0, segments)

    # The GTO mimic of [5] counts blocks involved when the first block
    # retires; under bandwidth-bound streams that count saturates at
    # MaxTLP, so — per the paper's extension — the mimic also models
    # the memory channel and cache contention and OptTLP is the block
    # count with the best mimic-predicted *throughput* (makespan per
    # block), evaluated over n = 1..MaxTLP.
    best_n = 1
    best_cost = None
    for n in range(1, max_tlp + 1):
        outcome = _mimic(stream, n, config, hit_ratio)
        cost = outcome.makespan / n
        if best_cost is None or cost < best_cost * 0.995:
            best_cost = cost
            best_n = n
    first = _mimic(stream, max_tlp, config, hit_ratio)
    return StaticEstimate(
        opt_tlp=best_n,
        blocks_involved=first.involved,
        first_block_finish=first.first_finish,
        segments=segments,
    )


@dataclasses.dataclass
class _MimicOutcome:
    makespan: float
    first_finish: float
    involved: int


def _mimic(
    stream: List[Segment], n: int, config: GPUConfig, hit_ratio: float
) -> _MimicOutcome:
    """Run ``n`` identical segment streams through the GTO mimic."""
    lat = config.latency
    pc = [0] * n
    ready = [0.0] * n  # when each block's outstanding memory returns
    involved = set()
    channel_busy = 0.0
    bytes_per_cycle = config.dram_bytes_per_cycle
    line = config.l1.line_bytes

    # Contention extension: each concurrent block erodes locality.
    effective_hit = hit_ratio / (1.0 + 0.3 * max(0, n - 1))
    mem_latency = effective_hit * lat.l1_hit + (1.0 - effective_hit) * lat.dram
    miss_ratio = 1.0 - effective_hit

    now = 0.0
    greedy: Optional[int] = None
    first_finish: Optional[float] = None
    guard = 0
    limit = (len(stream) + 2) * n + 8
    while guard <= limit:
        guard += 1
        unfinished = [i for i in range(n) if pc[i] < len(stream)]
        if not unfinished:
            break
        eligible = [i for i in unfinished if ready[i] <= now]
        if not eligible:
            now = min(ready[i] for i in unfinished)
            continue
        block = greedy if greedy in eligible else min(eligible)
        greedy = block
        involved.add(block)
        # Run the block's segments until it must wait on memory.
        while pc[block] < len(stream):
            seg = stream[pc[block]]
            pc[block] += 1
            if seg.is_memory and seg.mem_requests:
                # Bandwidth extension: misses occupy the channel.
                transfer = seg.mem_requests * miss_ratio * line / bytes_per_cycle
                start = max(now + seg.cycles, channel_busy)
                channel_busy = start + transfer
                ready[block] = start + transfer + mem_latency
                now += seg.cycles  # core occupied only for the issue slots
                greedy = None
                break
            now += seg.cycles
        if pc[block] >= len(stream):
            done_at = max(now, ready[block])
            if first_finish is None:
                first_finish = done_at
    makespan = max([now] + ready)
    return _MimicOutcome(
        makespan=makespan,
        first_finish=first_finish if first_finish is not None else makespan,
        involved=max(1, len(involved)),
    )
