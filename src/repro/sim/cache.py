"""Set-associative cache with LRU replacement, a finite MSHR table, and
the DRAM channel behind it.

This is the L1 data cache of paper Table 2 (32 KB, 4-way, 128 B lines,
LRU, 32 MSHR entries) and, with different geometry, the per-SM slice of
the L2.  Two behaviours matter for reproducing the paper:

* **capacity contention** — more concurrent thread blocks enlarge the
  aggregate working set past 32 KB and the hit rate collapses (Figure
  5a), which is why thread throttling helps;
* **MSHR congestion** — when every miss-status register is busy, new
  misses cannot even be issued and the pipeline stalls (Figure 5b's
  "stall caused by the congestion of cache requests").

The cache is timing-aware but event-free: a probe at time ``now``
returns when the data will be ready.  A missed line enters the MSHR
table and is promoted into the tag store only once its fill time has
passed, so back-to-back accesses to an in-flight line merge into the
outstanding request instead of fake-hitting.  MSHR exhaustion — at this
level or any level below — is reported by returning ``None``, with
:attr:`Cache.retry_at` holding the earliest cycle an entry frees up;
the timing core probes millions of times per sweep, so a stall must not
cost an exception.

Probes take line-aligned addresses: :class:`~repro.sim.batch.PackedGrid`
aligns every access once at pack time.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from ..arch.config import CacheConfig, GPUConfig


@dataclasses.dataclass
class CacheStats:
    """Access counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    mshr_full_events: int = 0
    evictions: int = 0
    write_accesses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def make_l2_slice_config(config: GPUConfig, whole: bool = False) -> CacheConfig:
    """The L2 geometry one SM's misses effectively see.

    ``whole=True`` returns the full chip-level L2 (for multi-SM
    simulation, where contention is explicit rather than modeled by the
    interference divisor).
    """
    if whole:
        size = config.l2_size_bytes
    else:
        size = max(
            config.l2_size_bytes // (config.num_sms * config.l2_interference),
            4 * 1024,
        )
    return CacheConfig(
        size_bytes=size,
        associativity=8,
        line_bytes=config.l1.line_bytes,
        mshr_entries=1 << 16,  # effectively unbounded at L2
    )


class Cache:
    """One set-associative, LRU, write-allocate cache level.

    Misses are serviced by ``next_cache`` (the L2 behind an L1) or, at
    the last level, by ``next_mem``, a callable ``(line, now) ->
    ready_at`` (the DRAM channel).  Each set is a plain dict in LRU
    order: a hit re-inserts its line at the end, and eviction drops the
    first key.
    """

    __slots__ = (
        "sets", "num_sets", "line_bytes", "assoc", "entries",
        "hit_latency", "next_cache", "next_mem", "mshr", "fill_heap",
        "retry_at", "accesses", "hits", "misses", "merges",
        "full_events", "evictions", "write_accesses",
    )

    def __init__(
        self,
        config: CacheConfig,
        hit_latency: int,
        next_cache: Optional["Cache"] = None,
        next_mem: Optional[Callable[[int, float], float]] = None,
    ):
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        self.assoc = config.associativity
        self.entries = config.mshr_entries
        self.hit_latency = hit_latency
        self.next_cache = next_cache
        self.next_mem = next_mem
        self.sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.mshr: Dict[int, float] = {}  # line -> fill time
        self.fill_heap: List[Tuple[float, int]] = []
        self.retry_at = 0.0
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.merges = 0
        self.full_events = 0
        self.evictions = 0
        self.write_accesses = 0

    def _promote(self, now: float) -> None:
        """Move MSHR entries whose data has arrived into the tag store."""
        heap = self.fill_heap
        mshr = self.mshr
        sets = self.sets
        line_bytes = self.line_bytes
        num_sets = self.num_sets
        assoc = self.assoc
        while heap and heap[0][0] <= now:
            fill_time, line = heappop(heap)
            if mshr.get(line) == fill_time:
                del mshr[line]
                cache_set = sets[(line // line_bytes) % num_sets]
                if len(cache_set) >= assoc:
                    del cache_set[next(iter(cache_set))]
                    self.evictions += 1
                cache_set[line] = True

    def probe(self, line: int, now: float,
              is_write: bool = False) -> Optional[float]:
        """Returns the data-ready cycle, or ``None`` on MSHR exhaustion
        at this or a lower level (:attr:`retry_at` holds the earliest
        free-up time of the exhausted level)."""
        fill_heap = self.fill_heap
        if fill_heap and fill_heap[0][0] <= now:
            self._promote(now)
        cache_set = self.sets[(line // self.line_bytes) % self.num_sets]
        self.accesses += 1
        if is_write:
            self.write_accesses += 1
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = True
            self.hits += 1
            return now + self.hit_latency
        self.misses += 1
        pending = self.mshr.get(line)
        if pending is not None:
            # Merge into the in-flight request.
            self.merges += 1
            return pending
        if len(self.mshr) >= self.entries:
            self.full_events += 1
            self.retry_at = fill_heap[0][0]
            return None
        nxt = self.next_cache
        if nxt is None:
            ready_at = self.next_mem(line, now)
        else:
            ready_at = nxt.probe(line, now, False)
            if ready_at is None:
                # Lower level exhausted before this one allocated: the
                # miss is counted here but takes no MSHR entry.
                self.retry_at = nxt.retry_at
                return None
        self.mshr[line] = ready_at
        heappush(self.fill_heap, (ready_at, line))
        return ready_at

    def probe_no_allocate(self, line: int, now: float) -> Optional[float]:
        """Write-evict access (Fermi global stores): hit evicts, miss
        bypasses; ``None`` when the level below is out of MSHRs."""
        if self.fill_heap and self.fill_heap[0][0] <= now:
            self._promote(now)
        cache_set = self.sets[(line // self.line_bytes) % self.num_sets]
        self.accesses += 1
        self.write_accesses += 1
        if line in cache_set:
            del cache_set[line]
            self.evictions += 1
        nxt = self.next_cache
        if nxt is None:
            return self.next_mem(line, now)
        ready = nxt.probe(line, now, False)
        if ready is None:
            self.retry_at = nxt.retry_at
        return ready

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the access counters."""
        return CacheStats(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            mshr_merges=self.merges,
            mshr_full_events=self.full_events,
            evictions=self.evictions,
            write_accesses=self.write_accesses,
        )


class DRAMModel:
    """Latency + bandwidth model for the DRAM behind the L2.

    Each transaction occupies the channel for ``line_bytes /
    bytes_per_cycle`` cycles; requests arriving while the channel is
    busy queue up, which is how bandwidth saturation at high TLP emerges
    (the paper's Section 4.1 extension: "we extend it by modeling the
    memory bandwidth").
    """

    __slots__ = (
        "latency", "bytes_per_cycle", "line_bytes", "busy_until",
        "transactions", "bytes_transferred",
    )

    def __init__(self, latency: int, bytes_per_cycle: float,
                 line_bytes: int = 128):
        self.latency = latency
        self.bytes_per_cycle = bytes_per_cycle
        self.line_bytes = line_bytes
        self.busy_until = 0.0
        self.transactions = 0
        self.bytes_transferred = 0

    def access(self, line_addr: int, now: float) -> float:
        service_start = max(now, self.busy_until)
        transfer = self.line_bytes / self.bytes_per_cycle
        self.busy_until = service_start + transfer
        self.transactions += 1
        self.bytes_transferred += self.line_bytes
        return service_start + transfer + self.latency
