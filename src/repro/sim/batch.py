"""The SM timing core: one or many design points of a kernel per pass.

The paper's methodology sweeps one kernel across many (reg, TLP) design
points.  This module is the only cycle model in the repository, and
:meth:`_Lane.advance` its only run loop: a single point is a batch of
one (:func:`repro.sim.gpu.simulate_traces`), a profile sweep is one
batch with a lane per TLP, and the chip-level mode
(:func:`repro.sim.multisim.simulate_multi_sm`) advances one lane per SM,
a cycle at a time, over a shared L2 and DRAM channel.

* **Shared packing** — the block traces are compiled once into
  structure-of-arrays form: per-warp op streams become uniform tuples
  of kind codes, pre-resolved latencies, dense integer register ids and
  line-aligned addresses (:class:`PackedGrid`), replacing per-issue
  dataclass attribute walks and string-keyed scoreboard lookups.  The
  same packed grid drives every lane of a batch, and ops the trace
  shares between warps are packed once (memoized by identity).  The
  engine keeps the packed grid as its trace-cache entry, so a kernel's
  traces are packed once however many points replay them; every entry
  point here accepts a :class:`PackedGrid` wherever it accepts traces.
* **Static counters** — every dynamic instruction issues exactly once
  per run regardless of TLP, so instruction counts, per-class issue
  counts and local/shared/global/bypass totals are properties of the
  *trace*, not of the timing.  They are counted once at pack time and
  never touched in the hot loop.
* **GTO only, one inlined issue path** — every warp scheduler is
  greedy-then-oldest (GTO), the policy the paper's static OptTLP model
  mimics (Section 4.1).  :meth:`_Lane.advance` first picks the warp
  (the greedy warp continues, or the oldest eligible warp takes over),
  then runs one inlined issue body for the two commonest op kinds,
  compute and the single-line L1 access, including the L1 refusal when
  every MSHR is busy.  Every other op (a barrier, shared memory, a
  global store, a multi-line or L1-bypassing access) goes through
  :meth:`_Lane._issue`, whose cache accesses call ``probe``.

**Why per-lane clocks (and not one shared clock).**  A lane jumps its
clock to *its own* next event when no warp can issue (``now = max(now +
1, next_event)``).  Under a single shared batch clock a stalled lane
would instead be re-stepped at every other lane's issue cycle and would
observe its wakeup at the first *shared* cycle at or after the event —
a different (often fractional-cycle later) issue time, hence different
cycle counts.  A lane's answer must not depend on which other points
share its batch, so each lane advances on its own clock; the batch wins
by sharing the packing, the static counters and a lean per-issue code
path, not by merging clocks.  Lanes share nothing mutable (only the
read-only packed grid), so each runs to completion in turn.  The SMs of
the chip-level mode do share the L2 and DRAM, so they interleave: at
chip cycle ``now``, every lane whose clock is at most ``now`` runs that
one cycle (``advance(now)``), and the chip clock then moves to
``max(now + 1, earliest lane clock)``, so a lane woken at a fractional
event time issues at the next chip cycle.  The golden
ledger (``tools/ledger.json``, checked by ``tools/ledger_gate.py``)
pins every answer, recorded from the scalar simulator this core
replaced.

Schema: :data:`BATCH_SCHEMA_VERSION` is folded into the engine's
simulation-cache keys, so results produced before/after a change in the
core's semantics can never alias.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..arch.config import GPUConfig
from ..ptx.isa import LatencyClass, Space
from .cache import Cache, DRAMModel, make_l2_slice_config
from .energy import attach_energy
from .executor import BlockTrace
from .stats import SimResult

#: Revision of the timing core's semantics; folded into engine cache
#: keys (see :func:`repro.engine.cache.cache_schema_version`) so a
#: change here invalidates previously cached results wholesale.
BATCH_SCHEMA_VERSION = 1

# Packed op kind codes.
_COMPUTE = 0
_MEM = 1
_BARRIER = 2

# Packed memory modes.
_MEM_SHARED = 0
_MEM_GSTORE = 1
_MEM_BYPASS = 2
_MEM_L1 = 3

# Per-op counting categories, counted once at pack time:
# 0 alu · 1 sfu · 2 ctrl · 3 barrier · 4 local load · 5 local store ·
# 6 shared · 7 global · 8 global bypassed load · 9 local bypassed load.
_N_CATEGORIES = 10


class _Warp:
    __slots__ = ("pc", "ops", "n", "rr", "slot", "barrier_arrival")

    def __init__(self, ops, slot: int, nregs: int):
        self.pc = 0
        self.ops = ops
        self.n = len(ops)
        self.rr = [0.0] * nregs
        self.slot = slot
        self.barrier_arrival = 0.0


class _Sched:
    """One warp scheduler's state (paper Table 2: two per SM).

    Greedy-then-oldest: it keeps issuing from its greedy warp until
    that warp stalls, then takes the oldest (lowest-id) ready warp.
    Ready times live in a ``(time, warp id)`` pending heap, with two
    shortcuts:

    * **Side channel** — the greedy warp never round-trips through
      the pending heap.  Its single next-ready time lives in
      :attr:`gready` (``None`` while the warp is being issued); the
      side channel is flushed back into the heap the moment another
      warp takes over the greedy slot, so every pick and every event
      jump is the one a plain heap would give.  GTO pins issue to one
      warp for long runs, so this removes most heap traffic.
    * **Eligible list** — every live warp holds exactly one token at a
      time (a pending entry, an eligible entry, or the greedy side
      channel), so eligibility is a plain list: the pick is ``min()``
      and the list is almost always one or two entries long.
    """

    __slots__ = ("pending", "eligible", "greedy", "gready")

    def __init__(self):
        self.pending: List[Tuple[float, int]] = []
        self.eligible: List[int] = []
        self.greedy: Optional[int] = None
        self.gready: Optional[float] = None  # greedy warp's parked time

    def add(self, warp_id: int, ready_at: float, now: float) -> None:
        if ready_at <= now:
            self.eligible.append(warp_id)
        else:
            heappush(self.pending, (ready_at, warp_id))


class _Slot:
    __slots__ = ("live", "barrier_count", "waiters")

    def __init__(self):
        self.live = 0
        self.barrier_count = 0
        self.waiters: List[int] = []


def _pack_op(op, reg_index: Dict[str, int], alu: int, sfu: int, ctrl: int,
             shared_lat: int, line_bytes: int) -> Tuple[tuple, int]:
    """Compile one :class:`WarpOp` to its uniform tuple + category code."""
    setdefault = reg_index.setdefault
    dst = op.dst
    dst_idx = -1 if dst is None else setdefault(dst, len(reg_index))
    srcs = tuple(setdefault(s, len(reg_index)) for s in op.srcs)
    kind = op.kind
    if kind is LatencyClass.MEM:
        space = op.space
        is_store = op.is_store
        bypass_load = op.bypass_l1 and not is_store
        if space is Space.LOCAL:
            category = 5 if is_store else (9 if bypass_load else 4)
        elif space is Space.SHARED:
            category = 6
        else:
            category = 8 if bypass_load else 7
        if space is Space.SHARED:
            cost = shared_lat + 2 * (op.conflict - 1)
            return (_MEM, _MEM_SHARED, cost, dst_idx, srcs, (), False), 6
        if is_store and space is Space.GLOBAL:
            mode = _MEM_GSTORE
        elif bypass_load:
            mode = _MEM_BYPASS
        else:
            mode = _MEM_L1
        # Align once here so probes skip per-access line arithmetic
        # (the executor already emits aligned lines; this is a no-op
        # guard against traces packed with a different geometry).
        lines = tuple(a - a % line_bytes for a in op.lines)
        return (_MEM, mode, 0, dst_idx, srcs, lines, is_store), category
    if kind is LatencyClass.BARRIER:
        return (_BARRIER, 0, 0, -1, srcs, (), False), 3
    if kind is LatencyClass.ALU:
        return (_COMPUTE, alu, 0, dst_idx, srcs, (), False), 0
    if kind is LatencyClass.SFU:
        return (_COMPUTE, sfu, 0, dst_idx, srcs, (), False), 1
    # CTRL: issue latency doubles as the post-issue pipeline bubble.
    return (_COMPUTE, ctrl, ctrl, dst_idx, srcs, (), False), 2


class PackedGrid:
    """Traces compiled to structure-of-arrays form, shared by all lanes.

    ``blocks`` holds per-block lists of per-warp op streams; each op is
    a uniform 7-tuple ``(kind, a, b, dst, srcs, lines, store)``:

    ==========  =======================================================
    kind        ``_COMPUTE`` / ``_MEM`` / ``_BARRIER``
    a           compute: issue latency; mem: memory mode
    b           compute: post-issue bubble (ctrl); mem-shared: the full
                pre-resolved shared-memory cost ``lat + 2*(conflict-1)``
    dst         dense register index of the destination (-1: none)
    srcs        tuple of dense source register indices
    lines       coalesced cache-line addresses (mem only)
    store       bool, mem mode ``_MEM_L1`` only
    ==========  =======================================================

    Ops are memoized by object identity.  The trace executor interns
    its ops (one ``WarpOp`` object per program position for non-memory
    ops, one per position, lines, active lanes and conflict for memory
    ops), so the memo hits across the warps of an instruction, across
    blocks and across loop iterations, and each op is compiled once.
    The static counters are counted per op category while packing.

    Packing resolves latencies and line alignment from ``config``, so a
    grid replays only under the config it was packed for.
    """

    __slots__ = (
        "config", "blocks", "num_warps", "nregs", "instructions",
        "issued_by_class", "local_load_insts", "local_store_insts",
        "shared_insts", "global_insts", "bypassed_insts",
    )

    def __init__(self, traces: Sequence[BlockTrace], config: GPUConfig):
        self.config = config
        lat = config.latency
        alu, sfu, ctrl = lat.alu, lat.sfu, lat.ctrl
        shared_lat = lat.shared_mem
        line_bytes = config.l1.line_bytes
        reg_index: Dict[str, int] = {}
        memo: Dict[int, Tuple[tuple, int]] = {}
        self.blocks: List[List[List[tuple]]] = []
        self.num_warps: List[int] = []
        counts = [0] * _N_CATEGORIES
        memo_get = memo.get
        for trace in traces:
            packed_block: List[List[tuple]] = []
            for ops in trace.warp_ops:
                stream: List[tuple] = []
                append = stream.append
                for op in ops:
                    key = id(op)
                    entry = memo_get(key)
                    if entry is None:
                        entry = memo[key] = _pack_op(
                            op, reg_index, alu, sfu, ctrl, shared_lat,
                            line_bytes,
                        )
                    append(entry[0])
                    counts[entry[1]] += 1
                packed_block.append(stream)
            self.blocks.append(packed_block)
            self.num_warps.append(trace.num_warps)
        self.nregs = len(reg_index)
        self.instructions = sum(counts)
        by_class: Dict[str, int] = {}
        for category, klass in (
            (0, LatencyClass.ALU), (1, LatencyClass.SFU),
            (2, LatencyClass.CTRL), (3, LatencyClass.BARRIER),
        ):
            if counts[category]:
                by_class[klass.value] = counts[category]
        mem_total = sum(counts[4:])
        if mem_total:
            by_class[LatencyClass.MEM.value] = mem_total
        self.issued_by_class = by_class
        self.local_load_insts = counts[4] + counts[9]
        self.local_store_insts = counts[5]
        self.shared_insts = counts[6]
        self.global_insts = counts[7] + counts[8]
        self.bypassed_insts = counts[8] + counts[9]


#: What the entry points replay: block traces, or traces already packed.
Traces = Union[Sequence[BlockTrace], PackedGrid]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic GC over a block that allocates hundreds of
    thousands of containers but no reference cycles (tracing, packing,
    the run loop): a collection there finds no garbage, it only rescans
    the containers.  Leaves the GC off if the caller had turned it off.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _Lane:
    """One design point's timing state on one SM.

    One SM runs ``tlp`` thread blocks concurrently; when a block
    retires, the next block of the grid launches into its slot.  Each
    scheduler issues at most one warp instruction per cycle.  Per-warp
    dependencies are tracked with a register scoreboard: an instruction
    issues when its source registers' producing instructions have
    completed, so independent instructions of one warp pipeline
    back-to-back while dependent chains pay full latency — the
    behaviour that makes extra spill *loads* expensive and lets TLP
    hide them.  Memory instructions walk the L1 -> L2 -> DRAM hierarchy
    with real addresses from the trace; MSHR exhaustion stalls the warp
    until an entry frees (``mshr_stall_cycles``, the paper's congestion
    stalls of Figure 5b).

    :meth:`advance` runs the lane on its own clock, to completion
    (single-SM runs and sweeps) or until the clock passes ``stop`` (one
    cycle of the chip-level loop, where ``l2`` and ``dram`` are shared
    by every SM's lane).  ``warp_limit`` caps the schedulable warps
    (fine-grained throttling, paper ref [2]): the rest park until an
    active warp retires.
    """

    __slots__ = (
        "packed", "tlp", "requested_tlp",
        "scheds", "nsched", "warps", "slots", "next_block",
        "blocks_executed", "active_warps", "now", "finish",
        "idle_cycles", "mshr_stall_events", "mshr_stall_cycles",
        "barrier_stall_cycles", "l1", "l2", "dram", "block_launch",
        "warp_limit", "scheduled", "parked",
    )

    def __init__(
        self,
        config: GPUConfig,
        packed: PackedGrid,
        tlp: int,
        warp_limit: Optional[int] = None,
        l2: Optional[Cache] = None,
        dram: Optional[DRAMModel] = None,
    ):
        if tlp <= 0:
            raise ValueError("tlp must be positive")
        if warp_limit is not None and warp_limit <= 0:
            raise ValueError("warp_limit must be positive")
        self.packed = packed
        nblocks = len(packed.blocks)
        self.tlp = min(tlp, nblocks) if nblocks else tlp
        self.requested_tlp = tlp
        lat = config.latency
        if l2 is None or dram is None:
            dram = DRAMModel(
                latency=lat.dram - lat.l2_hit,
                bytes_per_cycle=config.dram_bytes_per_cycle,
                line_bytes=config.l1.line_bytes,
            )
            l2 = Cache(
                make_l2_slice_config(config),
                hit_latency=lat.l2_hit - lat.l1_hit,
                next_mem=dram.access,
            )
        self.dram = dram
        self.l2 = l2
        self.l1 = Cache(config.l1, hit_latency=lat.l1_hit, next_cache=l2)
        self.block_launch = lat.block_launch
        self.nsched = config.num_schedulers
        self.scheds = [_Sched() for _ in range(self.nsched)]
        self.warps: List[_Warp] = []
        self.slots = [_Slot() for _ in range(self.tlp)]
        self.next_block = 0
        self.blocks_executed = 0
        self.active_warps = 0
        self.now = 0.0
        self.finish: Optional[float] = None
        self.idle_cycles = 0.0
        self.mshr_stall_events = 0
        self.mshr_stall_cycles = 0.0
        self.barrier_stall_cycles = 0.0
        self.warp_limit = warp_limit
        self.scheduled = 0
        self.parked: List[Tuple[int, float]] = []  # (warp id, launch at)
        # Launch the initial wave at cycle 0.
        for slot_idx in range(self.tlp):
            if self.next_block < nblocks:
                self._launch_block(slot_idx, 0.0)
        if self.active_warps == 0:
            self.finish = 0.0

    # ------------------------------------------------------------------
    def _launch_block(self, slot_idx: int, now: float) -> None:
        packed = self.packed
        block_idx = self.next_block
        block = packed.blocks[block_idx]
        slot = self.slots[slot_idx]
        slot.live = packed.num_warps[block_idx]
        slot.barrier_count = 0
        slot.waiters = []
        self.next_block = block_idx + 1
        launch_at = now + self.block_launch
        nregs = packed.nregs
        nsched = self.nsched
        scheds = self.scheds
        warps = self.warps
        limit = self.warp_limit
        for stream in block:
            warp_id = len(warps)
            warps.append(_Warp(stream, slot_idx, nregs))
            self.active_warps += 1
            if limit is not None:
                if self.scheduled >= limit:
                    self.parked.append((warp_id, launch_at))
                    continue
                self.scheduled += 1
            scheds[warp_id % nsched].add(warp_id, launch_at, now)

    def _retire_warp(self, warp_id: int, warp: _Warp, sched: _Sched,
                     now: float) -> None:
        self.active_warps -= 1
        if sched.greedy == warp_id:
            sched.greedy = None
            sched.gready = None
        if self.warp_limit is not None:
            self.scheduled -= 1
            self._unpark(now)
        slot = self.slots[warp.slot]
        slot.live -= 1
        if slot.live == 0:
            self.blocks_executed += 1
            if self.next_block < len(self.packed.blocks):
                self._launch_block(warp.slot, now)

    def _unpark(self, now: float) -> None:
        """Admit the longest-parked warp, no earlier than next cycle."""
        if not self.parked:
            return
        warp_id, launch_at = self.parked.pop(0)
        self.scheduled += 1
        self.scheds[warp_id % self.nsched].add(
            warp_id, max(launch_at, now + 1), now
        )

    def _next_ready(self, warp: _Warp, base: float) -> float:
        dep = base
        rr = warp.rr
        for src in warp.ops[warp.pc][4]:
            t = rr[src]
            if t > dep:
                dep = t
        return dep

    def _arrive_barrier(self, warp_id: int, warp: _Warp, sched: _Sched,
                        now: float) -> None:
        slot = self.slots[warp.slot]
        if sched.greedy == warp_id:
            sched.greedy = None
            sched.gready = None
        warp.barrier_arrival = now
        slot.barrier_count += 1
        slot.waiters.append(warp_id)
        if slot.barrier_count < slot.live:
            return
        release = now + 1
        nsched = self.nsched
        scheds = self.scheds
        warps = self.warps
        for waiting_id in slot.waiters:
            waiting = warps[waiting_id]
            self.barrier_stall_cycles += release - waiting.barrier_arrival
            wsched = scheds[waiting_id % nsched]
            if waiting.pc >= waiting.n:
                self._retire_warp(waiting_id, waiting, wsched, now)
            else:
                wsched.add(
                    waiting_id, self._next_ready(waiting, release), now
                )
        slot.barrier_count = 0
        slot.waiters = []

    # ------------------------------------------------------------------
    def _issue(self, warp_id: int, now: float, sched: _Sched) -> None:
        """Issue an op :meth:`advance` does not inline: a barrier, or a
        memory access other than the single-line L1 one."""
        warp = self.warps[warp_id]
        ops = warp.ops
        op = ops[warp.pc]
        if op[0] == _BARRIER:
            warp.pc += 1
            self._arrive_barrier(warp_id, warp, sched, now)
            return
        mode = op[1]
        lines = op[5]
        if mode == _MEM_SHARED:
            complete = now + op[2]
        elif mode == _MEM_GSTORE:
            l1 = self.l1
            for i, line in enumerate(lines):
                if l1.probe_no_allocate(line, now + i) is None:
                    self._mshr_stall(warp_id, l1.retry_at, now, sched)
                    return
            complete = now + 1 + len(lines)
        else:
            # Several L1 lines, or a load that bypasses the L1.
            cache = self.l1 if mode == _MEM_L1 else self.l2
            is_store = op[6]
            ready = now
            for i, line in enumerate(lines):
                r = cache.probe(line, now + i, is_store)
                if r is None:
                    self._mshr_stall(warp_id, cache.retry_at, now, sched)
                    return
                if r > ready:
                    ready = r
            complete = now + 1 + len(lines) if is_store else ready
        dst = op[3]
        if dst >= 0:
            warp.rr[dst] = complete
        pc = warp.pc + 1
        warp.pc = pc
        if pc >= warp.n:
            self._retire_warp(warp_id, warp, sched, now)
            return
        sched.gready = self._next_ready(warp, now + 1)

    def _mshr_stall(self, warp_id: int, retry_at: float, now: float,
                    sched: _Sched) -> None:
        retry = max(retry_at, now + 1)
        self.mshr_stall_events += 1
        self.mshr_stall_cycles += retry - now
        heappush(sched.pending, (retry, warp_id))
        if sched.greedy == warp_id:
            sched.greedy = None
            sched.gready = None

    # ------------------------------------------------------------------
    def advance(self, stop: float = math.inf) -> None:
        """Run the lane on its own clock until its last warp retires or
        its clock passes ``stop``."""
        if self.finish is not None:
            return
        now = self.now
        scheds = self.scheds
        warps = self.warps
        issue = self._issue
        push = heappush
        pop = heappop
        # The L1's containers are mutated in place, never replaced.
        l1 = self.l1
        l1_sets = l1.sets
        l1_lb = l1.line_bytes
        l1_ns = l1.num_sets
        l1_fh = l1.fill_heap
        l1_mshr = l1.mshr
        l1_entries = l1.entries
        l1_hit = l1.hit_latency
        while True:
            issued = False
            # Earliest event among the scheds that did NOT issue this
            # cycle, folded into the main pass so a no-issue cycle
            # needs no second scan to find its jump target.
            next_time = None
            for sched in scheds:
                # GTO pick: the greedy warp continues with no heap
                # traffic, or the oldest eligible warp takes over and
                # the old greedy's side channel is flushed back to the
                # heap (see ``_Sched``).
                g = sched.greedy
                if g is not None and sched.gready <= now:
                    warp_id = g
                else:
                    pending = sched.pending
                    elig = sched.eligible
                    while pending and pending[0][0] <= now:
                        elig.append(pop(pending)[1])
                    if not elig:
                        t = pending[0][0] if pending else None
                        if g is not None:
                            gr = sched.gready
                            if t is None or gr < t:
                                t = gr
                        if t is not None and (next_time is None
                                              or t < next_time):
                            next_time = t
                        continue
                    if len(elig) == 1:
                        warp_id = elig.pop()
                    else:
                        warp_id = min(elig)
                        elig.remove(warp_id)
                    if g is not None:
                        push(pending, (sched.gready, g))
                    sched.greedy = warp_id
                issued = True
                # One issue body for both picks.  The compute op and the
                # single-line L1 access, together the bulk of all issue
                # slots, are inlined; everything else goes to ``_issue``.
                warp = warps[warp_id]
                wops = warp.ops
                pc = warp.pc
                op = wops[pc]
                k = op[0]
                if k == _COMPUTE:
                    rr = warp.rr
                    dst = op[3]
                    if dst >= 0:
                        rr[dst] = now + op[1]
                    pc += 1
                    warp.pc = pc
                    if pc < warp.n:
                        dep = now + 1 + op[2]
                        for src in wops[pc][4]:
                            t = rr[src]
                            if t > dep:
                                dep = t
                        sched.gready = dep
                    else:
                        self._retire_warp(warp_id, warp, sched, now)
                    continue
                lines = op[5]
                if k != _MEM or op[1] != _MEM_L1 or len(lines) != 1:
                    sched.gready = None
                    issue(warp_id, now, sched)
                    continue
                line = lines[0]
                is_store = op[6]
                cs = l1_sets[(line // l1_lb) % l1_ns]
                if l1_fh and l1_fh[0][0] <= now:
                    r = l1.probe(line, now, is_store)
                elif line in cs:
                    # L1 hit with no fills due: same stats, same LRU
                    # move as ``probe``, no call.
                    del cs[line]
                    cs[line] = True
                    l1.accesses += 1
                    l1.hits += 1
                    if is_store:
                        l1.write_accesses += 1
                    r = now + l1_hit
                elif line not in l1_mshr and len(l1_mshr) >= l1_entries:
                    # A miss with every MSHR busy and no fill due: the
                    # refusal ``probe`` would make, counted the same.
                    l1.accesses += 1
                    l1.misses += 1
                    l1.full_events += 1
                    if is_store:
                        l1.write_accesses += 1
                    l1.retry_at = l1_fh[0][0]
                    r = None
                else:
                    r = l1.probe(line, now, is_store)
                if r is None:
                    # MSHR congestion stall.
                    retry = l1.retry_at
                    floor = now + 1
                    if floor > retry:
                        retry = floor
                    self.mshr_stall_events += 1
                    self.mshr_stall_cycles += retry - now
                    push(sched.pending, (retry, warp_id))
                    sched.greedy = None
                    sched.gready = None
                    continue
                rr = warp.rr
                dst = op[3]
                if dst >= 0:
                    rr[dst] = now + 2 if is_store else r
                pc += 1
                warp.pc = pc
                if pc < warp.n:
                    dep = now + 1
                    for src in wops[pc][4]:
                        t = rr[src]
                        if t > dep:
                            dep = t
                    sched.gready = dep
                else:
                    self._retire_warp(warp_id, warp, sched, now)
            if self.active_warps == 0:
                self.now = now
                self.finish = now
                return
            if issued:
                now += 1
            elif next_time is not None:
                # Jump to the event: ``now = max(now + 1, next_time)``,
                # without the two builtin calls per idle jump.
                gap = next_time - now
                if gap > 0:
                    self.idle_cycles += gap
                now += 1
                if next_time > now:
                    now = next_time
            elif self.parked:
                # Warp-limit deadlock guard: every schedulable warp
                # waits at a barrier for a parked sibling — admit one.
                self._unpark(now)
                continue
            else:
                raise RuntimeError(
                    "simulation deadlock: active warps but no pending "
                    "events (mismatched barriers?)"
                )
            if now > stop:
                self.now = now
                return

    # ------------------------------------------------------------------
    def result(self) -> SimResult:
        packed = self.packed
        return SimResult(
            cycles=self.finish,
            instructions=packed.instructions,
            tlp=self.requested_tlp,
            blocks_executed=self.blocks_executed,
            l1=self.l1.stats,
            l2=self.l2.stats,
            mshr_stall_events=self.mshr_stall_events,
            mshr_stall_cycles=self.mshr_stall_cycles,
            barrier_stall_cycles=self.barrier_stall_cycles,
            idle_cycles=self.idle_cycles,
            local_load_insts=packed.local_load_insts,
            local_store_insts=packed.local_store_insts,
            shared_insts=packed.shared_insts,
            global_insts=packed.global_insts,
            bypassed_insts=packed.bypassed_insts,
            dram_transactions=self.dram.transactions,
            dram_bytes=self.dram.bytes_transferred,
            issued_by_class=dict(packed.issued_by_class),
        )


def simulate_traces_batched(
    traces: Traces,
    config: GPUConfig,
    tlps: Sequence[int],
    warp_limit: Optional[int] = None,
) -> List[SimResult]:
    """One result per requested TLP, energy attached: the sweep form of
    :func:`repro.sim.gpu.simulate_traces`, which is its one-TLP call.

    Each TLP is one lane (duplicates give duplicate lanes).  Every lane
    replays one :class:`PackedGrid`, packed here unless ``traces`` come
    packed, and runs to completion on its own clock in turn, so a
    lane's result does not depend on the other TLPs of the call.
    ``warp_limit`` applies to every lane.
    """
    if not tlps:
        raise ValueError("batch needs at least one design point")
    if not isinstance(traces, PackedGrid):
        traces = PackedGrid(traces, config)
    elif traces.config != config:
        raise ValueError("the grid was packed for another config")
    results = []
    # The hot loop allocates heap tuples and floats only.
    with gc_paused():
        for tlp in tlps:
            lane = _Lane(config, traces, tlp, warp_limit)
            lane.advance()
            results.append(attach_energy(lane.result()))
    return results
