"""Shared fixtures: small kernels used across the test suite."""

from __future__ import annotations

import functools
import glob
import os

import pytest

from repro.ptx import CmpOp, DType, KernelBuilder, Space
from repro.workloads import ALL_APPS

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "examples"
)

#: The register-analysis corpus: every ``examples/*.ptx`` kernel, every
#: suite app's kernel and (``APP@alloc``) its default allocation.
ANALYSIS_CORPUS = (
    [
        os.path.basename(path)
        for path in sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.ptx")))
    ]
    + [app.abbr for app in ALL_APPS]
    + [f"{app.abbr}@alloc" for app in ALL_APPS]
)


@pytest.fixture(autouse=True)
def _no_ambient_cache_dir(monkeypatch):
    """An engine built without ``disk_cache`` reads ``REPRO_CACHE_DIR``.
    Clear it, so a test uses a disk cache only where it passes one, and
    entries left by other runs never reach its counters."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.fixture
def fail_at(monkeypatch):
    """``fail_at(*tlps)`` makes the timing core raise at those TLPs, and
    at every TLP when none is named.  A batch raises when any of its
    lanes would, and the engine then fails the whole call: nothing is
    re-run.  Patched where the engine looks both entry points up at
    call time."""
    import repro.engine.engine
    import repro.sim.gpu

    batched = repro.engine.engine.simulate_traces_batched
    scalar = repro.sim.gpu.simulate_traces

    def install(*tlps):
        def fails(tlp):
            return not tlps or tlp in tlps

        def failing_batch(traces, config, lanes, **kwargs):
            if any(fails(tlp) for tlp in lanes):
                raise RuntimeError(f"timing core failed in batch {lanes}")
            return batched(traces, config, lanes, **kwargs)

        def failing_scalar(traces, config, tlp, **kwargs):
            if fails(tlp):
                raise RuntimeError(f"timing core failed at TLP {tlp}")
            return scalar(traces, config, tlp, **kwargs)

        monkeypatch.setattr(
            repro.engine.engine, "simulate_traces_batched", failing_batch
        )
        monkeypatch.setattr(repro.sim.gpu, "simulate_traces", failing_scalar)

    return install


def build_tid_kernel():
    """Paper Listing 1-3: compute the global thread id and store it."""
    b = KernelBuilder("kernel", block_size=128)
    out = b.param("output", DType.U64)
    tid = b.special("%tid.x")
    ctaid = b.special("%ctaid.x")
    ntid = b.special("%ntid.x")
    gid = b.mad(ctaid, ntid, tid)
    g64 = b.cvt(gid, DType.U64)
    addr = b.mad(g64, b.imm(4, DType.U64), b.addr_of(out), dtype=DType.U64)
    b.st(Space.GLOBAL, addr, gid, dtype=DType.U32)
    return b.build()


def build_loop_kernel(trip=8, nvars=6):
    """A loop kernel with ``nvars`` loop-carried f32 accumulators."""
    b = KernelBuilder("loop_kernel", block_size=64)
    inp = b.param("input", DType.U64)
    out = b.param("output", DType.U64)
    tid = b.special("%tid.x")
    t64 = b.cvt(tid, DType.U64)
    off = b.mul(t64, b.imm(4, DType.U64), DType.U64)
    base = b.add(b.addr_of(inp), off, DType.U64)
    accs = [b.mov(b.imm(0.1 * (j + 1), DType.F32)) for j in range(nvars)]
    i = b.mov(b.imm(0, DType.S32))
    loop = b.label("loop")
    done = b.label("done")
    b.place(loop)
    p = b.setp(CmpOp.GE, i, b.imm(trip, DType.S32))
    b.bra(done, guard=p)
    v = b.ld(Space.GLOBAL, base, dtype=DType.F32)
    for acc in accs:
        b.mad(acc, b.imm(0.5, DType.F32), v, dst=acc)
    b.add(i, b.imm(1, DType.S32), dst=i)
    b.bra(loop)
    b.place(done)
    total = accs[0]
    for acc in accs[1:]:
        total = b.add(total, acc)
    oaddr = b.add(b.addr_of(out), off, DType.U64)
    b.st(Space.GLOBAL, oaddr, total)
    return b.build()


def build_pressure_kernel(nvars=20, trip=6):
    """High register pressure: ``nvars`` values all live across a loop."""
    b = KernelBuilder("pressure", block_size=64)
    inp = b.param("input", DType.U64)
    out = b.param("output", DType.U64)
    tid = b.special("%tid.x")
    t64 = b.cvt(tid, DType.U64)
    off = b.mul(t64, b.imm(4, DType.U64), DType.U64)
    addr = b.add(b.addr_of(inp), off, DType.U64)
    vals = [
        b.ld(Space.GLOBAL, addr, offset=4 * i, dtype=DType.F32)
        for i in range(nvars)
    ]
    i = b.mov(b.imm(0, DType.S32))
    loop = b.label("loop")
    done = b.label("done")
    b.place(loop)
    p = b.setp(CmpOp.GE, i, b.imm(trip, DType.S32))
    b.bra(done, guard=p)
    acc = vals[0]
    for v in vals[1:]:
        acc = b.add(acc, v)
    for j in range(len(vals)):
        b.add(vals[j], acc, dst=vals[j])
    b.add(i, b.imm(1, DType.S32), dst=i)
    b.bra(loop)
    b.place(done)
    acc2 = vals[0]
    for v in vals[1:]:
        acc2 = b.add(acc2, v)
    oaddr = b.add(b.addr_of(out), off, DType.U64)
    b.st(Space.GLOBAL, oaddr, acc2)
    return b.build()


@pytest.fixture
def tid_kernel():
    return build_tid_kernel()


@pytest.fixture
def loop_kernel():
    return build_loop_kernel()


@pytest.fixture
def pressure_kernel():
    return build_pressure_kernel()


@functools.lru_cache(maxsize=None)
def corpus_kernel(name):
    """The kernel of one :data:`ANALYSIS_CORPUS` entry."""
    from repro.arch import get_config
    from repro.core import collect_resource_usage, default_allocation
    from repro.ptx import parse_kernel
    from repro.workloads import load_workload

    if name.endswith(".ptx"):
        with open(os.path.join(EXAMPLES_DIR, name)) as handle:
            return parse_kernel(handle.read())
    abbr, _, variant = name.partition("@")
    workload = load_workload(abbr)
    if not variant:
        return workload.kernel
    usage = collect_resource_usage(
        workload.kernel, get_config("fermi"), default_reg=workload.default_reg
    )
    return default_allocation(workload.kernel, usage).kernel
