#!/usr/bin/env python
"""Build a custom PTX kernel, allocate it, and inspect the spill code.

Demonstrates the compiler surface end to end:

1. construct a register-hungry kernel with :class:`KernelBuilder` and
   pass it through the DF load gate (:func:`repro.verify.verify_kernel`);
2. print its PTX text (SSA-style virtual registers, paper Listing 2);
3. allocate it at shrinking register limits and watch spill code appear
   (paper Listing 4), including Algorithm 1's shared-memory sub-stacks;
4. prove the rewrite is semantics-preserving by executing both versions
   functionally and comparing outputs.

Run:  python examples/custom_kernel.py
"""

import numpy as np

from repro import allocate, print_kernel, register_demand
from repro.ptx import CmpOp, DType, KernelBuilder, Space
from repro.sim import GlobalMemory, run_grid
from repro.verify import verify_kernel


def build_kernel(nvals=18, trip=8):
    """A loop kernel carrying ``nvals`` f32 accumulators (high pressure)."""
    b = KernelBuilder("custom", block_size=64)
    inp = b.param("input", DType.U64)
    out = b.param("output", DType.U64)
    tid = b.special("%tid.x")
    t64 = b.cvt(tid, DType.U64)
    off = b.mul(t64, b.imm(4, DType.U64), DType.U64)
    base = b.add(b.addr_of(inp), off, DType.U64)
    vals = [b.mov(b.imm(0.1 * (j + 1), DType.F32)) for j in range(nvals)]
    i = b.mov(b.imm(0, DType.S32))
    loop = b.label("loop")
    done = b.label("done")
    b.place(loop)
    p = b.setp(CmpOp.GE, i, b.imm(trip, DType.S32))
    b.bra(done, guard=p)
    v = b.ld(Space.GLOBAL, base, dtype=DType.F32)
    for val in vals:
        b.mad(val, b.imm(0.75, DType.F32), v, dst=val)
    b.add(i, b.imm(1, DType.S32), dst=i)
    b.bra(loop)
    b.place(done)
    total = vals[0]
    for val in vals[1:]:
        total = b.add(total, val)
    oaddr = b.add(b.addr_of(out), off, DType.U64)
    b.st(Space.GLOBAL, oaddr, total)
    return b.build()


def run_functional(kernel):
    mem = GlobalMemory(kernel, {"input": 1 << 14, "output": 1 << 14})
    run_grid(kernel, mem, grid_blocks=2)
    return mem.read_buffer("output", DType.F32, 128)


def main() -> None:
    kernel = build_kernel()
    verify_kernel(kernel)
    demand = register_demand(kernel)
    print(f"kernel uses {kernel.register_count()} virtual registers, "
          f"register demand = {demand} slots\n")
    print("---- original PTX (first 12 lines) ----")
    print("\n".join(print_kernel(kernel).splitlines()[:12]))

    reference = run_functional(kernel)
    print("\nlimit  reg/thread  spilled  local-insts  shm-insts  remat  equivalent")
    for limit in (demand, demand - 4, demand - 8, max(14, demand // 2)):
        result = allocate(kernel, limit, spare_shm_bytes=1024)
        verify_kernel(result.kernel)
        output = run_functional(result.kernel)
        same = np.allclose(reference, output, rtol=1e-5)
        print(f"{limit:>5}  {result.reg_per_thread:>10}  "
              f"{len(result.spilled):>7}  {result.num_local_insts:>11}  "
              f"{result.num_shared_insts:>9}  {len(result.rematerialized):>5}  "
              f"{same}")

    tight = allocate(kernel, max(14, demand // 2), spare_shm_bytes=1024)
    print("\n---- allocated PTX at the tightest limit (first 16 lines) ----")
    print("\n".join(print_kernel(tight.kernel).splitlines()[:16]))
    if tight.shm_plan is not None:
        print("\nAlgorithm 1 placement:")
        for sub, picked in zip(tight.shm_plan.substacks, tight.shm_plan.chosen):
            where = "shared" if picked else "local"
            print(f"  sub-stack {sub.key}: {len(sub.variables)} vars, "
                  f"gain {sub.gain} -> {where}")


if __name__ == "__main__":
    main()
