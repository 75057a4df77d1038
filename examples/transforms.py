#!/usr/bin/env python
"""Tour of the pre-allocation transforms and their CRAT interaction.

Takes one workload through the optimization pipeline —

1. copy propagation + dead-code elimination,
2. counted-loop unrolling with per-replica renaming,
3. MLP list scheduling (load hoisting),
4. static cache bypassing of streaming loads,

— showing at each step the instruction count, the register demand, and
finally what CRAT decides for the transformed kernel versus the
original.  The unroll/schedule steps raise register pressure to buy
memory-level parallelism; CRAT's job is to decide whether that trade
pays at the occupancy it costs.

Run:  python examples/transforms.py [APP] [UNROLL_FACTOR]
"""

import sys

from repro import CRATOptimizer, FERMI, load_workload, register_demand
from repro.ir import GreedyRewriteDriver, run_pipeline
from repro.opt import UnrollPattern


def report(stage, kernel):
    print(f"{stage:28} {len(kernel.instructions()):>5} insts   "
          f"demand {register_demand(kernel):>3} slots")
    return kernel


def main() -> None:
    abbr = sys.argv[1] if len(sys.argv) > 1 else "KMN"
    factor = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    workload = load_workload(abbr)
    kernel = workload.kernel
    print(f"== transform pipeline for {abbr} ==\n")
    report("original", kernel)

    cleaned = run_pipeline(kernel, "copy-prop,dce")
    removed = len(kernel.instructions()) - len(cleaned.kernel.instructions())
    kernel = report(f"copy-prop+DCE (-{removed})", cleaned.kernel)

    # The registry's ``unroll`` is factor 2; any other factor drives the
    # pattern directly.
    unrolled = GreedyRewriteDriver([UnrollPattern(factor)]).run(kernel)
    if unrolled.applied:
        kernel = report(f"unroll x{factor}", unrolled.kernel)
    else:
        print(f"unroll x{factor}: skipped (trip count mismatch)")

    scheduled = run_pipeline(kernel, "mlp-sched")
    kernel = report(
        f"MLP schedule ({scheduled.metadata_total('moved')} moved)",
        scheduled.kernel,
    )

    bypassed = run_pipeline(kernel, "bypass")
    kernel = report(
        f"static bypass ({bypassed.total_applied} loads .cg)",
        bypassed.kernel,
    )

    print("\nCRAT on the original vs the transformed kernel:")
    for name, k in (("original", workload.kernel), ("transformed", kernel)):
        optimizer = CRATOptimizer(FERMI)
        result = optimizer.optimize(
            k,
            default_reg=workload.default_reg if name == "original" else None,
            grid_blocks=workload.grid_blocks,
            param_sizes=workload.param_sizes,
        )
        print(f"  {name:12} -> (reg={result.reg}, TLP={result.tlp}), "
              f"{result.sim.cycles:.0f} cycles, "
              f"L1 hit {result.sim.l1_hit_rate:.1%}")


if __name__ == "__main__":
    main()
