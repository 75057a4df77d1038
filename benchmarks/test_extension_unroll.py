"""Extension: unrolling + MLP scheduling under CRAT's coordination.

Unrolling with load hoisting buys memory-level parallelism at the cost
of register pressure — exactly the single-thread-performance-vs-TLP
tension CRAT manages (related work [27] applies loop optimization;
CRAT decides whether the registers it costs are worth it).  This bench
transforms cache-sensitive kernels at several unroll factors and lets
CRAT re-coordinate each variant.
"""

from conftest import run_once

from repro.arch import FERMI
from repro.bench import evaluate_app, format_table
from repro.core import CRATOptimizer
from repro.ir import GreedyRewriteDriver, run_pipeline
from repro.opt import UnrollPattern
from repro.regalloc import register_demand

APPS = ["KMN", "STM"]
FACTORS = [2, 4]


def _collect():
    rows = []
    for abbr in APPS:
        ev = evaluate_app(abbr)
        workload = ev.workload
        base_cycles = ev.crat.sim.cycles
        rows.append(
            (abbr, 1, register_demand(workload.kernel),
             f"({ev.crat.reg},{ev.crat.tlp})", f"{base_cycles:.0f}", 1.0)
        )
        for factor in FACTORS:
            unrolled = GreedyRewriteDriver([UnrollPattern(factor)]).run(
                workload.kernel
            )
            if not unrolled.applied:
                continue
            transformed = run_pipeline(unrolled.kernel, "mlp-sched").kernel
            optimizer = CRATOptimizer(FERMI)
            result = optimizer.optimize(
                transformed,
                grid_blocks=workload.grid_blocks,
                param_sizes=workload.param_sizes,
            )
            rows.append(
                (
                    abbr,
                    factor,
                    register_demand(transformed),
                    f"({result.reg},{result.tlp})",
                    f"{result.sim.cycles:.0f}",
                    base_cycles / result.sim.cycles,
                )
            )
    return rows


def test_extension_unroll_under_crat(benchmark, record):
    rows = run_once(benchmark, _collect)
    table = format_table(
        ["app", "unroll", "MaxReg", "CRAT point", "cycles",
         "speedup vs CRAT(x1)"],
        rows,
        title="Extension: unrolling + load hoisting, re-coordinated by CRAT",
    )
    record("extension_unroll", table)

    by_app = {}
    for row in rows:
        by_app.setdefault(row[0], []).append(row)
    for abbr, app_rows in by_app.items():
        assert len(app_rows) >= 2, f"{abbr}: no unrolled variant ran"
        # Pressure grows with the unroll factor...
        demands = [r[2] for r in app_rows]
        assert demands == sorted(demands), abbr
        # ...and CRAT turns the transformation into a net win somewhere.
        assert max(r[5] for r in app_rows[1:]) >= 1.05, abbr
        # Coordination never lets the transformed kernel collapse.
        assert all(r[5] >= 0.8 for r in app_rows), abbr
