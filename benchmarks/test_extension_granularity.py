"""Extension: throttling granularity — warps [2] vs thread blocks [3].

Paper Section 2.1: "The granularity of thread throttling can vary from
fine-grained (warps) [2] to coarse-grained (thread blocks) [3]."  The
paper builds on block-level throttling; this bench sweeps both knobs on
the cache-sensitive apps and compares their best points — fine-grained
limiting can land between two block-level stairs.
"""

from conftest import run_once

from repro.arch import FERMI
from repro.bench import evaluate_app, format_table
from repro.core import default_allocation
from repro.sim import simulate_traces, trace_grid

APPS = ["KMN", "STM", "HST"]


def _collect():
    rows = []
    for abbr in APPS:
        ev = evaluate_app(abbr)
        workload = ev.workload
        usage = ev.crat.usage
        allocation = default_allocation(workload.kernel, usage)
        traces = trace_grid(
            allocation.kernel, FERMI, workload.grid_blocks, workload.param_sizes
        )
        warps_per_block = workload.kernel.block_size // FERMI.warp_size

        block_best = None
        for tlp in range(1, usage.max_tlp + 1):
            cycles = simulate_traces(traces, FERMI, tlp).cycles
            if block_best is None or cycles < block_best[1]:
                block_best = (tlp, cycles)

        warp_best = None
        max_warps = usage.max_tlp * warps_per_block
        limits = sorted({w for w in range(2, max_warps + 1, 2)} | {max_warps})
        for limit in limits:
            cycles = simulate_traces(
                traces, FERMI, usage.max_tlp, warp_limit=limit
            ).cycles
            if warp_best is None or cycles < warp_best[1]:
                warp_best = (limit, cycles)

        rows.append(
            (
                abbr,
                f"TLP={block_best[0]} ({block_best[0] * warps_per_block} warps)",
                f"{block_best[1]:.0f}",
                f"{warp_best[0]} warps",
                f"{warp_best[1]:.0f}",
                block_best[1] / warp_best[1],
            )
        )
    return rows


def test_extension_throttling_granularity(benchmark, record):
    rows = run_once(benchmark, _collect)
    table = format_table(
        ["app", "best block-level", "cycles", "best warp-level", "cycles",
         "warp/block speedup"],
        rows,
        title="Extension: thread-throttling granularity (warps vs blocks)",
    )
    record("extension_granularity", table)

    # Shape: fine-grained throttling matches or beats coarse-grained on
    # every cache-sensitive app (it can stop between stairs), and wins
    # outright somewhere.
    assert all(r[5] >= 0.97 for r in rows)
    assert any(r[5] >= 1.03 for r in rows)
