"""Extension: CRAT composed with static cache bypassing (paper Sec. 8).

"Our CRAT framework can be used together with cache bypassing
techniques to further improve the cache performance."  This bench
applies the static bypass pass to the CRAT-chosen kernel of the
streaming-heavy apps and measures the composition.
"""

from conftest import run_once

from repro.arch import FERMI
from repro.bench import evaluate_app, format_table
from repro.ir import run_pipeline
from repro.sim import simulate_traces, trace_grid

STREAMING_APPS = ["LBM", "SPMV", "BLK"]


def _collect():
    rows = []
    for abbr in STREAMING_APPS:
        ev = evaluate_app(abbr)
        workload = ev.workload
        crat_kernel = ev.crat.chosen.allocation.kernel
        bypass = run_pipeline(crat_kernel, "bypass")
        traces = trace_grid(
            bypass.kernel, FERMI, workload.grid_blocks, workload.param_sizes
        )
        sim = simulate_traces(traces, FERMI, ev.crat.tlp)
        rows.append(
            (
                abbr,
                bypass.total_applied,
                f"{ev.crat.sim.cycles:.0f}",
                f"{sim.cycles:.0f}",
                ev.crat.sim.cycles / sim.cycles,
                f"{ev.crat.sim.l1_hit_rate:.1%}",
                f"{sim.l1_hit_rate:.1%}",
            )
        )
    return rows


def test_extension_crat_plus_bypassing(benchmark, record):
    rows = run_once(benchmark, _collect)
    table = format_table(
        ["app", "bypassed loads", "CRAT cycles", "CRAT+bypass cycles",
         "extra speedup", "L1 hit (CRAT)", "L1 hit (+bypass)"],
        rows,
        title="Extension: CRAT composed with static cache bypassing",
    )
    record("extension_bypass", table)

    # Shape: bypassing composes — streaming apps mark loads and never
    # lose materially; at least one gains.
    marked = [r for r in rows if r[1] > 0]
    assert marked, "streaming apps must have bypassable loads"
    assert all(r[4] >= 0.97 for r in rows)
    assert any(r[4] >= 1.01 for r in marked)
