"""Paper Section 7.7: framework overhead.

OptTLP via profiling costs one simulation per TLP; the static code
analysis costs a single pass ("average overhead is only 1 millisecond"
on their setup).  The design-space exploration itself is negligible.
"""

import time

from conftest import run_once

from repro.arch import FERMI
from repro.analysis import estimate_opt_tlp
from repro.bench import format_table
from repro.core import collect_resource_usage, default_allocation
from repro.sim import simulate_traces_batched, trace_grid
from repro.workloads import load_workload

APPS = ["CFD", "HST", "KMN"]


def _measure():
    rows = []
    for abbr in APPS:
        workload = load_workload(abbr)
        usage = collect_resource_usage(
            workload.kernel, FERMI, default_reg=workload.default_reg
        )
        allocation = default_allocation(workload.kernel, usage)
        traces = trace_grid(
            allocation.kernel, FERMI, workload.grid_blocks, workload.param_sizes
        )

        # The engine's profiling sweep: every TLP in one batched run.
        t0 = time.perf_counter()
        simulate_traces_batched(traces, FERMI, range(1, usage.max_tlp + 1))
        profiling_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        estimate_opt_tlp(allocation.kernel, FERMI, usage.max_tlp)
        static_s = time.perf_counter() - t1

        rows.append((abbr, usage.max_tlp, profiling_s, static_s))
    return rows


def test_overhead_static_vs_profiling(benchmark, record, capsys):
    rows = run_once(benchmark, _measure)
    # Seconds change from run to run, so they go to stdout; the recorded
    # table (diffed against the committed one) holds clock-free content.
    with capsys.disabled():
        for abbr, n, profiling_s, static_s in rows:
            print(
                f"\n{abbr}: profiling {n} TLPs {profiling_s:.3f} s, "
                f"static analysis {static_s:.4f} s "
                f"({profiling_s / max(1e-9, static_s):.0f}x)"
            )
        total = sum(r[2] for r in rows) / max(1e-9, sum(r[3] for r in rows))
        print(f"static analysis is {total:.0f}x cheaper than profiling overall")

    # Shape: the static estimator is at least an order of magnitude
    # cheaper than exhaustive profiling on every app.
    for abbr, _, profiling_s, static_s in rows:
        assert static_s * 10 < profiling_s, abbr

    table = format_table(
        ["app", "profiled TLPs"],
        [(a, n) for a, n, _, _ in rows],
        title="Section 7.7: OptTLP estimation overhead",
    )
    record(
        "overhead",
        table + "\nstatic analysis is at least 10x cheaper than profiling "
        "on every app (paper: hours of simulation vs ~1 ms of analysis)",
    )
