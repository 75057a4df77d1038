"""One ``suite-cold`` compiler process.

Usage: ``python3 perfbench/suite_child.py APPS [--trace] [--setup-only]``
with ``APPS`` a comma-separated list.

Set-up -- interpreter start, ``import repro`` and generating the apps'
workloads -- ends with a ``ready`` line on stdout.  Then every app goes
through CRAT and CRAT-local exactly as ``repro suite`` evaluates it, on
the process's fresh, memory-only engine with exhaustive profiling.  The
last stdout line is a JSON report: per-app seconds and (reg, TLP,
cycles) of every scheme, the timed section's wall time, peak RSS, the
engine's counters and, with ``--trace``, the recorded spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _point(reg: int, tlp: int, sim) -> list:
    return [reg, tlp, sim.cycles]


def main(argv) -> int:
    apps = argv[0].split(",")
    trace = "--trace" in argv
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import repro  # noqa: F401  (import is part of set-up)
    from repro.arch import get_config
    from repro.core import CRATOptimizer
    from repro.engine import get_engine
    from repro.workloads import load_workload

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    workloads = [load_workload(app) for app in apps]
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    config = get_config("fermi")
    report = {"apps": {}}
    t_start = time.perf_counter()
    for workload in workloads:
        if recorder is not None:
            recorder.request_id = workload.abbr
        t0 = time.perf_counter()
        # The two optimizer runs of repro.bench.evaluate_app, on the
        # workload generated during set-up.
        crat = CRATOptimizer(config, enable_shm_spill=True).optimize(
            workload.kernel,
            default_reg=workload.default_reg,
            grid_blocks=workload.grid_blocks,
            param_sizes=workload.param_sizes,
        )
        local = CRATOptimizer(config, enable_shm_spill=False).optimize(
            workload.kernel,
            default_reg=workload.default_reg,
            grid_blocks=workload.grid_blocks,
            param_sizes=workload.param_sizes,
            baselines=crat.baselines,
        )
        seconds = time.perf_counter() - t0
        report["apps"][workload.abbr] = {
            "seconds": seconds,
            "crat": _point(crat.reg, crat.tlp, crat.sim),
            "crat_local": _point(local.reg, local.tlp, local.sim),
            "maxtlp": _point(crat.baselines["maxtlp"].reg,
                             crat.baselines["maxtlp"].tlp,
                             crat.baselines["maxtlp"].sim),
            "opttlp": _point(crat.baselines["opttlp"].reg,
                             crat.baselines["opttlp"].tlp,
                             crat.baselines["opttlp"].sim),
        }
    report["wall_s"] = time.perf_counter() - t_start
    report["peak_rss_mb"] = _peak_rss_mb()
    report["engine"] = get_engine().stats.to_dict()
    if recorder is not None:
        report["trace"] = recorder.to_dict()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
