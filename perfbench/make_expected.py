"""Regenerate the expected files of the benchmark.

Usage (from the checkout root)::

    python3 perfbench/make_expected.py suite-cold
    python3 perfbench/make_expected.py serve-hits
    python3 perfbench/make_expected.py serve-misses

Each evaluates its whole universe in this process, through the same
public entry points the workloads use, on fresh memory-only engines:

* ``suite-cold``: (reg, TLP, cycles) of CRAT, CRAT-local, MaxTLP and
  OptTLP for all 11 resource-sensitive apps, cross-checked against the
  committed ``benchmarks/results/fig13_main_result.txt`` (speedups, 3
  printed decimals) and ``fig14_selected_tlp.txt`` (MaxTLP and CRAT
  TLPs); a disagreement aborts without writing.
* ``serve-hits``: the digest of the ``crat`` reply of every job in the
  22 apps x {target, ptx} x {no passes, passes} x {verify} universe.
* ``serve-misses``: for every app, its grid, MaxTLP and the cycles of
  every ``simulate`` point at TLP 1..MaxTLP on the grid and half of it.

Only regenerate when the program's answers are meant to change.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def _write(workload: str, payload: dict) -> None:
    path = os.path.join(inputs.EXPECTED_DIR, f"{workload}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _fresh_engine():
    from repro.engine import EvaluationEngine, set_engine

    return set_engine(EvaluationEngine(jobs=1, disk_cache=""))


def _figure_rows(name: str) -> dict:
    path = os.path.join(ROOT, "benchmarks", "results", name)
    rows = {}
    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if parts and parts[0] in inputs.SENSITIVE:
                rows[parts[0]] = parts[1:]
    return rows


def suite_cold() -> dict:
    from repro.bench import evaluate_app

    apps = {}
    for abbr in inputs.SENSITIVE:
        _fresh_engine()
        ev = evaluate_app(abbr, "fermi")
        base = ev.baselines
        apps[abbr] = {
            "crat": [ev.crat.reg, ev.crat.tlp, ev.crat.sim.cycles],
            "crat_local": [ev.crat_local.reg, ev.crat_local.tlp,
                           ev.crat_local.sim.cycles],
            "maxtlp": [base["maxtlp"].reg, base["maxtlp"].tlp,
                       base["maxtlp"].sim.cycles],
            "opttlp": [base["opttlp"].reg, base["opttlp"].tlp,
                       base["opttlp"].sim.cycles],
        }
        print(abbr, apps[abbr], flush=True)

    fig13 = _figure_rows("fig13_main_result.txt")
    fig14 = _figure_rows("fig14_selected_tlp.txt")
    problems = []
    for abbr, app in apps.items():
        opt = app["opttlp"][2]
        got13 = [f"{opt / app[s][2]:.3f}"
                 for s in ("maxtlp", "opttlp", "crat_local", "crat")]
        if got13 != fig13[abbr]:
            problems.append(f"{abbr}: fig13 {fig13[abbr]} != {got13}")
        got14 = [str(app["maxtlp"][1]), str(app["crat"][1])]
        if got14 != fig14[abbr]:
            problems.append(f"{abbr}: fig14 {fig14[abbr]} != {got14}")
    if problems:
        raise SystemExit("cross-check failed:\n" + "\n".join(problems))
    gm = checks.geomean([checks.crat_speedup(a) for a in apps.values()])
    line = next(
        line for line in open(os.path.join(
            ROOT, "benchmarks", "results", "fig13_main_result.txt"))
        if line.startswith("geomean:")
    )
    printed = re.search(r"CRAT (\d\.\d{3})", line.split("CRAT-local")[1])
    if printed is None or printed.group(1) != f"{gm:.3f}":
        raise SystemExit(f"cross-check failed: geomean {gm:.3f} vs {line}")
    return {"apps": apps, "crat_speedup_geomean": gm}


def ptx_texts() -> dict:
    from repro.ptx import print_kernel
    from repro.workloads import load_workload

    return {
        app: print_kernel(load_workload(app).kernel)
        for app in inputs.SENSITIVE + inputs.INSENSITIVE
    }


def serve_hits() -> dict:
    from repro.service.jobs import execute, prepare
    from repro.service.protocol import Request

    texts = ptx_texts()
    digests = {}
    universe = inputs.hits_universe(inputs.SENSITIVE + inputs.INSENSITIVE)
    for ident in universe:
        if not ident.endswith("|-"):
            continue  # the verify-on twin reuses this engine below
        _fresh_engine()
        for twin in (ident, ident[:-1] + "v"):
            params = inputs.hits_params(twin, texts)
            result = execute(prepare(Request(job="crat", params=params)))
            digests[twin] = checks.digest(json.loads(json.dumps(result)))
        print(ident, digests[ident], flush=True)
    return {"passes": inputs.HITS_PASSES, "jobs": digests}


def serve_misses() -> dict:
    from repro.arch import get_config
    from repro.core import collect_resource_usage
    from repro.service.jobs import execute, prepare
    from repro.service.protocol import Request
    from repro.workloads import load_workload

    config = get_config("fermi")
    apps = {}
    for app in inputs.SENSITIVE + inputs.INSENSITIVE:
        _fresh_engine()
        workload = load_workload(app)
        usage = collect_resource_usage(
            workload.kernel, config, default_reg=workload.default_reg
        )
        grid = workload.grid_blocks
        cycles = {}
        for g in (grid, max(1, grid // 2)):
            cycles[str(g)] = {}
            for tlp in range(1, usage.max_tlp + 1):
                request = Request(job="simulate", params={
                    "target": app, "tlp": tlp, "grid": g,
                })
                cycles[str(g)][str(tlp)] = execute(prepare(request))["cycles"]
        apps[app] = {"grid": grid, "max_tlp": usage.max_tlp,
                     "cycles": cycles}
        print(app, apps[app], flush=True)
    return {"apps": apps}


MAKERS = {
    "suite-cold": suite_cold,
    "serve-hits": serve_hits,
    "serve-misses": serve_misses,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in MAKERS:
        raise SystemExit(f"usage: make_expected.py {{{','.join(MAKERS)}}}")
    _write(sys.argv[1], MAKERS[sys.argv[1]]())
