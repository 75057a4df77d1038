#!/usr/bin/env python
"""Golden-ledger gate: every pinned answer of the timing core and the
optimization passes, checked against ``tools/ledger.json``.

The ledger holds two kinds of entry:

* **design points** — the cycles and a sha256 of every
  :class:`~repro.sim.stats.SimResult` field
  (``json.dumps(dataclasses.asdict(result), sort_keys=True)``) for
  - the corpus staircase: ``examples/*.ptx`` plus all 22 suite apps at
    every TLP of each kernel's staircase (1..max_tlp), under both warp
    schedulers (``staircase``);
  - every SM of the chip-level runs of ``tests/test_multisim.py`` and
    ``benchmarks/test_ablation_multisim.py`` (``multi_sm``);
  - the warp-throttling points of ``tests/test_warp_limit.py`` and
    ``benchmarks/test_extension_granularity.py`` (``warp_limit``);
* **pass outputs** — for each corpus kernel and each opt pass, the
  sha256 of the printed output kernel and the pass's counters (``opt``),
  plus how many rewrites the full registry pipeline applies under
  per-rewrite translation validation (``verified_rewrites``).

A check fails on any drifting entry and names it, saying whether its
cycles moved; a verified-pipeline diagnostic fails it too.  The tier-1
tests (``tests/test_batch_differential.py``,
``tests/test_opt_differential.py``, ``tests/test_multisim.py``,
``tests/test_warp_limit.py``) read the same ledger through the helpers
below.

Run from the repository root::

    PYTHONPATH=src python tools/ledger_gate.py           # check
    PYTHONPATH=src python tools/ledger_gate.py --write   # regenerate

``--write`` is for a deliberate answer change only; state the reason
in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import glob
import hashlib
import json
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import opt  # noqa: E402
from repro.arch import get_config  # noqa: E402
from repro.core import collect_resource_usage, default_allocation  # noqa: E402
from repro.errors import VerificationError  # noqa: E402
from repro.ir import run_pipeline  # noqa: E402
from repro.ptx import parse_kernel, print_kernel  # noqa: E402
from repro.sim import (  # noqa: E402
    simulate_multi_sm,
    simulate_traces,
    simulate_traces_batched,
    trace_grid,
)
from repro.workloads import full_suite, load_workload  # noqa: E402

LEDGER_PATH = os.path.join(REPO, "tools", "ledger.json")

CONFIG = get_config("fermi")

#: Grid size for bare example kernels (suite apps carry their own).
EXAMPLE_GRID_BLOCKS = 12

SCHEDULERS = ("gto", "lrr")

#: (label, pass callable, counter attributes) — one ``opt`` entry each.
PASSES = [
    ("copy_prop", opt.propagate_copies, ("rewritten_uses",)),
    ("dce", opt.eliminate_dead_code, ("removed", "passes")),
    ("bypass", opt.apply_static_bypass, ("bypassed_loads",)),
    ("schedule", opt.schedule_for_mlp, ("moved_instructions",)),
    ("unroll", opt.unroll_loops,
     ("unrolled_loops", "skipped_loops", "factor")),
    ("optimize", opt.optimize_kernel,
     ("rewritten_uses", "removed_instructions")),
]

#: The registry pipeline exercised under per-rewrite verification.
VERIFIED_SPEC = "unroll,copy-prop,dce,mlp-sched,bypass,minreg-sched"

#: Multi-SM runs: (label, trace source, block slice end, tlp, num_sms).
#: ``HST`` is the workload kernel; ``*@alloc`` is its default allocation.
MULTI_SM_RUNS = [
    ("HST", "HST", None, 2, 4), ("HST", "HST", None, 2, 2),
    ("HST", "HST", None, 1, 4), ("HST[:1]", "HST", 1, 2, 4),
    ("HST[:2]", "HST", 2, 2, 8), ("HST[:3]", "HST", 3, 2, 8),
]
#: Apps whose default allocation is swept TLP 1..max_tlp on 4 SMs.
MULTI_SM_SWEEP_APPS = ("KMN", "HST")
MULTI_SM_SWEEP_SMS = 4

#: Warp-throttling points of tests/test_warp_limit.py:
#: (trace source, tlp, warp limit or None).
WARP_LIMIT_POINTS = (
    [("KMN@alloc", 4, limit) for limit in (None, 4, 6, 8, 16, 32)]
    + [("KMN@alloc", 2, None), ("KMN@alloc", 2, 1000), ("HST", 2, 4)]
)
#: Apps of benchmarks/test_extension_granularity.py.
GRANULARITY_APPS = ("KMN", "STM", "HST")


# ----------------------------------------------------------------------
# Entry encoding (shared with the tier-1 tests).
# ----------------------------------------------------------------------
def result_digest(result) -> str:
    """sha256 of every field of a :class:`SimResult`."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def sim_entry(result) -> Dict[str, object]:
    return {"cycles": result.cycles, "sha256": result_digest(result)}


def pass_entry(result, counters) -> Dict[str, object]:
    text = print_kernel(result.kernel)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "counters": {attr: getattr(result, attr) for attr in counters},
    }


def staircase_key(name: str, scheduler: str, tlp: int) -> str:
    return f"{name}/{scheduler}/tlp={tlp}"


def multi_sm_key(label: str, tlp: int, num_sms: int, sm: int) -> str:
    return f"{label}/tlp={tlp}/sms={num_sms}/sm={sm}"


def warp_limit_key(source: str, tlp: int, limit) -> str:
    return f"{source}/tlp={tlp}/limit={limit}"


def opt_key(name: str, label: str) -> str:
    return f"{name}/{label}"


def load_ledger(path: str = LEDGER_PATH) -> Dict[str, Dict]:
    with open(path) as handle:
        return json.load(handle)


def describe_drift(key: str, expected, actual) -> str:
    """One line naming a drifting design point and whether its cycles
    moved (or, for a pass entry, whether its output kernel changed)."""
    if expected is None:
        return f"{key}: not in the ledger"
    if actual is None:
        return f"{key}: in the ledger but no longer produced"
    if "cycles" in expected:
        if expected["cycles"] != actual["cycles"]:
            return (f"{key}: cycles moved {expected['cycles']} -> "
                    f"{actual['cycles']}")
        return f"{key}: cycles unchanged, other SimResult fields drifted"
    if expected["sha256"] != actual["sha256"]:
        return f"{key}: output kernel changed"
    changed = [
        f"{attr} {value} -> {actual['counters'].get(attr)}"
        for attr, value in expected["counters"].items()
        if actual["counters"].get(attr) != value
    ]
    return f"{key}: counters drifted ({', '.join(changed)})"


# ----------------------------------------------------------------------
# Corpora.
# ----------------------------------------------------------------------
def example_kernels() -> Iterator[Tuple[str, object]]:
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.ptx"))):
        with open(path) as handle:
            yield os.path.basename(path), parse_kernel(handle.read())


def opt_corpus() -> Iterator[Tuple[str, object]]:
    """(name, kernel) over examples/*.ptx and the full suite."""
    yield from example_kernels()
    for workload in full_suite():
        yield workload.abbr, load_workload(workload.abbr).kernel


def example_case(kernel) -> Tuple[List, int]:
    """(traces, max_tlp) of a bare example kernel; raises when the
    kernel cannot be traced."""
    traces = trace_grid(kernel, CONFIG, EXAMPLE_GRID_BLOCKS, None)
    return traces, collect_resource_usage(kernel, CONFIG).max_tlp


def app_case(abbr: str, allocated: bool = False) -> Tuple[List, int]:
    """(traces, max_tlp) of a suite app: its workload kernel, or with
    ``allocated`` its default register allocation (what the throttling
    and chip-level benchmarks trace)."""
    workload = load_workload(abbr)
    usage = collect_resource_usage(
        workload.kernel, CONFIG, default_reg=workload.default_reg
    )
    kernel = workload.kernel
    if allocated:
        kernel = default_allocation(workload.kernel, usage).kernel
    traces = trace_grid(
        kernel, CONFIG, workload.grid_blocks, workload.param_sizes
    )
    return traces, usage.max_tlp


def staircase_corpus() -> Iterator[Tuple[str, List, int]]:
    """(name, traces, max_tlp) over every traceable kernel."""
    for name, kernel in example_kernels():
        try:
            traces, max_tlp = example_case(kernel)
        except Exception as err:
            print(f"skip {name}: untraceable ({err})")
            continue
        yield name, traces, max_tlp
    for workload in full_suite():
        yield (workload.abbr, *app_case(workload.abbr))


@functools.lru_cache(maxsize=None)
def trace_source(source: str) -> Tuple[List, int]:
    """:func:`app_case` by name (``"KMN@alloc"``), traced once per run."""
    abbr, _, variant = source.partition("@")
    return app_case(abbr, allocated=variant == "alloc")


# ----------------------------------------------------------------------
# Producing every entry from the current code.
# ----------------------------------------------------------------------
def staircase_entries() -> Dict[str, Dict]:
    entries = {}
    for name, traces, max_tlp in staircase_corpus():
        tlps = list(range(1, max_tlp + 1))
        for scheduler in SCHEDULERS:
            results = simulate_traces_batched(
                traces, CONFIG, tlps, scheduler=scheduler
            )
            for tlp, result in zip(tlps, results):
                entries[staircase_key(name, scheduler, tlp)] = sim_entry(result)
    return entries


def multi_sm_entries() -> Dict[str, Dict]:
    runs = list(MULTI_SM_RUNS)
    for abbr in MULTI_SM_SWEEP_APPS:
        _, max_tlp = trace_source(f"{abbr}@alloc")
        runs.extend(
            (f"{abbr}@alloc", f"{abbr}@alloc", None, tlp, MULTI_SM_SWEEP_SMS)
            for tlp in range(1, max_tlp + 1)
        )
    entries = {}
    for label, source, end, tlp, num_sms in runs:
        traces = trace_source(source)[0][:end]
        results = simulate_multi_sm(traces, CONFIG, tlp, num_sms=num_sms)
        for sm, result in enumerate(results):
            entries[multi_sm_key(label, tlp, num_sms, sm)] = sim_entry(result)
    return entries


def warp_limit_points() -> List[Tuple[str, int, object]]:
    points = list(WARP_LIMIT_POINTS)
    for abbr in GRANULARITY_APPS:
        source = f"{abbr}@alloc"
        _, max_tlp = trace_source(source)
        block_size = load_workload(abbr).kernel.block_size
        warps_per_block = block_size // CONFIG.warp_size
        max_warps = max_tlp * warps_per_block
        points.extend((source, tlp, None) for tlp in range(1, max_tlp + 1))
        limits = sorted(set(range(2, max_warps + 1, 2)) | {max_warps})
        points.extend((source, max_tlp, limit) for limit in limits)
    return points


def warp_limit_entries() -> Dict[str, Dict]:
    entries = {}
    for source, tlp, limit in warp_limit_points():
        key = warp_limit_key(source, tlp, limit)
        if key not in entries:
            result = simulate_traces(
                trace_source(source)[0], CONFIG, tlp, warp_limit=limit
            )
            entries[key] = sim_entry(result)
    return entries


def opt_entries(failures: List[str]) -> Tuple[Dict[str, Dict], Dict[str, int]]:
    entries = {}
    verified = {}
    for name, kernel in opt_corpus():
        for label, fn, counters in PASSES:
            entries[opt_key(name, label)] = pass_entry(fn(kernel), counters)
        try:
            result = run_pipeline(kernel, VERIFIED_SPEC, verify=True)
        except VerificationError as err:
            failures.append(
                f"{name}: verified pipeline raised: {err} "
                f"({len(err.diagnostics)} diagnostic(s))"
            )
            continue
        verified[name] = result.total_applied
    return entries, verified


SECTIONS: List[Tuple[str, Callable[[], Dict]]] = [
    ("staircase", staircase_entries),
    ("multi_sm", multi_sm_entries),
    ("warp_limit", warp_limit_entries),
]


def build(failures: List[str]) -> Dict[str, Dict]:
    ledger: Dict[str, Dict] = {}
    for section, produce in SECTIONS:
        t0 = time.perf_counter()
        ledger[section] = produce()
        print(f"ledger-gate: {section}: {len(ledger[section])} entries, "
              f"{time.perf_counter() - t0:.1f}s")
    t0 = time.perf_counter()
    ledger["opt"], ledger["verified_rewrites"] = opt_entries(failures)
    print(f"ledger-gate: opt: {len(ledger['opt'])} entries, "
          f"{sum(ledger['verified_rewrites'].values())} individually "
          f"verified rewrites, {time.perf_counter() - t0:.1f}s")
    return ledger


def compare(expected: Dict[str, Dict], actual: Dict[str, Dict]) -> List[str]:
    drift = []
    for section in sorted(set(expected) | set(actual)):
        want = expected.get(section, {})
        got = actual.get(section, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) == got.get(key):
                continue
            if section == "verified_rewrites":
                drift.append(f"verified_rewrites {key}: "
                             f"{want.get(key)} -> {got.get(key)}")
            else:
                drift.append(f"{section} " + describe_drift(
                    key, want.get(key), got.get(key)))
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the ledger from the current code (a deliberate "
             "answer change only; state the reason in CHANGES.md)",
    )
    args = parser.parse_args(argv)
    failures: List[str] = []
    actual = build(failures)
    if args.write:
        with open(LEDGER_PATH, "w") as handle:
            json.dump(actual, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"ledger-gate: wrote {LEDGER_PATH}")
    else:
        failures.extend(compare(load_ledger(), actual))
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print(f"ledger-gate: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("ledger-gate: zero drift, zero diagnostics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
