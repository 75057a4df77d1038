#!/usr/bin/env python
"""Golden-ledger gate: every pinned answer of the timing core, register
allocation and the optimization passes, checked against
``tools/ledger.json``.

The ledger holds four kinds of entry:

* **design points** — the cycles and a sha256 of every
  :class:`~repro.sim.stats.SimResult` field
  (``json.dumps(dataclasses.asdict(result), sort_keys=True)``) for
  - the corpus staircase: ``examples/*.ptx`` plus all 22 suite apps at
    every TLP of each kernel's staircase (1..max_tlp) (``staircase``);
  - every SM of the chip-level runs of ``tests/test_multisim.py`` and
    ``benchmarks/test_ablation_multisim.py`` (``multi_sm``);
  - the warp-throttling points of ``tests/test_warp_limit.py`` and
    ``benchmarks/test_extension_granularity.py`` (``warp_limit``);
* **allocations** — for each of the 22 apps, with no passes and after
  ``copy-prop,dce,minreg-sched``, every
  :class:`~repro.core.params.ResourceUsage` field (MaxReg, MinReg, ...)
  and, for every CRAT and CRAT-local candidate allocation, a sha256 of
  the printed allocated kernel plus every scalar field of the
  :class:`~repro.regalloc.allocator.AllocationResult` (the counters
  TPSC reads, ``reg_per_thread``), its per-class colors and its sorted
  spilled names (``alloc``); every candidate must also pass
  :func:`~repro.verify.verify_allocation` with zero diagnostics;
* **pass outputs** — for each corpus kernel and each ``opt`` label, a
  registry pipeline spec (:data:`PASSES`), the sha256 of the printed
  output kernel and the counters read off its
  :class:`~repro.ir.pipeline.PipelineRunResult` (``opt``), plus how many
  rewrites :data:`~repro.ir.pipeline.VERIFIED_SPEC` applies under
  per-rewrite translation validation (``verified_rewrites``);
* **functional traces** — the warp-op count and a sha256 over every
  :class:`~repro.sim.executor.BlockTrace` of a grid (``traces``) for
  the examples at ``EXAMPLE_GRID_BLOCKS`` and at one block, all 22 apps
  and their default allocations, every CRAT and CRAT-local candidate
  allocation of the resource-sensitive apps (the local- and shm-spill
  paths), the ``%ctaid``-dependent kernels of
  ``tools/block_dependent.ptx`` (with a sha256 of their output buffer)
  and FDTD at a grid wider than one lockstep group of the executor.

A check fails on any drifting entry and names it, saying whether its
cycles (for a trace, its warp-op count) moved; a verified-pipeline or
candidate-allocation diagnostic fails it too.  The tier-1
tests (``tests/test_batch_differential.py``,
``tests/test_opt_differential.py``, ``tests/test_multisim.py``,
``tests/test_warp_limit.py``, ``tests/test_divergence.py``,
``tests/test_coloring.py``) read the same ledger through the helpers
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
import enum
import functools
import glob
import hashlib
import json
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.arch import get_config  # noqa: E402
from repro.arch.occupancy import compute_occupancy, spare_shm_per_block  # noqa: E402
from repro.core import collect_resource_usage, default_allocation, prune  # noqa: E402
from repro.errors import VerificationError  # noqa: E402
from repro.ir.pipeline import VERIFIED_SPEC, run_pipeline  # noqa: E402
from repro.opt import UnrollPattern  # noqa: E402
from repro.ptx import DType, parse_kernel, parse_module, print_kernel  # noqa: E402
from repro.regalloc.allocator import (  # noqa: E402
    AllocationResult,
    InsufficientRegistersError,
    allocate,
)
from repro.sim import (  # noqa: E402
    GlobalMemory,
    WarpOp,
    simulate_multi_sm,
    simulate_traces,
    simulate_traces_batched,
    trace_grid,
)
from repro.verify import verify_allocation  # noqa: E402
from repro.workloads import (  # noqa: E402
    RESOURCE_SENSITIVE,
    full_suite,
    load_workload,
)

LEDGER_PATH = os.path.join(REPO, "tools", "ledger.json")

CONFIG = get_config("fermi")

#: Grid size for bare example kernels (suite apps carry their own).
EXAMPLE_GRID_BLOCKS = 12


def _applied(pattern: str) -> Callable:
    """Rewrites ``pattern`` applied over a pipeline run's stages."""
    return lambda run: sum(stage.counters[pattern] for _, stage in run.stages)


#: (ledger label, registry pipeline spec, {counter: reader of the
#: spec's PipelineRunResult}) — one ``opt`` entry each.
PASSES = [
    ("copy_prop", "copy-prop",
     {"rewritten_uses": lambda run: run.metadata_total("rewritten_uses")}),
    ("dce", "dce",
     {"removed": _applied("dce"),
      "passes": lambda run: run.stages[0][1].sweeps}),
    ("bypass", "bypass", {"bypassed_loads": _applied("bypass")}),
    ("schedule", "mlp-sched",
     {"moved_instructions": lambda run: run.metadata_total("moved")}),
    ("unroll", "unroll",
     {"unrolled_loops": _applied("unroll"),
      "factor": lambda run: UnrollPattern().factor}),
    ("optimize", "copy-prop,dce",
     {"rewritten_uses": lambda run: run.metadata_total("rewritten_uses"),
      "removed_instructions": _applied("dce")}),
]

#: Pass pipelines the ``alloc`` section allocates after: none, and the
#: one the serve-hits benchmark sends.
ALLOC_PIPELINES = ("", "copy-prop,dce,minreg-sched")

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

#: The ``%ctaid``-dependent kernels, their grid and parameter buffers.
BLOCK_DEPENDENT_PATH = os.path.join(REPO, "tools", "block_dependent.ptx")
BLOCK_DEPENDENT_GRID = 6
BLOCK_DEPENDENT_PARAM_BYTES = 1 << 14

#: (app, grid) traced wider than one lockstep group of the executor
#: (FDTD: 40 blocks x 512 threads > 16,384 lanes).
WIDE_GRIDS = (("FDTD", 40),)


# ----------------------------------------------------------------------
# Entry encoding (shared with the tier-1 tests).
# ----------------------------------------------------------------------
def result_digest(result) -> str:
    """sha256 of every field of a :class:`SimResult`."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def sim_entry(result) -> Dict[str, object]:
    return {"cycles": result.cycles, "sha256": result_digest(result)}


def pass_entry(kernel, spec: str, counters) -> Dict[str, object]:
    """Run registry pipeline ``spec`` over ``kernel``: the sha256 of the
    printed output and each of ``counters`` read off the run."""
    run = run_pipeline(kernel, spec)
    text = print_kernel(run.kernel)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "counters": {name: read(run) for name, read in counters.items()},
    }


def usage_entry(usage) -> Dict[str, object]:
    """Every :class:`~repro.core.params.ResourceUsage` field."""
    return {"counters": dataclasses.asdict(usage)}


def allocation_entry(allocation) -> Dict[str, object]:
    """sha256 of the printed allocated kernel plus every scalar field of
    an :class:`AllocationResult`, its per-class colors and the sorted
    spilled names."""
    counters = {
        field.name: getattr(allocation, field.name)
        for field in dataclasses.fields(AllocationResult)
        if isinstance(getattr(allocation, field.name), (int, float))
    }
    counters["colors"] = {
        rc.name: count for rc, count in allocation.colors.items()
    }
    counters["spilled"] = sorted(allocation.spilled)
    text = print_kernel(allocation.kernel)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "counters": counters,
    }


def alloc_source(abbr: str, spec: str) -> str:
    """``CFD`` without passes, ``CFD:copy-prop,dce,minreg-sched`` with."""
    return f"{abbr}:{spec}" if spec else abbr


def staircase_key(name: str, tlp: int) -> str:
    # ``gto``, the timing core's warp scheduler, stays in the key as
    # every entry was recorded.
    return f"{name}/gto/tlp={tlp}"


def multi_sm_key(label: str, tlp: int, num_sms: int, sm: int) -> str:
    return f"{label}/tlp={tlp}/sms={num_sms}/sm={sm}"


def warp_limit_key(source: str, tlp: int, limit) -> str:
    return f"{source}/tlp={tlp}/limit={limit}"


def opt_key(name: str, label: str) -> str:
    return f"{name}/{label}"


def trace_key(label: str, grid_blocks: int) -> str:
    return f"{label}/grid={grid_blocks}"


def _field_value(value):
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, tuple):
        return list(value)
    return value


def trace_entry(traces, output: Optional[bytes] = None) -> Dict[str, object]:
    """The warp-op count and a sha256 over a grid's block traces.

    The digest covers each :class:`BlockTrace`'s ``block_id``,
    ``block_size`` and ``instruction_count`` and, per warp, every
    :class:`WarpOp` field in order.  It hashes values, not object
    identity, so shared (interned) op objects and distinct equal ones
    digest alike.  ``output`` adds a sha256 of an output buffer.
    """
    names = [field.name for field in dataclasses.fields(WarpOp)]
    # One JSON line per op object, by id (the traces keep them alive).
    encoded: Dict[int, bytes] = {}
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(json.dumps([
            trace.block_id, trace.block_size, trace.instruction_count,
            len(trace.warp_ops),
        ]).encode() + b"\n")
        for ops in trace.warp_ops:
            objects = dict(zip(map(id, ops), ops))
            for key in objects.keys() - encoded.keys():
                encoded[key] = json.dumps([
                    _field_value(getattr(objects[key], name))
                    for name in names
                ]).encode() + b"\n"
            digest.update(b"%d\n" % len(ops))
            digest.update(b"".join(map(encoded.__getitem__, map(id, ops))))
    entry = {
        "sha256": digest.hexdigest(),
        "warp_ops": sum(trace.instruction_count for trace in traces),
    }
    if output is not None:
        entry["output"] = hashlib.sha256(output).hexdigest()
    return entry


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
    if "warp_ops" in expected:
        if expected["warp_ops"] != actual["warp_ops"]:
            return (f"{key}: warp ops moved {expected['warp_ops']} -> "
                    f"{actual['warp_ops']}")
        if expected["sha256"] != actual["sha256"]:
            return f"{key}: warp-op count unchanged, trace fields drifted"
        return f"{key}: output buffer changed"
    if expected.get("sha256") != actual.get("sha256"):
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


def block_dependent_kernels() -> Iterator[object]:
    with open(BLOCK_DEPENDENT_PATH) as handle:
        yield from parse_module(handle.read()).kernels


def block_dependent_case(kernel) -> Tuple[List, GlobalMemory]:
    """(traces, global memory) of one ``%ctaid``-dependent kernel."""
    mem = GlobalMemory(kernel, {
        param.name: BLOCK_DEPENDENT_PARAM_BYTES for param in kernel.params
    })
    traces = trace_grid(kernel, CONFIG, BLOCK_DEPENDENT_GRID, global_mem=mem)
    return traces, mem


def block_dependent_output(mem: GlobalMemory) -> bytes:
    """The bytes of a ``%ctaid``-dependent kernel's output buffer."""
    return mem.read_buffer(
        "output", DType.U8, BLOCK_DEPENDENT_PARAM_BYTES
    ).tobytes()


def app_usage(abbr: str, kernel):
    """The :class:`ResourceUsage` of ``kernel`` (a suite app's kernel or
    a pass pipeline's output) under the app's pinned default reg, as
    ``repro crat APP`` sees it."""
    return collect_resource_usage(
        kernel, CONFIG, default_reg=load_workload(abbr).default_reg
    )


def candidate_allocations(
    abbr: str, kernel=None, name: Optional[str] = None
) -> Iterator[Tuple[str, object]]:
    """(label, allocation) of every CRAT (``@crat``, shm spilling) and
    CRAT-local (``@crat-local``) candidate allocation of a suite app.

    The candidates are the pruned stair points under every OptTLP the
    search could profile (1..the occupancy ceiling), so this is a
    superset of what either variant scores for any OptTLP; points the
    allocator cannot reach are skipped, as the search skips them.
    ``kernel`` replaces the workload kernel (a pass pipeline's output)
    and ``name`` the label prefix.
    """
    if kernel is None:
        kernel = load_workload(abbr).kernel
    name = name or abbr
    usage = app_usage(abbr, kernel)
    ceiling = compute_occupancy(
        CONFIG, 0, usage.shm_size, usage.block_size
    ).blocks
    points = sorted({
        (point.reg, point.tlp)
        for opt_tlp in range(1, ceiling + 1)
        for point in prune(CONFIG, usage, opt_tlp)
    })
    for label, shm_spill in (("crat", True), ("crat-local", False)):
        seen = set()
        for reg, tlp in points:
            spare = 0
            if shm_spill:
                spare = spare_shm_per_block(CONFIG, usage.shm_size, tlp)
            key = (f"{name}@{label}/reg={reg}/tlp={tlp}" if shm_spill
                   else f"{name}@{label}/reg={reg}")
            if key in seen:
                continue
            seen.add(key)
            try:
                allocation = allocate(
                    kernel, reg, spare_shm_bytes=spare,
                    enable_shm_spill=shm_spill,
                )
            except InsufficientRegistersError:
                continue
            yield key, allocation


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
        results = simulate_traces_batched(traces, CONFIG, tlps)
        for tlp, result in zip(tlps, results):
            entries[staircase_key(name, tlp)] = sim_entry(result)
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
        for label, spec, counters in PASSES:
            entries[opt_key(name, label)] = pass_entry(kernel, spec, counters)
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


def trace_entries() -> Dict[str, Dict]:
    entries = {}
    for name, kernel in example_kernels():
        for grid in (EXAMPLE_GRID_BLOCKS, 1):
            traces = trace_grid(kernel, CONFIG, grid, None)
            entries[trace_key(name, grid)] = trace_entry(traces)
    for workload in full_suite():
        grid = workload.grid_blocks
        for allocated, source in ((False, workload.abbr),
                                  (True, f"{workload.abbr}@alloc")):
            traces, _ = app_case(workload.abbr, allocated=allocated)
            entries[trace_key(source, grid)] = trace_entry(traces)
    for app in RESOURCE_SENSITIVE:
        workload = load_workload(app.abbr)
        for label, allocation in candidate_allocations(app.abbr):
            traces = trace_grid(
                allocation.kernel, CONFIG, workload.grid_blocks,
                workload.param_sizes,
            )
            entries[trace_key(label, workload.grid_blocks)] = trace_entry(
                traces
            )
    for kernel in block_dependent_kernels():
        traces, mem = block_dependent_case(kernel)
        entries[trace_key(kernel.name, BLOCK_DEPENDENT_GRID)] = trace_entry(
            traces, block_dependent_output(mem)
        )
    for abbr, grid in WIDE_GRIDS:
        workload = load_workload(abbr)
        traces = trace_grid(workload.kernel, CONFIG, grid, workload.param_sizes)
        entries[trace_key(abbr, grid)] = trace_entry(traces)
    return entries


def alloc_entries(failures: List[str]) -> Dict[str, Dict]:
    entries = {}
    for workload in full_suite():
        abbr = workload.abbr
        for spec in ALLOC_PIPELINES:
            kernel = workload.kernel
            if spec:
                kernel = run_pipeline(kernel, spec).kernel
            source = alloc_source(abbr, spec)
            entries[f"{source}/usage"] = usage_entry(app_usage(abbr, kernel))
            for label, allocation in candidate_allocations(
                abbr, kernel, source
            ):
                entries[label] = allocation_entry(allocation)
                report = verify_allocation(allocation, stage=label)
                if report.diagnostics:
                    failures.append(
                        f"alloc {label}: {len(report.diagnostics)} "
                        f"diagnostic(s): {', '.join(report.codes())}"
                    )
    return entries


SECTIONS: List[Tuple[str, Callable[[], Dict]]] = [
    ("staircase", staircase_entries),
    ("multi_sm", multi_sm_entries),
    ("warp_limit", warp_limit_entries),
    ("traces", trace_entries),
]


def build(failures: List[str]) -> Dict[str, Dict]:
    ledger: Dict[str, Dict] = {}
    for section, produce in SECTIONS:
        t0 = time.perf_counter()
        ledger[section] = produce()
        print(f"ledger-gate: {section}: {len(ledger[section])} entries, "
              f"{time.perf_counter() - t0:.1f}s")
    t0 = time.perf_counter()
    ledger["alloc"] = alloc_entries(failures)
    print(f"ledger-gate: alloc: {len(ledger['alloc'])} entries, "
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
