"""Job semantics of the compilation service and of the one-shot CLI.

Each evaluation job type is the one code path of its command: ``repro
crat|simulate|verify|suite`` build the job's params, run
:func:`prepare` and :func:`execute` in-process and print the payload,
and a daemon runs the same two calls on a worker, so a warm daemon
returns **bit-identical** results — the service adds a warm cache,
never a different answer.

A request's life has two phases:

:func:`prepare`
    Runs on the connection handler thread: resolve the target (Table 3
    app abbreviation or inline PTX text) through :func:`load_target`,
    the loader the one-shot CLI commands share, resolve the config and
    normalize the ``passes`` spec.  An unknown app or config, bad PTX
    or an unknown pass fails here, before the request ever occupies a
    queue slot.

:func:`execute`
    Runs on a worker thread (or in the one-shot CLI's process) against
    the shared engine and returns the JSON-ready result payload.

A ``passes`` pipeline is a job param and nothing else: the engine keys
a simulation by the kernel it simulates, after the passes ran.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..arch import get_config
from ..arch.config import GPUConfig
from ..engine import get_engine
from ..errors import ParseError, VerificationError, classify_error
from ..ir.pipeline import VERIFIED_SPEC, pipeline_signature, run_pipeline
from ..ptx import parse_kernel
from ..ptx.module import Kernel
from ..workloads import BY_ABBR, RESOURCE_SENSITIVE, load_workload
from .protocol import Request


def _passes_of(params: Dict[str, Any]) -> str:
    """The normalized pipeline a request runs under.

    Client input: normalization can raise :class:`ParseError`, which
    :func:`prepare` surfaces before the request occupies a queue slot.
    """
    return pipeline_signature(params.get("passes", ""))


class PreparedJob:
    """A request with its target and config resolved."""

    def __init__(
        self,
        request: Request,
        kernel: Optional[Kernel],
        workload: Optional[object],
        config: GPUConfig,
    ):
        self.request = request
        self.kernel = kernel
        self.workload = workload
        self.config = config
        #: A ``crat`` job's ``CRATResult`` or a ``suite`` job's
        #: ``SuiteReport`` once :func:`execute` returned: what the
        #: one-shot CLI reads beyond the payload (``crat --emit``,
        #: ``suite --report-json``).
        self.result: Any = None


def load_target(
    params: Dict[str, Any], checked: bool = True
) -> Tuple[Kernel, Optional[object]]:
    """Resolve ``target`` (app abbreviation) or ``ptx`` (inline text)
    to ``(kernel, workload or None)``: the one loader of every CLI
    command and daemon job that takes a kernel.

    ``checked`` passes PTX text through the DF load gate
    (:func:`repro.verify.verify_kernel`); only ``verify`` loads
    unchecked, so a kernel with static defects comes back as rule
    codes rather than a parse error.

    The service deliberately does not read files named by clients: a
    remote client's paths are meaningless on the server, and a daemon
    that opens arbitrary local paths on request is a confused deputy.
    Clients with a file send its *contents* as ``ptx``.
    """
    target = params.get("target")
    if target is not None:
        abbr = target.upper()
        if abbr not in BY_ABBR:
            raise ParseError(
                f"unknown app {target!r} (expected one of "
                f"{', '.join(sorted(BY_ABBR))}); file targets must be "
                "sent inline via 'ptx'",
                app=target,
                stage="parse",
            )
        workload = load_workload(abbr)
        return workload.kernel, workload
    try:
        kernel = parse_kernel(params["ptx"])
    except Exception as err:
        raise classify_error(err, stage="parse")
    if checked:
        # Imported here, so only a checked PTX load pays for importing
        # ``repro.verify``, not every ``import repro.service.jobs``.
        from ..verify import verify_kernel

        verify_kernel(kernel)
    return kernel, None


def _config_of(params: Dict[str, Any]) -> GPUConfig:
    """The job's architecture preset; an unknown name is a
    :class:`ParseError`, like an unknown app."""
    try:
        return get_config(params.get("config", "fermi"))
    except KeyError as err:
        raise ParseError(err.args[0], stage="parse")


def prepare(request: Request) -> PreparedJob:
    """Resolve the target and config and normalize the ``passes`` spec,
    so a bad request fails before it takes a queue slot."""
    params = request.params
    if request.job == "suite":
        apps = [a.upper() for a in params.get("apps", [])]
        unknown = [a for a in apps if a not in BY_ABBR]
        if unknown:
            raise ParseError(
                f"unknown app(s): {', '.join(unknown)}", stage="parse"
            )
        kernel, workload = None, None
    else:
        kernel, workload = load_target(
            params, checked=request.job != "verify"
        )
    config = _config_of(params)
    _passes_of(params)
    return PreparedJob(request, kernel, workload, config)


# ----------------------------------------------------------------------
# Result serialization (one rendering for every service reply, so
# surfaces cannot drift).
# ----------------------------------------------------------------------
def sim_result_to_dict(sim) -> Dict[str, Any]:
    return {
        "cycles": sim.cycles,
        "instructions": sim.instructions,
        "ipc": sim.ipc,
        "l1_hit_rate": sim.l1_hit_rate,
        "mshr_stall_cycles": sim.mshr_stall_cycles,
        "local_insts": sim.local_insts,
        "dram_bytes": sim.dram_bytes,
        "energy_nj": sim.energy_nj,
        "estimated": bool(getattr(sim, "estimated", False)),
    }


def crat_result_to_dict(result) -> Dict[str, Any]:
    return {
        "opt_tlp": result.opt_tlp,
        "opt_tlp_source": result.opt_tlp_source,
        "variant": result.variant,
        "candidates": [
            {"reg": s.point.reg, "tlp": s.point.tlp, "tpsc": s.tpsc}
            for s in result.candidates
        ],
        "chosen": {"reg": result.reg, "tlp": result.tlp},
        "sim": sim_result_to_dict(result.sim),
        "speedup_vs_opttlp": result.speedup_vs("opttlp"),
        "speedup_vs_maxtlp": result.speedup_vs("maxtlp"),
    }


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
def execute(
    prepared: PreparedJob,
    on_app: Optional[Callable[[str, Any], None]] = None,
) -> Dict[str, Any]:
    """Run one prepared job on the shared engine.

    Raises the structured :mod:`repro.errors` taxonomy on job failure;
    the server maps it onto an ``error`` reply carrying the same kind
    and exit code, and the one-shot CLI exits with that code.
    ``on_app(abbr, failure or None)`` is a ``suite`` job's per-app
    progress hook.
    """
    job = prepared.request.job
    if job == "suite":
        return _execute_suite(prepared, on_app)
    return _HANDLERS[job](prepared)


def _execute_crat(prepared: PreparedJob) -> Dict[str, Any]:
    from ..core import CRATOptimizer

    params = prepared.request.params
    optimizer = CRATOptimizer(
        prepared.config,
        enable_shm_spill=not params.get("no_shm_spill", False),
        opt_tlp_mode="static" if params.get("static") else "profile",
        verify=bool(params.get("verify")),
        engine=get_engine(),
        passes=_passes_of(params),
    )
    workload = prepared.workload
    result = optimizer.optimize(
        prepared.kernel,
        default_reg=workload.default_reg if workload else None,
        grid_blocks=workload.grid_blocks if workload else None,
        param_sizes=workload.param_sizes if workload else None,
    )
    prepared.result = result
    return crat_result_to_dict(result)


def _execute_simulate(prepared: PreparedJob) -> Dict[str, Any]:
    params = prepared.request.params
    workload = prepared.workload
    grid = params.get("grid", 0) or (
        workload.grid_blocks if workload else None
    )
    kernel = prepared.kernel
    verify = bool(params.get("verify"))
    if verify:
        from .. import verify as verify_mod

        verify_mod.lint_kernel(kernel, stage="input").raise_if_errors()
    passes = _passes_of(params)
    if passes:
        kernel = run_pipeline(kernel, passes, verify=verify).kernel
    sim = get_engine().simulate(
        kernel,
        prepared.config,
        tlp=params.get("tlp", 4),
        grid_blocks=grid,
        param_sizes=workload.param_sizes if workload else None,
    )
    return sim_result_to_dict(sim)


def _execute_verify(prepared: PreparedJob) -> Dict[str, Any]:
    from .. import verify as verify_mod

    params = prepared.request.params
    report = verify_mod.lint_kernel(prepared.kernel)
    if params.get("pipeline"):
        # Stops at the first bad rewrite, whose PL diagnostics name the
        # registry pass as their stage.
        try:
            run_pipeline(prepared.kernel, VERIFIED_SPEC, verify=True)
        except VerificationError as err:
            report.diagnostics.extend(err.diagnostics)
    strict = bool(params.get("strict"))
    payload = report.to_dict()
    payload["passed"] = not report.errors and not (strict and report.warnings)
    return payload


def _execute_suite(
    prepared: PreparedJob, on_app: Optional[Callable[[str, Any], None]]
) -> Dict[str, Any]:
    from .. import bench
    from ..bench import run_suite

    params = prepared.request.params
    abbrs = [
        a.upper() for a in params.get(
            "apps", [w.abbr for w in RESOURCE_SENSITIVE]
        )
    ]
    config_name = params.get("config", "fermi")
    # Only forward non-default knobs: tests monkeypatch two-argument
    # drivers in place of ``evaluate_app``.
    extra: Dict[str, Any] = {}
    if params.get("verify"):
        extra["verify"] = True
    passes = _passes_of(params)
    if passes:
        extra["passes"] = passes
    report = run_suite(
        abbrs,
        config_name=config_name,
        evaluate=lambda abbr, config: (
            bench.evaluate_app(abbr, config, **extra)
            if extra
            else bench.evaluate_app(abbr, config)
        ),
        on_app=on_app,
    )
    prepared.result = report
    payload = report.to_dict()
    payload["speedups"] = {
        abbr: {
            "maxtlp": ev.speedup("maxtlp"),
            "crat_local": ev.speedup("crat-local"),
            "crat": ev.speedup("crat"),
        }
        for abbr, ev in sorted(report.evaluations.items())
    }
    return payload


_HANDLERS = {
    "crat": _execute_crat,
    "simulate": _execute_simulate,
    "verify": _execute_verify,
}
