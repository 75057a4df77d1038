"""Job semantics of the compilation service.

Each evaluation job type maps onto exactly the code path the one-shot
CLI runs, so a warm daemon returns **bit-identical** results to ``repro
crat`` / ``repro simulate`` — the service adds batching, dedup and a
warm cache, never a different answer.

A request's life has two phases:

:func:`prepare`
    Runs on the connection handler thread: resolve the target (Table 3
    app abbreviation or inline PTX text), parse/verify it, and compute
    the job's **content signature** — ``sha256(job, kernel
    fingerprint, config signature, workload terms, semantically
    relevant params)``.  The signature is the single-flight dedup key:
    two requests collide exactly when their answers must be identical.
    The workload terms (resolved grid, buffer sizes, default register
    count) are what a ``target`` adds to its kernel, so an inline-``ptx``
    twin of the same kernel never shares its slot.  Load/parse failures
    surface here, before the request ever occupies a queue slot.

    Engine *tuning* state is deliberately absent from the signature:
    multi-point sweeps inside a job run on the warm engine's batched
    SoA core (:mod:`repro.sim.batch`) whenever it is enabled, and
    because the batched core is bit-identical to the scalar path, a
    batched and an unbatched evaluation of the same content may share
    one single-flight slot.  Only content that changes the *answer*
    (kernel, config, passes pipeline, job params) may enter the hash.

:func:`execute`
    Runs on a worker thread against the warm shared engine and returns
    the JSON-ready result payload.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from ..arch import get_config
from ..arch.config import GPUConfig
from ..engine import FastPathPolicy, config_signature, get_engine
from ..errors import classify_error
from ..ir.pipeline import pipeline_signature, run_pipeline
from ..ptx import parse_kernel, verify_kernel
from ..ptx.module import Kernel
from ..workloads import BY_ABBR, RESOURCE_SENSITIVE, load_workload
from .protocol import Request

#: Daemon-wide default optimization pipeline (``repro serve --passes``);
#: per-request ``passes`` params override it.  Always stored normalized.
_default_passes = ""


def set_default_passes(spec: str) -> str:
    """Set (and validate) the daemon's default ``--passes`` pipeline.

    Raises :class:`repro.errors.ParseError` on unknown pass names, so a
    typo'd daemon flag dies at startup instead of failing every job.
    """
    global _default_passes
    _default_passes = pipeline_signature(spec)
    return _default_passes


def _passes_of(params: Dict[str, Any]) -> str:
    """The normalized pipeline a request runs under.

    Client input: normalization can raise :class:`ParseError`, which
    :func:`prepare` surfaces before the request occupies a queue slot.
    """
    spec = params.get("passes")
    if spec is None:
        return _default_passes
    return pipeline_signature(str(spec))


class PreparedJob:
    """A request with its target resolved and its dedup key computed."""

    def __init__(
        self,
        request: Request,
        signature: str,
        kernel: Optional[Kernel],
        workload: Optional[object],
        config: Optional[GPUConfig],
    ):
        self.request = request
        self.signature = signature
        self.kernel = kernel
        self.workload = workload
        self.config = config


def _sig(*parts: object) -> str:
    """Single-flight signature: ``sha256(schema tag, *parts)``.

    The engine's cache schema tag is folded in first, so bumping *any*
    result-affecting schema version (result layout, fastpath policy,
    pipeline format, batch core) also invalidates in-flight dedup
    collisions — a job prepared under the old version can never be
    answered by a slot keyed under the new one.
    """
    from ..engine.cache import cache_schema_version

    digest = hashlib.sha256(
        "\x1f".join(repr(p) for p in (cache_schema_version(),) + parts)
        .encode()
    )
    return digest.hexdigest()[:32]


def _load_target(params: Dict[str, Any]) -> Tuple[Kernel, Optional[object]]:
    """Resolve ``target`` (app abbreviation) or ``ptx`` (inline text).

    The service deliberately does not read files named by clients: a
    remote client's paths are meaningless on the server, and a daemon
    that opens arbitrary local paths on request is a confused deputy.
    Clients with a file send its *contents* as ``ptx``.
    """
    target = params.get("target")
    if target is not None:
        abbr = target.upper()
        if abbr not in BY_ABBR:
            raise classify_error(
                ValueError(
                    f"unknown app {target!r} (expected one of "
                    f"{', '.join(sorted(BY_ABBR))}); file targets must be "
                    "sent inline via 'ptx'"
                ),
                app=target,
                stage="parse",
            )
        workload = load_workload(abbr)
        return workload.kernel, workload
    try:
        kernel = parse_kernel(params["ptx"])
        verify_kernel(kernel)
    except Exception as err:
        raise classify_error(err, stage="parse")
    return kernel, None


def _workload_terms(
    config: GPUConfig, workload: Any, grid: Optional[int] = None
) -> Tuple[int, Tuple[Tuple[str, int], ...], Optional[int]]:
    """``(resolved grid, param sizes, default reg)`` of a job: what its
    ``target`` workload (if any) adds to the answer beyond the kernel.
    ``grid`` is an explicit per-request override."""
    if grid is None and workload is not None:
        grid = workload.grid_blocks
    if grid is None:
        grid = 2 * config.max_blocks_per_sm
    if workload is None:
        return grid, (), None
    params = tuple(sorted(workload.param_sizes.items()))
    return grid, params, workload.default_reg


def prepare(request: Request) -> PreparedJob:
    """Resolve the target and derive the single-flight signature."""
    params = request.params
    config_name = params.get("config", "fermi")
    if request.job == "suite":
        apps = tuple(
            a.upper() for a in params.get(
                "apps", [w.abbr for w in RESOURCE_SENSITIVE]
            )
        )
        unknown = [a for a in apps if a not in BY_ABBR]
        if unknown:
            raise classify_error(
                ValueError(f"unknown app(s): {', '.join(unknown)}"),
                stage="parse",
            )
        signature = _sig(
            "suite", config_name, apps, bool(params.get("verify")),
            _passes_of(params),
        )
        return PreparedJob(request, signature, None, None, None)

    kernel, workload = _load_target(params)
    config = get_config(config_name)
    fingerprint = kernel.fingerprint()
    if request.job == "crat":
        signature = _sig(
            "crat",
            fingerprint,
            config_signature(config),
            _workload_terms(config, workload),
            bool(params.get("static")),
            bool(params.get("no_shm_spill")),
            bool(params.get("verify")),
            params.get("fastpath_topk"),
            bool(params.get("no_refine")),
            _passes_of(params),
        )
    elif request.job == "simulate":
        signature = _sig(
            "simulate",
            fingerprint,
            config_signature(config),
            _workload_terms(config, workload, params.get("grid") or None),
            params.get("tlp", 4),
            _passes_of(params),
        )
    else:  # verify
        signature = _sig(
            "verify", fingerprint, bool(params.get("strict"))
        )
    return PreparedJob(request, signature, kernel, workload, config)


# ----------------------------------------------------------------------
# Result serialization (shared with the CLI identity tests and the
# via-server bench: one rendering, no drift between surfaces).
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
def execute(prepared: PreparedJob) -> Dict[str, Any]:
    """Run one prepared job on the warm shared engine.

    Raises the structured :mod:`repro.errors` taxonomy on job failure;
    the server maps it onto an ``error`` reply carrying the same kind
    and exit code the one-shot CLI would have used.
    """
    handler = _HANDLERS[prepared.request.job]
    return handler(prepared)


def _execute_crat(prepared: PreparedJob) -> Dict[str, Any]:
    from ..core import CRATOptimizer

    params = prepared.request.params
    fastpath = None
    topk = params.get("fastpath_topk")
    if topk:
        fastpath = FastPathPolicy(
            top_k=topk, refine=not params.get("no_refine", False)
        )
    optimizer = CRATOptimizer(
        prepared.config,
        enable_shm_spill=not params.get("no_shm_spill", False),
        opt_tlp_mode="static" if params.get("static") else "profile",
        verify=bool(params.get("verify")),
        engine=get_engine(),
        fastpath=fastpath,
        passes=_passes_of(params),
    )
    workload = prepared.workload
    result = optimizer.optimize(
        prepared.kernel,
        default_reg=workload.default_reg if workload else None,
        grid_blocks=workload.grid_blocks if workload else None,
        param_sizes=workload.param_sizes if workload else None,
    )
    return crat_result_to_dict(result)


def _execute_simulate(prepared: PreparedJob) -> Dict[str, Any]:
    params = prepared.request.params
    workload = prepared.workload
    grid = params.get("grid", 0) or (
        workload.grid_blocks if workload else None
    )
    kernel = prepared.kernel
    passes = _passes_of(params)
    if passes:
        kernel = run_pipeline(kernel, passes).kernel
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

    report = verify_mod.lint_kernel(prepared.kernel)
    strict = bool(prepared.request.params.get("strict"))
    passed = not report.errors and not (strict and report.warnings)
    payload = report.to_dict()
    payload["passed"] = passed
    return payload


def _execute_suite(prepared: PreparedJob) -> Dict[str, Any]:
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
    )
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
    "suite": _execute_suite,
}
