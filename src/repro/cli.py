"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's toolchain is used:

* ``info APP|FILE``      — resource-usage analysis (Table 1)
* ``allocate APP|FILE``  — register-allocate at a limit, emit PTX
* ``simulate APP|FILE``  — run the timing simulator at a TLP
* ``crat APP|FILE``      — the full coordinated optimization (Fig 9)
* ``suite``              — the Fig 13 table over the sensitive suite
* ``verify APP|FILE``    — lint a kernel with the translation-validation
  rules (dataflow, spill-stack discipline; ``--pipeline`` also runs
  every registered pass with each rewrite translation-validated)
* ``serve``              — persistent compilation daemon: one warm
  engine behind a unix socket (or TCP via ``--listen``), NDJSON
  protocol, each request its own job in a bounded FIFO queue with
  backpressure, graceful SIGTERM drain; for more cores, run several
  daemons over one ``REPRO_CACHE_DIR``
* ``submit JOB TARGET``  — send one job to a running daemon; it prints
  and exits exactly as the one-shot command does

``crat``, ``simulate``, ``verify`` and ``suite`` run the daemon's job
in-process (:mod:`repro.service.jobs`): ``submit`` builds the job's
params with the same function and prints its payload through the same
renderer.  Only what reads this process is theirs alone: ``crat
--emit``, ``--trace-json``, ``suite --report-json`` and the ``engine:``
line.

``APP`` is a Table 3 abbreviation (CFD, KMN, ...); ``FILE`` is a path
to PTX-subset text.  File inputs use synthetic default buffer sizes.

Simulation-heavy commands (``simulate``, ``crat``, ``suite``) share the
evaluation engine: results are memoized by kernel content (persistently
if ``REPRO_CACHE_DIR`` is set), and ``--trace-json PATH`` (on ``crat``
and ``suite``) dumps the engine's instrumentation (the nested span
tree with each span name's self seconds, simulation counts, cache
hit/miss counters).  OptTLP profiling simulates every TLP of the
sweep, as the paper's exhaustive offline search does.  Every
simulation runs in-process on the one batched timing core: a
multi-point sweep is one batch, a single point a batch of one lane,
and each point runs once.

``--passes P1,P2,...`` (on ``simulate``/``crat``/``suite``/``submit``)
runs a pre-allocation optimization pipeline over the kernel before
evaluation — comma-separated rewrite-driver pass names (``copy-prop``,
``dce``, ``bypass``, ``mlp-sched``, ``minreg-sched``, ``unroll``).  The
default is the empty pipeline (the kernel is evaluated exactly as
written); unknown names are a parse error (exit 2).  The spec is a job
param and part of the stage memo keys, while a simulation result is
keyed by the kernel it simulates.

``--verify`` (on ``allocate``/``simulate``/``crat``/``suite``)
turns on translation validation: input kernels are dataflow-checked and
every candidate allocation is independently rechecked (register
sharing, spill-slot discipline, shared-memory budget); any finding is a
hard error.

Every command but ``verify`` loads PTX text through the DF load gate
(the daemon's loader, :func:`repro.service.jobs.load_target`): a
kernel that breaks a DF rule exits 2 naming its codes.  PTX text whose
CFG cannot be built (a branch to a label that ends the body) exits 2
under every command, ``verify`` included, and so does an out-of-range
number (``--tlp`` below 1; ``--grid``, ``--reg`` or ``--spare-shm``
below 0), before any trace.

Failures map to distinct exit codes so scripts can triage without
parsing stderr: 0 all ok, 2 parse or DF load gate, 3 allocation,
4 simulation, 5 partial suite failure (some apps completed,
some did not — ``suite --report-json PATH`` writes the structured
failure report), 6 translation-validation findings (``repro verify``
and ``--verify`` runs), 7 compilation-service transport/protocol
failure (``repro submit`` against an unreachable, overloaded or
draining daemon; job-level failures keep their own codes).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .core import collect_resource_usage
from .engine import configure as configure_engine
from .engine import get_engine
from .errors import ReproError, classify_error
from .ptx import print_kernel
from .regalloc import allocate as allocate_kernel
from .regalloc import register_demand
from .regalloc.allocator import InsufficientRegistersError
from .workloads import BY_ABBR


def _write_trace_json(args) -> None:
    path = getattr(args, "trace_json", "")
    if path:
        try:
            with open(path, "w") as handle:
                handle.write(get_engine().to_json() + "\n")
        except OSError as err:
            raise SystemExit(f"error: cannot write engine trace: {err}")
        print(f"engine trace written to {path}", file=sys.stderr)


def _target_params(target: str) -> dict:
    """``{"target": ABBR}`` for a Table 3 app, else ``{"ptx": text}``
    read from the FILE ``target``: the one place the CLI reads a kernel
    file, shared by the one-shot commands and ``submit``."""
    if target.upper() in BY_ABBR:
        return {"target": target.upper()}
    try:
        with open(target) as handle:
            return {"ptx": handle.read()}
    except OSError as err:
        raise SystemExit(f"error: {target!r} is neither a known app "
                         f"({', '.join(sorted(BY_ABBR))}) nor a readable "
                         f"file: {err}")


def _load(target: str):
    """``(kernel, workload or None)`` through the daemon's loader."""
    from .service.jobs import load_target

    return load_target(_target_params(target))


def cmd_info(args) -> int:
    from .service.jobs import _config_of

    kernel, workload = _load(args.target)
    config = _config_of({"config": args.config})
    default = workload.default_reg if workload else None
    usage = collect_resource_usage(kernel, config, default_reg=default)
    print(f"kernel:     {kernel.name}")
    print(f"config:     {config.name}")
    print(f"MaxReg:     {usage.max_reg}")
    print(f"MinReg:     {usage.min_reg}")
    print(f"DefaultReg: {usage.default_reg}")
    print(f"BlockSize:  {usage.block_size}")
    print(f"ShmSize:    {usage.shm_size} B")
    print(f"MaxTLP:     {usage.max_tlp}")
    print(f"static instructions: {len(kernel.instructions())}")
    return 0


def cmd_allocate(args) -> int:
    from .service.jobs import check_ranges

    check_ranges({"reg": args.reg, "spare_shm": args.spare_shm})
    kernel, _ = _load(args.target)
    limit = args.reg if args.reg else register_demand(kernel)
    try:
        result = allocate_kernel(
            kernel, limit, spare_shm_bytes=args.spare_shm,
            enable_shm_spill=args.spare_shm > 0,
        )
    except InsufficientRegistersError as err:
        raise classify_error(err, kernel=kernel.name, stage="allocate")
    if args.verify:
        from . import verify as verify_mod

        verify_mod.verify_allocation(result, stage="allocate").raise_if_errors()
    print(f"// reg limit {limit}: used {result.reg_per_thread} slots, "
          f"{len(result.spilled)} spilled "
          f"({result.num_local_insts} local / "
          f"{result.num_shared_insts} shared insts, "
          f"{len(result.rematerialized)} rematerialized)",
          file=sys.stderr)
    print(print_kernel(result.kernel))
    return 0


def _job_params(job: str, args) -> dict:
    """A job's params from its command line, for the one-shot
    ``crat``/``simulate``/``verify``/``suite`` and for ``submit``
    alike.  Every option named like a param of the job is
    forwarded unless it is off or empty; a FILE target goes inline as
    ``ptx`` (the daemon never reads client paths)."""
    from .service.protocol import PARAM_SCHEMAS

    schema = PARAM_SCHEMAS[job]
    params: dict = {}
    if "target" in schema:
        if args.target is None:
            raise SystemExit(f"error: submit {job} requires a target")
        params.update(_target_params(args.target))
    for name in schema:
        value = getattr(args, name, None)
        # Off flags and empty options are left out; an int always goes.
        if name not in ("target", "ptx") and (value or type(value) is int):
            params[name] = value
    return params


def _render(job: str, params: dict, result: dict, as_json: bool) -> int:
    """Print a job's result payload as its one-shot command does and
    return the command's exit code: the one renderer of the one-shot
    commands and ``submit``, so the two cannot drift."""
    if job == "verify":
        from .errors import EXIT_VERIFY
        from .verify import VerifyReport

        report = VerifyReport.from_dict(result)
        print(report.to_json() if as_json else report.render())
        return 0 if result["passed"] else EXIT_VERIFY
    if as_json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    elif job == "crat":
        print(f"OptTLP ({result['opt_tlp_source']}): {result['opt_tlp']}")
        print("candidates:")
        chosen = result["chosen"]
        for cand in result["candidates"]:
            mark = (
                "  <== chosen"
                if (cand["reg"], cand["tlp"]) == (chosen["reg"], chosen["tlp"])
                else ""
            )
            print(f"  (reg={cand['reg']}, TLP={cand['tlp']}) "
                  f"TPSC={cand['tpsc']:.1f}{mark}")
        print(f"speedup vs OptTLP: {result['speedup_vs_opttlp']:.2f}X")
        print(f"speedup vs MaxTLP: {result['speedup_vs_maxtlp']:.2f}X")
    elif job == "simulate":
        print(f"cycles:        {result['cycles']:.0f}")
        print(f"instructions:  {result['instructions']}")
        print(f"IPC:           {result['ipc']:.3f}")
        print(f"L1 hit rate:   {result['l1_hit_rate']:.1%}")
        print(f"MSHR stalls:   {result['mshr_stall_cycles']:.0f} cycles")
        print(f"local insts:   {result['local_insts']}")
        print(f"DRAM traffic:  {result['dram_bytes'] >> 10} KiB")
        print(f"energy:        {result['energy_nj'] / 1e3:.1f} uJ")
    elif job == "suite":
        _render_suite(params, result)
    return result["exit_code"] if job == "suite" else 0


def _render_suite(params: dict, result: dict) -> None:
    """The Fig 13 table of a ``suite`` payload, its apps in job order;
    failed apps go to stderr."""
    from .bench import format_table, geomean
    from .workloads import RESOURCE_SENSITIVE

    rows = []
    for abbr in params.get("apps") or [w.abbr for w in RESOURCE_SENSITIVE]:
        speedup = result["speedups"].get(abbr.upper())
        if speedup is not None:
            rows.append((abbr.upper(), f"{speedup['maxtlp']:.3f}", "1.000",
                         f"{speedup['crat_local']:.3f}",
                         f"{speedup['crat']:.3f}"))
    print(format_table(
        ["app", "MaxTLP", "OptTLP", "CRAT-local", "CRAT"], rows,
        title=f"CRAT suite results ({result['config']})",
    ))
    if rows:
        crat_gm = geomean([float(r[4]) for r in rows])
        print(f"\nCRAT geomean speedup vs OptTLP: {crat_gm:.3f}")
    else:
        print("\nCRAT geomean speedup vs OptTLP: n/a (no app completed)")
    for failure in result["failed"]:
        print(f"repro: suite: {failure['abbr']} failed [{failure['kind']}]: "
              f"{failure['message']}", file=sys.stderr)


def _progress(abbr, failure) -> None:
    note = f"FAILED ({failure.kind})" if failure else "done"
    print(f"  {abbr} {note}", file=sys.stderr)


def cmd_job(args) -> int:
    """``crat``, ``simulate``, ``verify`` and ``suite``: the daemon's
    job run in-process and printed as ``submit`` prints its reply.
    Only what reads this process stays here: ``crat --emit``,
    ``--trace-json``, ``suite --report-json`` and the ``engine:``
    line."""
    from .service import jobs
    from .service.protocol import validate_request

    job = args.command
    request = validate_request({"job": job, "params": _job_params(job, args)})
    prepared = jobs.prepare(request)
    result = jobs.execute(prepared, on_app=_progress)
    code = _render(job, request.params, result, getattr(args, "json", False))
    if getattr(args, "emit", ""):
        text = print_kernel(prepared.result.chosen.allocation.kernel) + "\n"
        try:
            with open(args.emit, "w") as handle:
                handle.write(text)
        except OSError as err:
            raise SystemExit(f"error: cannot write optimized PTX: {err}")
        print(f"optimized PTX written to {args.emit}")
    if job == "suite":
        print(f"engine: {get_engine().summary()}")
    _write_trace_json(args)
    if getattr(args, "report_json", ""):
        from .bench import write_report_json

        try:
            write_report_json(prepared.result, args.report_json)
        except OSError as err:
            raise SystemExit(f"error: cannot write suite report: {err}")
        print(f"suite report written to {args.report_json}", file=sys.stderr)
    return code


def _parse_listen(value: str):
    """``HOST:PORT`` -> (host, port) with a readable error."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"error: --listen expects HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"error: invalid port in --listen: {port_text!r}")
    return host, port


def cmd_serve(args) -> int:
    from .engine.cache import resolve_max_entries
    from .service.server import serve_main

    host = port = None
    if args.listen:
        host, port = _parse_listen(args.listen)
    # A long-lived daemon bounds its in-memory caches by default:
    # --cache-max-entries, then REPRO_CACHE_MAX_ENTRIES, then 4096; 0
    # unbounds them, as it does for the one-shot commands.
    bound = resolve_max_entries(args.cache_max_entries, default=4096)
    # ``configure`` keeps the bound for None and unbounds for 0.
    configure_engine(cache_max_entries=bound or 0)
    return serve_main(
        socket_path=args.socket or None,
        host=host,
        port=port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        log_interval=args.log_interval,
    )


def cmd_submit(args) -> int:
    from .service.client import ServiceClient, submit_or_raise

    host = port = None
    if args.connect:
        host, port = _parse_listen(args.connect)
    params = _job_params(args.job, args)
    with ServiceClient(
        socket_path=args.socket or None,
        host=host,
        port=port,
        max_retries=args.retries,
    ) as client:
        if args.job == "stats":
            result = client.stats()
        else:
            result = submit_or_raise(client, args.job, params)
    return _render(args.job, params, result, args.json or args.job == "stats")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="resource usage analysis")
    p_info.add_argument("target")
    p_info.add_argument("--config", default="fermi")
    p_info.set_defaults(func=cmd_info)

    def add_verify_flag(p):
        p.add_argument("--verify", action="store_true",
                       help="translation-validate every pipeline stage "
                            "(dataflow rules on inputs, independent "
                            "recheck of each allocation); findings are "
                            "hard errors (exit 6)")

    p_alloc = sub.add_parser("allocate", help="register-allocate a kernel")
    p_alloc.add_argument("target")
    p_alloc.add_argument("--reg", type=int, default=0,
                         help="register limit in slots (default: demand)")
    p_alloc.add_argument("--spare-shm", type=int, default=0,
                         help="shared-memory budget for Algorithm 1")
    add_verify_flag(p_alloc)
    p_alloc.set_defaults(func=cmd_allocate)

    p_verify = sub.add_parser(
        "verify", help="lint a kernel with the verification rules"
    )
    p_verify.add_argument("target")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the diagnostic report as JSON")
    p_verify.add_argument("--pipeline", action="store_true",
                          help="also run every registered pass with each "
                               "rewrite translation-validated (PL rules)")
    p_verify.add_argument("--strict", action="store_true",
                          help="treat warnings as errors (exit 6)")
    p_verify.set_defaults(func=cmd_job)

    def add_passes_flag(p):
        p.add_argument("--passes", default="", metavar="P1,P2,...",
                       help="pre-allocation optimization pipeline to run "
                            "over the kernel (comma-separated pass names; "
                            "see repro.ir: copy-prop, dce, bypass, "
                            "mlp-sched, minreg-sched, unroll; default: "
                            "none — the kernel is evaluated as written; "
                            "unknown names exit 2)")

    def add_trace_flag(p):
        p.add_argument("--trace-json", default="",
                       help="dump engine instrumentation (timings, "
                            "cache counters) as JSON to this path")

    p_sim = sub.add_parser("simulate", help="run the timing simulator")
    p_sim.add_argument("target")
    p_sim.add_argument("--tlp", type=int, default=4)
    p_sim.add_argument("--grid", type=int, default=0)
    p_sim.add_argument("--config", default="fermi")
    add_verify_flag(p_sim)
    add_passes_flag(p_sim)
    p_sim.set_defaults(func=cmd_job)

    p_crat = sub.add_parser("crat", help="run the CRAT optimizer")
    p_crat.add_argument("target")
    p_crat.add_argument("--config", default="fermi")
    p_crat.add_argument("--static", action="store_true",
                        help="estimate OptTLP statically (CRAT-static)")
    p_crat.add_argument("--no-shm-spill", action="store_true",
                        help="disable Algorithm 1 (CRAT-local)")
    p_crat.add_argument("--emit", default="",
                        help="write optimized PTX to this path")
    add_trace_flag(p_crat)
    add_verify_flag(p_crat)
    add_passes_flag(p_crat)
    p_crat.set_defaults(func=cmd_job)

    p_suite = sub.add_parser("suite", help="Fig 13 table on the sensitive suite")
    p_suite.add_argument("--config", default="fermi")
    p_suite.add_argument("--report-json", default="",
                         help="write the structured per-app failure report "
                              "(completed/failed apps, exit code) to this "
                              "path")
    add_trace_flag(p_suite)
    add_verify_flag(p_suite)
    add_passes_flag(p_suite)
    p_suite.set_defaults(func=cmd_job)

    p_serve = sub.add_parser(
        "serve", help="persistent compilation daemon (NDJSON over a "
                      "unix socket; --listen for TCP)"
    )
    p_serve.add_argument("--socket", default="",
                         help="unix socket path (default: $REPRO_SOCKET "
                              "or a per-user path under the temp dir)")
    p_serve.add_argument("--listen", default="", metavar="HOST:PORT",
                         help="serve TCP instead of a unix socket")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="job worker threads sharing one engine "
                              "(default 2); to spread concurrent "
                              "clients over more cores, run several "
                              "daemons over one REPRO_CACHE_DIR")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="bounded queue depth before requests are "
                              "refused with an overloaded reply "
                              "(default 64)")
    p_serve.add_argument("--cache-max-entries", type=int, default=None,
                         metavar="N",
                         help="LRU bound on the in-memory result cache "
                              "(default: $REPRO_CACHE_MAX_ENTRIES or "
                              "4096; 0 unbounds it)")
    p_serve.add_argument("--log-interval", type=float, default=30.0,
                         metavar="SECONDS",
                         help="period of the structured stats log lines "
                              "on stderr (0 disables; default 30)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="send one job to a running repro serve daemon"
    )
    p_submit.add_argument("job",
                          choices=("crat", "simulate", "verify", "suite",
                                   "stats"),
                          help="job type")
    p_submit.add_argument("target", nargs="?", default=None,
                          help="APP abbreviation or PTX file (sent "
                               "inline); required for kernel jobs")
    p_submit.add_argument("--config", default="fermi")
    p_submit.add_argument("--socket", default="",
                          help="daemon's unix socket (default: "
                               "$REPRO_SOCKET or the per-user default)")
    p_submit.add_argument("--connect", default="", metavar="HOST:PORT",
                          help="connect over TCP instead")
    p_submit.add_argument("--max-retries", "--retries", dest="retries",
                          type=int, default=5,
                          help="retry budget for overloaded/unreachable "
                               "replies; exhausting it exits 7 "
                               "(default 5; --retries is an alias)")
    p_submit.add_argument("--json", action="store_true",
                          help="print the raw result payload as JSON "
                               "(verify: the report as JSON, as "
                               "'repro verify --json' does)")
    p_submit.add_argument("--tlp", type=int, default=4,
                          help="simulate: thread-level parallelism")
    p_submit.add_argument("--grid", type=int, default=0,
                          help="simulate: grid blocks override")
    p_submit.add_argument("--static", action="store_true",
                          help="crat: static OptTLP estimate")
    p_submit.add_argument("--no-shm-spill", action="store_true",
                          help="crat: disable Algorithm 1 (CRAT-local)")
    p_submit.add_argument("--apps", nargs="+", default=[],
                          help="suite: explicit app list")
    p_submit.add_argument("--verify", action="store_true",
                          help="crat/simulate/suite: translation-validate")
    p_submit.add_argument("--strict", action="store_true",
                          help="verify: treat warnings as errors (exit 6)")
    p_submit.add_argument("--pipeline", action="store_true",
                          help="verify: also run every registered pass "
                               "with each rewrite translation-validated")
    add_passes_flag(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, so a reader that closed stdout raises inside this
        # ``try`` and not at interpreter shutdown.
        sys.stdout.flush()
        return code
    except ReproError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return err.exit_code
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at shutdown has nowhere
        # left to fail (the SIGPIPE note in the Python docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
