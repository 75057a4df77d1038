"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's toolchain is used:

* ``info APP|FILE``      — resource-usage analysis (Table 1)
* ``allocate APP|FILE``  — register-allocate at a limit, emit PTX
* ``simulate APP|FILE``  — run the timing simulator at a TLP
* ``crat APP|FILE``      — the full coordinated optimization (Fig 9)
* ``suite``              — the Fig 13 table over the sensitive suite
* ``bench --fastpath``   — exact vs two-tier pipeline comparison
* ``bench --via-server`` — warm-daemon vs cold one-shot wall-clock
* ``bench --batchsim``   — scalar vs batched simulation core (asserts
  bit-identity; ``--record PATH`` appends to the speedup ledger)
* ``verify APP|FILE``    — lint a kernel with the translation-validation
  rules (dataflow, spill-stack discipline; ``--pipeline`` also runs the
  transform passes under effect-preservation checking)
* ``lint APP|FILE``      — whole-kernel static analysis: register-
  pressure hotspots vs the occupancy staircase (``LNT1xx``),
  coalescing/bank-conflict/dead-store analysis (``LNT2xx``), warp
  divergence (``LNT3xx``), def-use hygiene (``LNT4xx``); ``--json``,
  ``--sarif [PATH]`` (SARIF 2.1.0), ``--rules`` code selection and
  ``--fail-on error|warn|never`` gating (exit 8 on findings)
* ``serve``              — persistent compilation daemon: one warm
  engine behind a unix socket (or TCP via ``--listen``), NDJSON
  protocol, single-flight dedup, bounded queue with backpressure,
  graceful SIGTERM drain
* ``submit JOB TARGET``  — send one job to a running daemon and render
  the result exactly as the one-shot command would

``APP`` is a Table 3 abbreviation (CFD, KMN, ...); ``FILE`` is a path
to PTX-subset text.  File inputs use synthetic default buffer sizes.

Simulation-heavy commands (``simulate``, ``crat``, ``suite``) share the
evaluation engine: ``--jobs N`` fans independent design points out over
N worker processes (default: ``REPRO_JOBS`` or serial), results are
memoized by kernel content (persistently if ``REPRO_CACHE_DIR`` is
set), and ``--trace-json PATH`` dumps the engine's instrumentation
(per-stage timings, simulation counts, cache hit/miss counters).
``--fastpath-topk K`` turns on the analytical fast path (screen the
TLP sweep statically, simulate only the top-K survivors plus a bracket
walk; ``--no-refine`` skips the walk); the default keeps the exact
exhaustive pipeline.  Multi-point sweeps route through the batched SoA
simulation core by default — bit-identical to the scalar simulator,
roughly 2.8x faster on profile sweeps; ``--no-batch`` forces the
point-by-point supervised path.

``--passes P1,P2,...`` (on ``simulate``/``crat``/``suite``/``serve``/
``submit``) runs a pre-allocation optimization pipeline over the kernel
before evaluation — comma-separated rewrite-driver pass names
(``copy-prop``, ``dce``, ``bypass``, ``mlp-sched``, ``minreg-sched``,
``unroll``).  The default is the empty pipeline (the kernel is
evaluated exactly as written); unknown names are a parse error (exit
2).  The active spec is folded into engine cache keys and service
dedup signatures, so runs under different pipelines never share a
cached result.

``--verify`` (on ``allocate``/``simulate``/``crat``/``suite``/``bench``)
turns on translation validation: input kernels are dataflow-checked and
every candidate allocation is independently rechecked (register
sharing, spill-slot discipline, shared-memory budget); any finding is a
hard error.

Failures map to distinct exit codes so scripts can triage without
parsing stderr: 0 all ok, 2 parse/verification, 3 allocation,
4 simulation/cache, 5 partial suite failure (some apps completed,
some did not — ``suite --report-json PATH`` writes the structured
failure report), 6 translation-validation findings (``repro verify``
and ``--verify`` runs), 7 compilation-service transport/protocol
failure (``repro submit`` against an unreachable or overloaded
daemon; job-level failures keep their own codes), 8 lint findings at
or above the ``--fail-on`` threshold (``repro lint`` and ``--lint``
runs).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .arch import get_config
from .core import CRATOptimizer, collect_resource_usage
from .engine import configure as configure_engine
from .engine import get_engine
from .errors import ReproError, classify_error
from .ptx import parse_kernel, print_kernel, verify_kernel
from .regalloc import allocate as allocate_kernel
from .regalloc import register_demand
from .regalloc.allocator import InsufficientRegistersError
from .workloads import BY_ABBR, load_workload


def _engine_for(args):
    """Apply the command's engine flags to the shared engine."""
    jobs = getattr(args, "jobs", 0)
    topk = getattr(args, "fastpath_topk", None)
    no_refine = getattr(args, "no_refine", False)
    return configure_engine(
        jobs=jobs if jobs else None,
        fastpath_topk=topk,
        fastpath_refine=False if no_refine else None,
        task_timeout=getattr(args, "task_timeout", None),
        batch=getattr(args, "batch", None),
        # Fold the active --passes pipeline into the engine's cache
        # keys (validated here, so a typo exits 2 before any work).
        passes=getattr(args, "passes", None),
    )


def _write_trace_json(args) -> None:
    path = getattr(args, "trace_json", "")
    if path:
        try:
            with open(path, "w") as handle:
                handle.write(get_engine().to_json() + "\n")
        except OSError as err:
            raise SystemExit(f"error: cannot write engine trace: {err}")
        print(f"engine trace written to {path}", file=sys.stderr)


def _load(target: str):
    """Resolve APP abbreviation or PTX file path to (kernel, workload?)."""
    if target.upper() in BY_ABBR:
        workload = load_workload(target.upper())
        return workload.kernel, workload
    try:
        with open(target) as handle:
            text = handle.read()
    except OSError as err:
        raise SystemExit(f"error: {target!r} is neither a known app "
                         f"({', '.join(sorted(BY_ABBR))}) nor a readable "
                         f"file: {err}")
    try:
        kernel = parse_kernel(text)
        verify_kernel(kernel)
    except Exception as err:
        raise classify_error(err, app=target, stage="parse")
    return kernel, None


def cmd_verify(args) -> int:
    """Lint mode: report diagnostics instead of dying on the first one.

    Unlike every other command, file targets are parsed *without* the
    legacy load-time verifier — a kernel with a use-before-def should
    produce a ``DF001`` diagnostic and exit 6, not a parse error and
    exit 2.  Unparseable input still exits 2.
    """
    from . import verify as verify_mod

    kernel, _ = _load_unverified(args.target)
    report = verify_mod.lint_kernel(kernel)
    if args.pipeline:
        _, pipeline_report = verify_mod.run_validated_pipeline(kernel)
        report.extend(pipeline_report)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    from .errors import EXIT_VERIFY

    if report.errors or (args.strict and report.warnings):
        return EXIT_VERIFY
    return 0


def _load_unverified(target: str):
    """Resolve a lint/verify target without the legacy load-time verifier.

    Returns ``(kernel, source_path_or_None)``.  A kernel with static
    defects must reach the analyzers and come back as rule codes;
    only genuinely unparseable input is a parse failure (exit 2).
    """
    if target.upper() in BY_ABBR:
        return load_workload(target.upper()).kernel, None
    try:
        with open(target) as handle:
            text = handle.read()
    except OSError as err:
        raise SystemExit(
            f"error: {target!r} is neither a known app "
            f"({', '.join(sorted(BY_ABBR))}) nor a readable file: {err}"
        )
    try:
        kernel = parse_kernel(text)
    except Exception as err:
        raise classify_error(err, app=target, stage="parse")
    return kernel, target


def cmd_lint(args) -> int:
    """Static-analysis lint: LNT rules and SARIF output."""
    import json as json_mod

    from .analysis import run_lint, severity_gate, to_sarif
    from .errors import EXIT_LINT, ParseError
    from .verify.registry import select_rules

    rules = None
    if args.rules:
        try:
            rules = select_rules(args.rules)
        except ValueError as err:
            raise ParseError(str(err), stage="rules")

    kernel, source = _load_unverified(args.target)
    config = get_config(args.config)
    report = run_lint(kernel, config=config, rules=rules, source=source)

    if args.sarif is not None:
        sarif = to_sarif(
            [report],
            sources={kernel.name: source} if source else None,
        )
        text = json_mod.dumps(sarif, indent=2)
        if args.sarif == "-":
            print(text)
        else:
            try:
                with open(args.sarif, "w") as handle:
                    handle.write(text + "\n")
            except OSError as err:
                raise SystemExit(f"error: cannot write SARIF: {err}")
            print(f"SARIF report written to {args.sarif}", file=sys.stderr)

    if args.json:
        print(report.to_json())
    elif args.sarif != "-":
        print(report.render())

    failed, _ = severity_gate(report, args.fail_on)
    return EXIT_LINT if failed else 0


def _lint_gate(kernel, config_name: str) -> None:
    """``--lint`` on the main commands: advisory findings to stderr,
    error-severity findings abort with :class:`repro.errors.LintError`
    (exit 8) before any simulation is spent."""
    from .analysis import run_lint, severity_gate
    from .errors import LintError

    report = run_lint(kernel, config=get_config(config_name))
    if report.diagnostics:
        print(report.render(), file=sys.stderr)
    failed, gating = severity_gate(report, "error")
    if failed:
        raise LintError(
            f"{len(gating)} lint error(s): "
            + "; ".join(d.rule + " " + d.message for d in gating[:4])
            + ("; ..." if len(gating) > 4 else ""),
            kernel=kernel.name,
            stage="lint",
            diagnostics=list(report.diagnostics),
        )


def cmd_info(args) -> int:
    kernel, workload = _load(args.target)
    config = get_config(args.config)
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


def cmd_simulate(args) -> int:
    kernel, workload = _load(args.target)
    config = get_config(args.config)
    if getattr(args, "lint", False):
        _lint_gate(kernel, args.config)
    if args.verify:
        from . import verify as verify_mod

        verify_mod.lint_kernel(kernel, stage="input").raise_if_errors()
    engine = _engine_for(args)
    if args.passes:
        from .ir import run_pipeline

        kernel = run_pipeline(kernel, args.passes, verify=args.verify).kernel
    sizes = workload.param_sizes if workload else None
    grid = args.grid or (workload.grid_blocks if workload else None)
    result = engine.simulate(kernel, config, tlp=args.tlp, grid_blocks=grid,
                             param_sizes=sizes)
    print(f"cycles:        {result.cycles:.0f}")
    print(f"instructions:  {result.instructions}")
    print(f"IPC:           {result.ipc:.3f}")
    print(f"L1 hit rate:   {result.l1_hit_rate:.1%}")
    print(f"MSHR stalls:   {result.mshr_stall_cycles:.0f} cycles")
    print(f"local insts:   {result.local_insts}")
    print(f"DRAM traffic:  {result.dram_bytes >> 10} KiB")
    print(f"energy:        {result.energy_nj / 1e3:.1f} uJ")
    return 0


def cmd_crat(args) -> int:
    kernel, workload = _load(args.target)
    config = get_config(args.config)
    if getattr(args, "lint", False):
        _lint_gate(kernel, args.config)
    _engine_for(args)
    optimizer = CRATOptimizer(
        config,
        enable_shm_spill=not args.no_shm_spill,
        opt_tlp_mode="static" if args.static else "profile",
        verify=args.verify,
        passes=args.passes,
    )
    result = optimizer.optimize(
        kernel,
        default_reg=workload.default_reg if workload else None,
        grid_blocks=workload.grid_blocks if workload else None,
        param_sizes=workload.param_sizes if workload else None,
    )
    print(f"OptTLP ({result.opt_tlp_source}): {result.opt_tlp}")
    print("candidates:")
    for scored in result.candidates:
        mark = "  <== chosen" if scored.point == result.chosen.point else ""
        print(f"  (reg={scored.point.reg}, TLP={scored.point.tlp}) "
              f"TPSC={scored.tpsc:.1f}{mark}")
    print(f"speedup vs OptTLP: {result.speedup_vs('opttlp'):.2f}X")
    print(f"speedup vs MaxTLP: {result.speedup_vs('maxtlp'):.2f}X")
    if args.emit:
        with open(args.emit, "w") as handle:
            handle.write(print_kernel(result.chosen.allocation.kernel) + "\n")
        print(f"optimized PTX written to {args.emit}")
    _write_trace_json(args)
    return 0


def _resolve_bench_apps(args):
    from .workloads import RESOURCE_SENSITIVE, full_suite

    if args.apps:
        abbrs = [a.upper() for a in args.apps]
        unknown = [a for a in abbrs if a not in BY_ABBR]
        if unknown:
            raise SystemExit(f"error: unknown app(s): {', '.join(unknown)}")
        return abbrs
    if args.suite == "sensitive":
        return [w.abbr for w in RESOURCE_SENSITIVE]
    return [w.abbr for w in full_suite()]


def cmd_bench(args) -> int:
    if args.batchsim:
        from .bench import compare_batchsim, record_batchsim

        comparison = compare_batchsim(
            _resolve_bench_apps(args),
            config_name=args.config,
            repeats=args.repeats,
        )
        print(comparison.table())
        if args.record:
            record_batchsim(comparison, args.record)
            print(f"run recorded to {args.record}", file=sys.stderr)
        return 0 if comparison.identical else 1
    if args.via_server:
        from .bench import compare_via_server

        comparison = compare_via_server(
            abbrs=[a.upper() for a in args.apps] or None,
            requests=args.requests,
            config_name=args.config,
            jobs=args.jobs if args.jobs else None,
        )
        print(comparison.table())
        return 0 if comparison.identical else 1
    if not args.fastpath:
        raise SystemExit("error: bench requires --fastpath (exact vs "
                         "two-tier pipeline comparison), --via-server "
                         "(warm daemon vs cold one-shot), or --batchsim "
                         "(scalar vs batched simulation core)")
    from .bench import compare_fastpath

    topk = args.fastpath_topk if args.fastpath_topk else 1
    comparison = compare_fastpath(
        _resolve_bench_apps(args),
        config_name=args.config,
        top_k=topk,
        refine=not args.no_refine,
        jobs=args.jobs if args.jobs else None,
        verify=args.verify,
    )
    print(comparison.table())
    if getattr(args, "report_json", ""):
        with open(args.report_json, "w") as handle:
            json.dump(comparison.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.report_json}", file=sys.stderr)
    return 0 if not comparison.mismatches or args.no_refine else 1


def cmd_suite(args) -> int:
    # ``bench.evaluate_app`` is resolved at call time through the
    # package attribute so tests can monkeypatch the driver.
    from . import bench
    from .bench import format_table, geomean, run_suite, write_report_json

    from .workloads import RESOURCE_SENSITIVE

    if getattr(args, "lint", False):
        for w in RESOURCE_SENSITIVE:
            _lint_gate(load_workload(w.abbr).kernel, args.config)

    engine = _engine_for(args)

    def progress(abbr, failure):
        note = f"FAILED ({failure.kind})" if failure else "done"
        print(f"  {abbr} {note}", file=sys.stderr)

    # Only forward non-default knobs: tests monkeypatch two-argument
    # drivers in place of ``evaluate_app``.
    extra = {}
    if args.verify:
        extra["verify"] = True
    if args.passes:
        extra["passes"] = args.passes
    report = run_suite(
        [w.abbr for w in RESOURCE_SENSITIVE],
        config_name=args.config,
        evaluate=lambda abbr, config: (
            bench.evaluate_app(abbr, config, **extra)
            if extra
            else bench.evaluate_app(abbr, config)
        ),
        on_app=progress,
    )
    rows = []
    for app in RESOURCE_SENSITIVE:
        ev = report.evaluations.get(app.abbr)
        if ev is None:
            continue
        rows.append(
            (app.abbr, f"{ev.speedup('maxtlp'):.3f}", "1.000",
             f"{ev.speedup('crat-local'):.3f}", f"{ev.speedup('crat'):.3f}")
        )
    print(format_table(
        ["app", "MaxTLP", "OptTLP", "CRAT-local", "CRAT"], rows,
        title=f"CRAT suite results ({args.config})",
    ))
    if rows:
        crat_gm = geomean([float(r[4]) for r in rows])
        print(f"\nCRAT geomean speedup vs OptTLP: {crat_gm:.3f}")
    else:
        print("\nCRAT geomean speedup vs OptTLP: n/a (no app completed)")
    for failure in report.failures:
        print(f"repro: suite: {failure.abbr} failed [{failure.kind}]: "
              f"{failure.message}", file=sys.stderr)
    print(f"engine ({engine.jobs} job{'s' if engine.jobs != 1 else ''}): "
          f"{engine.stats.summary()}")
    _write_trace_json(args)
    if getattr(args, "report_json", ""):
        try:
            write_report_json(report, args.report_json)
        except OSError as err:
            raise SystemExit(f"error: cannot write suite report: {err}")
        print(f"suite report written to {args.report_json}", file=sys.stderr)
    return report.exit_code


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
    from .service import serve_main

    host = port = None
    if args.listen:
        host, port = _parse_listen(args.listen)
    # A long-lived daemon bounds its in-memory result cache by default
    # (REPRO_CACHE_MAX_ENTRIES or --cache-max-entries override; 0
    # restores the CLI's unbounded behavior).
    bound = args.cache_max_entries
    if bound is None:
        bound = resolve_max_entries(None) or 4096
    configure_engine(
        jobs=args.jobs if args.jobs else None,
        fastpath_topk=args.fastpath_topk,
        fastpath_refine=False if args.no_refine else None,
        task_timeout=args.task_timeout,
        cache_max_entries=bound,
        passes=args.passes,
        batch=args.batch,
    )
    # Daemon-wide default pipeline; per-request "passes" params
    # override it (and re-key the single-flight signature).
    from .service import jobs as service_jobs

    service_jobs.set_default_passes(args.passes)
    if args.shards > 1:
        if args.listen:
            raise SystemExit(
                "error: --shards needs unix sockets; --listen is "
                "single-daemon only"
            )
        from .service import default_socket_path
        from .service.fleet import fleet_main

        return fleet_main(
            socket_path=args.socket or default_socket_path(),
            shards=args.shards,
            state_dir=args.state_dir or None,
            workers_per_shard=args.workers,
            queue_limit=args.queue_limit,
            jobs_per_shard=args.jobs or 0,
            passes=args.passes,
            heartbeat_interval=args.heartbeat_interval,
            replication_interval=args.replication_interval,
        )
    return serve_main(
        socket_path=args.socket or None,
        host=host,
        port=port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        log_interval=args.log_interval,
    )


def _submit_params(args) -> dict:
    """Build the job's params from the CLI surface, resolving FILE
    targets to inline PTX (the daemon never reads client paths)."""
    params: dict = {}
    if args.job in ("crat", "simulate", "verify"):
        if args.target is None:
            raise SystemExit(f"error: submit {args.job} requires a target")
        if args.target.upper() in BY_ABBR:
            params["target"] = args.target.upper()
        else:
            try:
                with open(args.target) as handle:
                    params["ptx"] = handle.read()
            except OSError as err:
                raise SystemExit(
                    f"error: {args.target!r} is neither a known app "
                    f"({', '.join(sorted(BY_ABBR))}) nor a readable "
                    f"file: {err}"
                )
    if args.config != "fermi":
        params["config"] = args.config
    if args.job == "crat":
        if args.static:
            params["static"] = True
        if args.no_shm_spill:
            params["no_shm_spill"] = True
        if args.verify:
            params["verify"] = True
    elif args.job == "simulate":
        params["tlp"] = args.tlp
        if args.grid:
            params["grid"] = args.grid
    elif args.job == "suite":
        if args.apps:
            params["apps"] = [a.upper() for a in args.apps]
        if args.verify:
            params["verify"] = True
    if args.job in ("crat", "simulate", "suite") and args.passes:
        params["passes"] = args.passes
    return params


def _render_submit_result(job: str, result: dict) -> None:
    if job == "crat":
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
    else:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))


def cmd_submit(args) -> int:
    import json

    from .service import ServiceClient, submit_or_raise

    host = port = None
    if args.connect:
        host, port = _parse_listen(args.connect)
    params = _submit_params(args)
    with ServiceClient(
        socket_path=args.socket or None,
        host=host,
        port=port,
        max_retries=args.retries,
    ) as client:
        if args.job == "stats":
            result = client.stats()
        else:
            result = submit_or_raise(
                client,
                args.job,
                params,
                deadline=args.deadline,
                priority=args.priority,
            )
    if args.json or args.job in ("verify", "suite", "stats"):
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        _render_submit_result(args.job, result)
    if args.job == "verify" and not result.get("passed", True):
        from .errors import EXIT_VERIFY

        return EXIT_VERIFY
    return 0


def cmd_fleet(args) -> int:
    import json

    from .service import ServiceClient, unwrap

    with ServiceClient(
        socket_path=args.socket or None, max_retries=args.retries
    ) as client:
        payload = unwrap(client.submit("health"))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    fleet = payload.get("fleet")
    shards = payload.get("shards")
    if not isinstance(fleet, dict) or not isinstance(shards, dict):
        # A single (non-fleet) daemon also answers health; render it.
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    live = fleet.get("live") or []
    print(f"fleet on {fleet.get('socket')}: "
          f"{len(live)}/{fleet.get('shards')} shards live"
          f"{'  [DRAINING]' if fleet.get('draining') else ''}")
    print(f"  dispatches: accepted={fleet.get('accepted')} "
          f"completed={fleet.get('completed')} "
          f"rerouted={fleet.get('rerouted')} "
          f"expired={fleet.get('expired')} drained={fleet.get('drained')}")
    print(f"  supervision: spawns={fleet.get('spawns')} "
          f"restarts={fleet.get('restarts')} "
          f"heartbeat_misses={fleet.get('heartbeat_misses')} "
          f"handoffs={fleet.get('handoffs')}")
    conservation = fleet.get("conservation_ok")
    print(f"  conservation (accepted == completed+expired+drained"
          f"+rerouted): {'OK' if conservation else 'VIOLATED'}")
    for sid in sorted(shards):
        status = shards[sid] or {}
        health = status.get("health") or {}
        recovery = status.get("max_recovery_seconds")
        print(f"  {sid}: {status.get('state'):8s} pid={status.get('pid')} "
              f"epoch={status.get('epoch')} "
              f"restarts={status.get('restarts')} "
              f"misses={status.get('heartbeat_misses')} "
              f"max_recovery={recovery if recovery else 0:.2f}s "
              f"completed={health.get('completed', '?')} "
              f"checkpoint_hits={health.get('checkpoint_hits', '?')}")
    if conservation is False:
        from .errors import EXIT_SERVICE

        return EXIT_SERVICE
    return 0


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
                          help="also run the transform passes under "
                               "effect-preservation checking (PL rules)")
    p_verify.add_argument("--strict", action="store_true",
                          help="treat warnings as errors (exit 6)")
    p_verify.set_defaults(func=cmd_verify)

    p_lint = sub.add_parser(
        "lint", help="static-analysis lint (pressure, memory, "
                     "divergence, hygiene; stable LNT rule codes)"
    )
    p_lint.add_argument("target")
    p_lint.add_argument("--config", default="fermi")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the diagnostic report as JSON")
    p_lint.add_argument("--sarif", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="write a SARIF 2.1.0 report to PATH "
                             "(or stdout when no path is given)")
    p_lint.add_argument("--rules", default="", metavar="LNT2,LNT101,...",
                        help="restrict findings to these rule codes or "
                             "code prefixes (comma-separated; unknown "
                             "names exit 2)")
    p_lint.add_argument("--fail-on", choices=["error", "warn", "never"],
                        default="error",
                        help="finding severity that fails the run with "
                             "exit 8 (default: error)")
    p_lint.set_defaults(func=cmd_lint)

    def add_lint_flag(p):
        p.add_argument("--lint", action="store_true",
                       help="run the static-analysis lint first: "
                            "warnings are advisory (stderr), "
                            "error-severity findings abort with exit 8")

    def add_passes_flag(p):
        p.add_argument("--passes", default="", metavar="P1,P2,...",
                       help="pre-allocation optimization pipeline to run "
                            "over the kernel (comma-separated pass names; "
                            "see repro.ir: copy-prop, dce, bypass, "
                            "mlp-sched, minreg-sched, unroll; default: "
                            "none — the kernel is evaluated as written; "
                            "unknown names exit 2)")

    def add_engine_flags(p, trace=True, fastpath=False):
        p.add_argument("--jobs", type=int, default=0,
                       help="simulation worker processes "
                            "(default: $REPRO_JOBS or serial)")
        p.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per simulation task before "
                            "the supervisor abandons and retries it "
                            "(0 disables; default: $REPRO_TASK_TIMEOUT)")
        p.add_argument("--batch", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="evaluate multi-point sweeps through the "
                            "batched SoA simulation core (bit-identical "
                            "to the scalar simulator; default: on — "
                            "--no-batch forces point-by-point supervised "
                            "simulation)")
        if trace:
            p.add_argument("--trace-json", default="",
                           help="dump engine instrumentation (timings, "
                                "cache counters) as JSON to this path")
        if fastpath:
            p.add_argument("--fastpath-topk", type=int, default=None,
                           metavar="K",
                           help="screen TLP sweeps analytically and "
                                "simulate only the top-K survivors "
                                "(0 or unset: exact exhaustive profiling)")
            p.add_argument("--no-refine", action="store_true",
                           help="skip the bracket-refinement walk "
                                "(screen-only fast path: fewer "
                                "simulations, approximate winner)")

    p_sim = sub.add_parser("simulate", help="run the timing simulator")
    p_sim.add_argument("target")
    p_sim.add_argument("--tlp", type=int, default=4)
    p_sim.add_argument("--grid", type=int, default=0)
    p_sim.add_argument("--config", default="fermi")
    add_engine_flags(p_sim, trace=False)
    add_verify_flag(p_sim)
    add_passes_flag(p_sim)
    add_lint_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_crat = sub.add_parser("crat", help="run the CRAT optimizer")
    p_crat.add_argument("target")
    p_crat.add_argument("--config", default="fermi")
    p_crat.add_argument("--static", action="store_true",
                        help="estimate OptTLP statically (CRAT-static)")
    p_crat.add_argument("--no-shm-spill", action="store_true",
                        help="disable Algorithm 1 (CRAT-local)")
    p_crat.add_argument("--emit", default="",
                        help="write optimized PTX to this path")
    add_engine_flags(p_crat, fastpath=True)
    add_verify_flag(p_crat)
    add_passes_flag(p_crat)
    add_lint_flag(p_crat)
    p_crat.set_defaults(func=cmd_crat)

    p_suite = sub.add_parser("suite", help="Fig 13 table on the sensitive suite")
    p_suite.add_argument("--config", default="fermi")
    p_suite.add_argument("--report-json", default="",
                         help="write the structured per-app failure report "
                              "(completed/failed apps, exit code) to this "
                              "path")
    add_engine_flags(p_suite, fastpath=True)
    add_verify_flag(p_suite)
    add_passes_flag(p_suite)
    add_lint_flag(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_bench = sub.add_parser(
        "bench", help="pipeline benchmarking (--fastpath: exact vs "
                      "two-tier; --via-server: warm daemon vs cold)"
    )
    p_bench.add_argument("--fastpath", action="store_true",
                         help="compare the exact pipeline against the "
                              "two-tier fast path on every app")
    p_bench.add_argument("--via-server", action="store_true",
                         help="measure a repeated crat workload against "
                              "a warm in-process daemon vs cold one-shot "
                              "engines")
    p_bench.add_argument("--batchsim", action="store_true",
                         help="compare the scalar simulator against the "
                              "batched SoA core on every app's TLP "
                              "staircase (asserts bit-identity)")
    p_bench.add_argument("--report-json", default="", metavar="PATH",
                         help="write the structured per-app comparison "
                              "(rank-agreement rows included) to this "
                              "path (--fastpath)")
    p_bench.add_argument("--repeats", type=int, default=1,
                         help="best-of-N timing repeats for --batchsim "
                              "(default 1)")
    p_bench.add_argument("--record", default="", metavar="PATH",
                         help="append the --batchsim run record to this "
                              "JSON ledger (e.g. BENCH_batchsim.json)")
    p_bench.add_argument("--requests", type=int, default=10,
                         help="request count for --via-server "
                              "(default 10)")
    p_bench.add_argument("--suite", choices=("sensitive", "full"),
                         default="full",
                         help="which app suite to compare (default: full)")
    p_bench.add_argument("--apps", nargs="+", default=[],
                         help="explicit app abbreviations (overrides --suite)")
    p_bench.add_argument("--config", default="fermi")
    add_engine_flags(p_bench, trace=False, fastpath=True)
    add_verify_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

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
                         help="job worker threads (each still fans "
                              "simulations out over the engine's "
                              "process pool; default 2)")
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
    p_serve.add_argument("--shards", type=int, default=1, metavar="N",
                         help="run a self-healing fleet of N supervised "
                              "engine shards behind one router socket "
                              "(default 1 = the single daemon)")
    p_serve.add_argument("--state-dir", default="",
                         help="fleet state root (shard checkpoints + "
                              "replicas; default: <socket>.fleet)")
    p_serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                         metavar="SECONDS",
                         help="fleet: per-shard health-check period "
                              "(default 1.0)")
    p_serve.add_argument("--replication-interval", type=float, default=5.0,
                         metavar="SECONDS",
                         help="fleet: warm-state handoff period; each "
                              "round ships every shard's checkpoint "
                              "journal to its ring successor (default "
                              "5.0; 0 disables)")
    add_engine_flags(p_serve, trace=False, fastpath=True)
    add_passes_flag(p_serve)
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
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="give up if the service has not answered "
                               "within this budget")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="queue priority (higher runs earlier)")
    p_submit.add_argument("--max-retries", "--retries", dest="retries",
                          type=int, default=5,
                          help="retry budget for overloaded/unreachable "
                               "replies; exhausting it exits 7 "
                               "(default 5; --retries is an alias)")
    p_submit.add_argument("--json", action="store_true",
                          help="print the raw result payload as JSON")
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
                          help="crat/suite: translation-validate")
    add_passes_flag(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_fleet = sub.add_parser(
        "fleet", help="inspect a running sharded fleet"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fstatus = fleet_sub.add_parser(
        "status", help="shard liveness, dispatch counters and the "
                       "conservation check (exit 7 if violated)"
    )
    p_fstatus.add_argument("--socket", default="",
                           help="router's unix socket (default: "
                                "$REPRO_SOCKET or the per-user default)")
    p_fstatus.add_argument("--max-retries", dest="retries", type=int,
                           default=2,
                           help="connection retry budget (default 2)")
    p_fstatus.add_argument("--json", action="store_true",
                           help="print the raw health payload as JSON")
    p_fstatus.set_defaults(func=cmd_fleet)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
