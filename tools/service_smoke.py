#!/usr/bin/env python
"""Service smoke test: many client processes against one warm daemon.

The CI ``service-smoke`` job's driver, also runnable locally::

    PYTHONPATH=src python tools/service_smoke.py

What it checks, end to end, with real processes and a real socket:

1. a ``repro serve`` daemon boots over a fresh ``REPRO_CACHE_DIR``;
2. 50 mixed requests (``simulate``/``crat``/``verify``) issued from
   8 concurrent client processes all succeed, and so do 4 ``crat``
   requests on HST that a ninth client sends one after another: as a
   ``target``, as inline ``ptx`` (the same kernel printed), then both
   again.  The two forms share a fingerprint, so the daemon serves
   allocations memoised for one form to the other;
3. every answer is identical to the same job executed one-shot on a
   fresh engine — the daemon, which batches sweeps and runs single
   points alone as the one-shot path does, must never change a result;
4. ``python -m repro submit`` processes against the daemon print the
   same stdout and exit with the same code as the one-shot processes
   (``crat GAU``, ``simulate GAU --tlp 2``, ``verify
   examples/uninit_read.ptx``);
5. the daemon's ``stats`` count every one of those requests as its own
   job, repeats included: ``accepted`` equals the evaluation requests
   sent (50 + 4 + 3), every one ``completed``, and ``failed``,
   ``rejected_overloaded`` and ``drained`` are 0;
6. SIGTERM drains cleanly: exit code 0, ``service_drained`` logged;
7. a warm restart: a second daemon booted over the same
   ``REPRO_CACHE_DIR`` answers each distinct job once, identically to
   one-shot, and its ``stats`` show no simulation (``sim_misses`` 0)
   and at least one disk-cache hit, and no memoised stage computed
   (``memo_misses`` 0): allocation and resource usage come back from
   the disk memo (``memo_disk_hits`` at least 1).

Exit status: 0 on success, 1 on any mismatch or daemon misbehavior.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

TOTAL_REQUESTS = 50
CLIENTS = 8


def build_requests():
    """A deterministic mixed stream: repeats (cache food), a few
    distinct design points, and every queued job type; then the HST
    twin sequence (the last client's slice)."""
    from repro.ptx import print_kernel
    from repro.workloads import load_workload

    requests = []
    for i in range(TOTAL_REQUESTS):
        kind = i % 5
        if kind in (0, 1, 2):
            requests.append(("simulate", {"target": "GAU", "tlp": 1 + i % 3}))
        elif kind == 3:
            requests.append(("crat", {"target": "GAU"}))
        else:
            requests.append(("verify", {"target": "GAU"}))
    # HST's generated kernel and its print -> parse twin allocated
    # differently before rematerialized constants took the type of
    # their definition; memo hits across the twins must not change
    # either answer.
    twin = {"ptx": print_kernel(load_workload("HST").kernel)}
    requests += [("crat", {"target": "HST"}), ("crat", twin)] * 2
    return requests


def slice_of(index, count):
    """Request indices client ``index`` sends, in order."""
    if index == CLIENTS:
        return range(TOTAL_REQUESTS, count)
    return range(index, TOTAL_REQUESTS, CLIENTS)


def run_worker(index, sock_path):
    """Child-process mode: submit this worker's slice, print JSON."""
    from repro.service.client import ServiceClient, submit_or_raise

    requests = build_requests()
    out = []
    with ServiceClient(socket_path=sock_path, timeout=300.0) as client:
        for i in slice_of(index, len(requests)):
            job, params = requests[i]
            result = submit_or_raise(client, job, params)
            out.append({"index": i, "result": result})
    json.dump(out, sys.stdout)
    return 0


def compute_expected():
    """One-shot ground truth: each unique job on a fresh engine."""
    from repro.engine import EvaluationEngine, get_engine, set_engine
    from repro.service.jobs import execute, prepare
    from repro.service.protocol import Request

    expected = {}
    previous = get_engine()
    try:
        for job, params in build_requests():
            key = json.dumps([job, params], sort_keys=True)
            if key in expected:
                continue
            set_engine(EvaluationEngine(disk_cache=""))
            expected[key] = execute(prepare(Request(job=job, params=params)))
    finally:
        set_engine(previous)
    return expected


#: Commands whose ``repro submit`` twin must print and exit as they do.
SUBMIT_COMMANDS = (
    ["crat", "GAU"],
    ["simulate", "GAU", "--tlp", "2"],
    ["verify", "examples/uninit_read.ptx"],
)


def run_cli(argv, env):
    """``(exit code, stdout)`` of one ``python -m repro`` process."""
    done = subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout


def check_submit_cli(sock_path, env):
    """Failures: each ``repro submit`` process against the daemon must
    print the same stdout and exit with the same code as the one-shot
    process on a clean engine."""
    clean = {k: v for k, v in env.items() if not k.startswith("REPRO_")}
    failures = 0
    for argv in SUBMIT_COMMANDS:
        one_shot = run_cli(argv, clean)
        submitted = run_cli(["submit", *argv, "--socket", sock_path], env)
        if submitted != one_shot:
            print(f"FAIL: repro submit {' '.join(argv)} printed or exited "
                  f"differently:\n  submit:   {submitted}\n"
                  f"  one-shot: {one_shot}", file=sys.stderr)
            failures += 1
    print(f"repro submit: {len(SUBMIT_COMMANDS)} commands, {failures} "
          f"mismatches against one-shot", flush=True)
    return failures


def check_counters(sock_path, sent):
    """Failures (0 or 1): the daemon must have accepted exactly the
    ``sent`` evaluation requests, each as its own job, and completed
    every one."""
    from repro.service.client import ServiceClient

    with ServiceClient(socket_path=sock_path, timeout=60.0) as client:
        service = client.stats()["service"]
    counters = {name: service[name] for name in (
        "accepted", "completed", "failed", "rejected_overloaded", "drained",
    )}
    print(f"daemon counters: {counters}", flush=True)
    want = dict(accepted=sent, completed=sent, failed=0,
                rejected_overloaded=0, drained=0)
    if counters != want:
        print(f"FAIL: daemon counters {counters}, expected {want}",
              file=sys.stderr)
        return 1
    return 0


def start_daemon(sock_path, env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", sock_path, "--workers", "2",
         "--log-interval", "0"],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )


def drain(daemon, name):
    """Failures (0 or 1): SIGTERM must make ``daemon`` exit 0 with a
    ``service_drained`` line in its log."""
    daemon.send_signal(signal.SIGTERM)
    try:
        _, stderr = daemon.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.communicate()
        print(f"FAIL: {name} did not drain within 60s", file=sys.stderr)
        return 1
    if daemon.returncode != 0:
        print(f"FAIL: {name} exited {daemon.returncode}", file=sys.stderr)
        return 1
    if "service_drained" not in stderr:
        print(f"FAIL: no service_drained line in the {name} log",
              file=sys.stderr)
        return 1
    return 0


def check_warm_restart(sock_path, env, expected):
    """Failures: a second daemon over the first one's cache directory
    must answer each distinct job as one-shot does, from the disk cache
    alone: no simulation and no memoised stage computed."""
    from repro.service.client import ServiceClient, submit_or_raise

    daemon = start_daemon(sock_path, env)
    failures = 0
    try:
        if not wait_for_socket(sock_path):
            print("FAIL: second daemon never bound its socket",
                  file=sys.stderr)
            return 1
        with ServiceClient(socket_path=sock_path, timeout=300.0) as client:
            for key, want in expected.items():
                job, params = json.loads(key)
                if submit_or_raise(client, job, params) != want:
                    print(f"FAIL: warm restart: {job} {params} diverged "
                          f"from one-shot", file=sys.stderr)
                    failures += 1
            stats = client.stats()["engine"]["stats"]
        print(f"warm restart: {len(expected)} distinct jobs, "
              f"{stats['sim_misses']} simulations, "
              f"{stats['disk_hits']} disk hits, "
              f"{stats['memo_misses']} memo computes, "
              f"{stats['memo_disk_hits']} memo disk hits", flush=True)
        if stats["sim_misses"] != 0 or stats["disk_hits"] < 1:
            print("FAIL: the second daemon did not boot warm from the "
                  "disk cache", file=sys.stderr)
            failures += 1
        if stats["memo_misses"] != 0 or stats["memo_disk_hits"] < 1:
            print("FAIL: the second daemon recomputed memoised stages "
                  "instead of reading the disk memo", file=sys.stderr)
            failures += 1
    finally:
        failures += drain(daemon, "second daemon")
    return failures


def wait_for_socket(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        probe = socket.socket(socket.AF_UNIX)
        try:
            probe.settimeout(0.5)
            probe.connect(path)
        except OSError:
            time.sleep(0.1)
        else:
            return True
        finally:
            probe.close()
    return False


def run_daemons(sock_path, env, expected):
    """The concurrent run on a first daemon, then the warm restart."""
    daemon = start_daemon(sock_path, env)
    failures = 0
    try:
        if not wait_for_socket(sock_path):
            print("FAIL: daemon never bound its socket", file=sys.stderr)
            return 1
        requests = build_requests()
        print(f"daemon up on {sock_path}; launching {CLIENTS + 1} client "
              f"processes for {len(requests)} requests ...", flush=True)
        clients = [
            subprocess.Popen(
                [sys.executable, __file__,
                 "--worker", str(i), "--socket", sock_path],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for i in range(CLIENTS + 1)
        ]
        answered = {}
        for client in clients:
            stdout, _ = client.communicate(timeout=600)
            if client.returncode != 0:
                print(f"FAIL: client exited {client.returncode}",
                      file=sys.stderr)
                failures += 1
                continue
            for record in json.loads(stdout):
                answered[record["index"]] = record["result"]

        for i, (job, params) in enumerate(requests):
            key = json.dumps([job, params], sort_keys=True)
            if i not in answered:
                print(f"FAIL: request {i} ({job}) unanswered",
                      file=sys.stderr)
                failures += 1
            elif answered[i] != expected[key]:
                print(f"FAIL: request {i} ({job} {params}) diverged from "
                      f"one-shot:\n  served:   {answered[i]}\n"
                      f"  one-shot: {expected[key]}", file=sys.stderr)
                failures += 1
        print(f"{len(answered)}/{len(requests)} answered, "
              f"{failures} mismatches", flush=True)
        failures += check_submit_cli(sock_path, env)
        failures += check_counters(
            sock_path, len(requests) + len(SUBMIT_COMMANDS)
        )
    finally:
        failures += drain(daemon, "daemon")
    failures += check_warm_restart(sock_path, env, expected)
    if failures:
        return 1
    print("service smoke: OK (identical to one-shot, repro submit prints "
          "as the one-shot does, one job per request, clean drain, warm "
          "restart from the disk cache)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", type=int, default=None)
    parser.add_argument("--socket", default=None)
    args = parser.parse_args()

    if args.worker is not None:
        return run_worker(args.worker, args.socket)

    sock_path = os.path.join(
        os.environ.get("TMPDIR", "/tmp"), f"repro-smoke-{os.getpid()}.sock"
    )
    print(f"computing one-shot ground truth for "
          f"{len(set(json.dumps(r, sort_keys=True) for r in build_requests()))}"
          f" unique jobs ...", flush=True)
    expected = compute_expected()

    cache_dir = tempfile.mkdtemp(prefix="repro-smoke-cache-")
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    try:
        return run_daemons(sock_path, env, expected)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
