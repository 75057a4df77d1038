#!/usr/bin/env python
"""Fleet chaos smoke: client fleets against a sharded service under
injected shard kills.

The CI ``fleet-chaos-gate`` job's driver, also runnable locally::

    PYTHONPATH=src python tools/fleet_smoke.py
    REPRO_FAULTS=shard-crash:0.1,shard-hang:0.05 \
        PYTHONPATH=src python tools/fleet_smoke.py

What it checks, end to end, with real processes and real sockets:

1. a ``repro serve --shards 4`` fleet boots and all shards go live;
2. 40 mixed requests (``simulate``/``crat``/``verify``) issued from 4
   concurrent client processes — half through plain router clients,
   half through shard-aware :class:`FleetClient` direct routing — all
   succeed *while* shards are being killed (one explicit ``SIGKILL``
   plus whatever ``REPRO_FAULTS`` injects: ``shard-crash``,
   ``shard-hang``, ``net-drop``);
3. every answer is bit-identical to the same job executed one-shot on
   a fresh, fault-free engine — failover replays must never change a
   result;
4. the fleet-wide conservation law holds, read from counters:
   ``accepted == completed + expired + drained + rerouted``;
5. every killed shard rejoins within the recovery bound *warm*: after
   a replay pass, each restarted shard that owns at least one of our
   signatures reports a checkpoint/cache hit from its own health
   endpoint;
6. SIGTERM drains cleanly: exit 0, ``fleet_drained`` logged.

Exit status: 0 on success, 1 on any mismatch or fleet misbehavior.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time

TOTAL_REQUESTS = 40
CLIENTS = 4
SHARDS = 4
#: Upper bound on any single shard's death-to-ready time (seconds).
RECOVERY_BOUND = float(os.environ.get("REPRO_FLEET_RECOVERY_BOUND", "25"))
#: Chaos applied when the caller doesn't bring their own.
DEFAULT_FAULTS = "shard-crash:0.1,shard-hang:0.05,net-drop:0.08"


def build_requests():
    """A deterministic mixed stream: repeats (dedup/cache food), a few
    distinct design points, every queued job type."""
    requests = []
    for i in range(TOTAL_REQUESTS):
        kind = i % 5
        if kind in (0, 1, 2):
            requests.append(("simulate", {"target": "GAU", "tlp": 1 + i % 6}))
        elif kind == 3:
            requests.append(("crat", {"target": "GAU"}))
        else:
            requests.append(("verify", {"target": "GAU"}))
    return requests


def unique_requests():
    seen = {}
    for job, params in build_requests():
        seen.setdefault(json.dumps([job, params], sort_keys=True),
                        (job, params))
    return seen


def run_worker(index, sock_path):
    """Child-process mode: submit this worker's slice, print JSON.

    Even workers go through the router; odd workers use the
    shard-aware FleetClient (direct dial + router fallback), so both
    paths see the chaos.
    """
    from repro.service import FleetClient, ServiceClient, submit_or_raise
    from repro.service.client import unwrap

    requests = build_requests()
    out = []
    if index % 2:
        with FleetClient(
            router_socket=sock_path, timeout=300.0, max_retries=8
        ) as fleet:
            for i in range(index, len(requests), CLIENTS):
                job, params = requests[i]
                result = unwrap(fleet.submit_routed(job, params))
                out.append({"index": i, "result": result})
            mix = {"direct": fleet.direct_hits,
                   "fallback": fleet.router_fallbacks}
    else:
        with ServiceClient(
            socket_path=sock_path, timeout=300.0, max_retries=8
        ) as client:
            for i in range(index, len(requests), CLIENTS):
                job, params = requests[i]
                result = submit_or_raise(client, job, params)
                out.append({"index": i, "result": result})
            mix = None
    json.dump({"records": out, "mix": mix}, sys.stdout)
    return 0


def compute_expected():
    """One-shot ground truth on a fresh, fault-free engine per job."""
    from repro.engine import EvaluationEngine, get_engine, set_engine
    from repro.service import execute, prepare
    from repro.service.protocol import Request

    # The parent may carry CI's REPRO_FAULTS; ground truth is clean.
    saved = os.environ.pop("REPRO_FAULTS", None)
    expected = {}
    previous = get_engine()
    try:
        for key, (job, params) in unique_requests().items():
            set_engine(EvaluationEngine(disk_cache=""))
            expected[key] = execute(prepare(Request(job=job, params=params)))
    finally:
        set_engine(previous)
        if saved is not None:
            os.environ["REPRO_FAULTS"] = saved
    return expected


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


def fleet_health(sock_path):
    from repro.service import ServiceClient
    from repro.service.client import unwrap

    with ServiceClient(socket_path=sock_path, max_retries=3) as client:
        return unwrap(client.submit("health"))


def shard_health(shard_socket):
    from repro.service import ServiceClient
    from repro.service.client import unwrap

    with ServiceClient(socket_path=shard_socket, max_retries=2,
                       timeout=10.0) as client:
        return unwrap(client.submit("health"))


def wait_for_live(sock_path, want, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            payload = fleet_health(sock_path)
            if len(payload["fleet"]["live"]) >= want:
                return payload
        except Exception:
            pass
        time.sleep(0.5)
    return None


def wait_shard_live(sock_path, sid, timeout=60.0):
    """Block until the fleet reports shard ``sid`` live (the chaos
    spec stays active, so a shard can die again at any moment — e.g.
    right as we probe it)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status = fleet_health(sock_path)["shards"][sid]
            if status["live"]:
                return status
        except Exception:
            pass
        time.sleep(0.5)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", type=int, default=None)
    parser.add_argument("--socket", default=None)
    args = parser.parse_args()

    if args.worker is not None:
        return run_worker(args.worker, args.socket)

    sock_path = os.path.join(
        os.environ.get("TMPDIR", "/tmp"), f"repro-fleet-{os.getpid()}.sock"
    )
    print(f"computing one-shot ground truth for "
          f"{len(unique_requests())} unique jobs ...", flush=True)
    expected = compute_expected()

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env.setdefault("REPRO_FAULTS", DEFAULT_FAULTS)
    env.setdefault("REPRO_FAULTS_SEED", "11")
    env.setdefault("REPRO_FAULT_HANG_SECONDS", "20")
    print(f"fleet chaos spec: {env['REPRO_FAULTS']} "
          f"(seed {env['REPRO_FAULTS_SEED']})", flush=True)
    # Router log goes to a real file, not a pipe: shards inherit the
    # router's stderr, so a pipe would stay open (and block our final
    # read) if anything strands a shard — and a file can be tailed on
    # any failure without waiting for process exit.
    log_path = sock_path + ".router.log"
    log_file = open(log_path, "w", encoding="utf-8")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--shards", str(SHARDS), "--socket", sock_path,
         "--workers", "2",
         "--heartbeat-interval", "0.5", "--replication-interval", "2"],
        env=env,
        stderr=log_file,
    )
    failures = 0
    try:
        if not wait_for_socket(sock_path, timeout=60):
            print("FAIL: router never bound its socket", file=sys.stderr)
            return 1
        if wait_for_live(sock_path, SHARDS) is None:
            print("FAIL: shards never all went live", file=sys.stderr)
            return 1
        print(f"fleet up on {sock_path} ({SHARDS} shards live); launching "
              f"{CLIENTS} client processes for {TOTAL_REQUESTS} requests "
              "...", flush=True)
        clients = [
            subprocess.Popen(
                [sys.executable, __file__,
                 "--worker", str(i), "--socket", sock_path],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for i in range(CLIENTS)
        ]
        # One guaranteed mid-run shard murder on top of the injected
        # chaos, so the restart path is exercised on every seed.
        time.sleep(3.0)
        try:
            victim_pid = fleet_health(sock_path)["shards"]["s0"]["pid"]
            if victim_pid:
                os.kill(victim_pid, signal.SIGKILL)
                print(f"killed shard s0 (pid {victim_pid}) mid-run",
                      flush=True)
        except Exception as err:
            print(f"note: explicit shard kill skipped: {err}", flush=True)

        requests = build_requests()
        answered = {}
        for client in clients:
            stdout, _ = client.communicate(timeout=600)
            if client.returncode != 0:
                print(f"FAIL: client exited {client.returncode}",
                      file=sys.stderr)
                failures += 1
                continue
            payload = json.loads(stdout)
            for record in payload["records"]:
                answered[record["index"]] = record["result"]
            if payload["mix"] is not None:
                print(f"  fleet-client mix: {payload['mix']}", flush=True)

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
        print(f"{len(answered)}/{len(requests)} answered under chaos, "
              f"{failures} mismatches", flush=True)

        # Recovery: every shard back up, then replay every unique job —
        # warm-rejoin and routing stability checks read from counters.
        payload = wait_for_live(sock_path, SHARDS, timeout=60.0)
        if payload is None:
            print("FAIL: fleet never returned to full strength",
                  file=sys.stderr)
            failures += 1
        from repro.service import ServiceClient, submit_or_raise

        # Two replay rounds: the first lands every signature on its
        # (possibly restarted) owner — served from the surviving
        # checkpoint journal when the shard completed it pre-kill —
        # and the second must be warm no matter when the kill landed.
        with ServiceClient(socket_path=sock_path, timeout=300.0,
                           max_retries=8) as client:
            for round_no in (1, 2):
                for key, (job, params) in unique_requests().items():
                    result = submit_or_raise(client, job, params)
                    if result != expected[key]:
                        print(f"FAIL: replay round {round_no} of {job} "
                              f"{params} diverged", file=sys.stderr)
                        failures += 1
        payload = fleet_health(sock_path)
        fleet = payload["fleet"]
        shards = payload["shards"]
        print(f"fleet counters: accepted={fleet['accepted']} "
              f"completed={fleet['completed']} "
              f"rerouted={fleet['rerouted']} expired={fleet['expired']} "
              f"drained={fleet['drained']} restarts={fleet['restarts']} "
              f"handoffs={fleet['handoffs']}", flush=True)
        if not fleet["conservation_ok"]:
            print("FAIL: conservation law violated: accepted != "
                  "completed + expired + drained + rerouted",
                  file=sys.stderr)
            failures += 1
        if fleet["restarts"] < 1:
            print("FAIL: no shard restarts recorded (the kill did not "
                  "exercise recovery)", file=sys.stderr)
            failures += 1
        # Warm-rejoin: probe each restarted shard directly (shards
        # speak the full protocol) with one of the smoke's own jobs —
        # replayed twice, the second answer must come from warm state
        # (checkpoint journal, sim cache or in-flight dedup).
        probe_key = json.dumps(
            ["simulate", {"target": "GAU", "tlp": 1}], sort_keys=True
        )
        assert probe_key in expected, "probe must be a smoke job"
        for sid in sorted(shards):
            status = shards[sid]
            if status["restarts"] < 1:
                continue
            recovery = status["max_recovery_seconds"] or 0.0
            if recovery > RECOVERY_BOUND:
                print(f"FAIL: shard {sid} took {recovery:.1f}s to "
                      f"recover (bound {RECOVERY_BOUND}s)",
                      file=sys.stderr)
                failures += 1
            health = None
            probe_error = None
            # The chaos spec is still live: the shard can be killed
            # again mid-probe (possibly BY the probe).  Wait for it to
            # be live and retry the whole probe a few times — each
            # restart bumps the epoch, re-rolling the fault draw.
            for _ in range(4):
                if wait_shard_live(sock_path, sid) is None:
                    probe_error = "never came back live"
                    continue
                try:
                    with ServiceClient(socket_path=status["socket"],
                                       timeout=300.0,
                                       max_retries=6) as direct:
                        for _ in range(2):
                            result = submit_or_raise(
                                direct, "simulate",
                                {"target": "GAU", "tlp": 1},
                            )
                            if result != expected[probe_key]:
                                print(f"FAIL: direct probe on {sid} "
                                      "diverged", file=sys.stderr)
                                failures += 1
                    health = shard_health(status["socket"])
                    break
                except Exception as err:
                    probe_error = err
            if health is None:
                print(f"FAIL: restarted shard {sid} unreachable: "
                      f"{probe_error}", file=sys.stderr)
                failures += 1
                continue
            warm = (health.get("checkpoint_hits", 0)
                    + health.get("sim_cache_hits", 0)
                    + health.get("dedup_hits", 0))
            if warm < 1:
                print(f"FAIL: restarted shard {sid} answered replayed "
                      f"signatures cold (no checkpoint/cache/dedup hits): "
                      f"{health}", file=sys.stderr)
                failures += 1
            else:
                print(f"  {sid}: rejoined warm after "
                      f"{status['restarts']} restart(s) "
                      f"(recovery {recovery:.2f}s, warm hits {warm})",
                      flush=True)
    except Exception as err:  # noqa: BLE001 — a dead fleet mid-check
        import traceback
        print(f"FAIL: smoke aborted mid-check: {err!r}", file=sys.stderr)
        traceback.print_exc()
        failures += 1
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=90)
        except subprocess.TimeoutExpired:
            daemon.kill()
            print("FAIL: fleet did not drain within 90s", file=sys.stderr)
            failures += 1
        log_file.close()
        with open(log_path, encoding="utf-8") as fh:
            router_log = fh.read()
    if daemon.returncode != 0:
        print(f"FAIL: fleet exited {daemon.returncode}", file=sys.stderr)
        failures += 1
    if "fleet_drained" not in router_log:
        print("FAIL: no fleet_drained line in the router log",
              file=sys.stderr)
        failures += 1
    if failures:
        print("=== router log tail ===", file=sys.stderr)
        for line in router_log.splitlines()[-40:]:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("fleet smoke: OK (bit-identical under chaos, conservation "
          "holds, killed shards rejoined warm, clean drain)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
