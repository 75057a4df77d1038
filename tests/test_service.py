"""Integration tests for the compilation service.

Every test boots a real :class:`ReproServer` on a per-test unix socket
and talks to it through the real client library — no mocked transport —
because the interesting guarantees (one job per request, per-request
counters, zero-loss drain, explicit backpressure) live in the
interaction between the connection handlers, the queue, and the
workers.

The ``pause_workers`` hook makes the concurrency tests deterministic:
workers are held before their next job, requests pile up in the queue,
and only then are the workers released.
"""

import json
import os
import pathlib
import re
import threading
import time

import pytest

from repro.cli import main
from repro.engine import EvaluationEngine, get_engine, set_engine
from repro.errors import EXIT_PARSE, EXIT_SERVICE, EXIT_VERIFY, ServiceError
from repro.service import jobs
from repro.service.client import (
    ServiceClient,
    ServiceJobError,
    submit_or_raise,
    unwrap,
)
from repro.service.jobs import execute, prepare
from repro.service.protocol import Request
from repro.service.queue import Job, JobQueue, QueueFullError
from repro.service.server import ReproServer

#: A cheap evaluation job (single-point simulation of the smallest app).
SIM_GAU = {"target": "GAU", "tlp": 2}


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def fresh_engine():
    """Isolate each test from the process-wide engine singleton."""
    previous = get_engine()
    engine = EvaluationEngine(disk_cache="")
    yield engine
    set_engine(previous)


@pytest.fixture()
def server(tmp_path, fresh_engine):
    srv = ReproServer(
        socket_path=str(tmp_path / "repro.sock"),
        engine=fresh_engine,
        workers=2,
        queue_limit=8,
    )
    srv.start()
    yield srv
    srv.shutdown(drain=False)


def make_client(server, **kwargs):
    kwargs.setdefault("timeout", 30.0)
    return ServiceClient(socket_path=server.socket_path, **kwargs)


class TestBasics:
    def test_ping(self, server):
        with make_client(server) as client:
            assert client.ping()
            reply = client.request_once("ping")
        assert reply["result"] == {"pong": True, "protocol_version": 2}

    def test_simulate_matches_one_shot(self, server, fresh_engine):
        """The acceptance identity: a daemon answer is bit-identical to
        the same job executed directly on a fresh engine."""
        with make_client(server) as client:
            via_server = submit_or_raise(client, "simulate", SIM_GAU)
        previous = get_engine()
        try:
            set_engine(EvaluationEngine(disk_cache=""))
            prepared = prepare(Request(job="simulate", params=SIM_GAU))
            one_shot = execute(prepared)
        finally:
            set_engine(previous)
        assert via_server == one_shot

    def test_repeat_submission_hits_warm_cache(self, server, fresh_engine):
        with make_client(server) as client:
            first = submit_or_raise(client, "simulate", SIM_GAU)
            sims_after_first = fresh_engine.stats.simulations
            second = submit_or_raise(client, "simulate", SIM_GAU)
        assert first == second
        assert fresh_engine.stats.simulations == sims_after_first

    def test_job_error_carries_original_exit_code(self, server):
        with make_client(server) as client:
            reply = client.submit("simulate", {"ptx": "this is not ptx"})
            assert reply["status"] == "error"
            assert reply["error"]["exit_code"] == EXIT_PARSE
            with pytest.raises(ServiceJobError) as err:
                submit_or_raise(client, "simulate", {"ptx": "nope"})
            assert err.value.exit_code == EXIT_PARSE

    def test_df_error_at_load_is_a_parse_error(self, server):
        """A ``crat`` job loads inline PTX through the DF load gate, as
        ``repro crat FILE`` does: the seeded maybe-uninitialized read
        comes back as a ``ParseError`` naming DF001."""
        with open("examples/uninit_read.ptx") as handle:
            params = {"ptx": handle.read()}
        with make_client(server) as client:
            reply = client.submit("crat", params)
        assert reply["status"] == "error"
        assert reply["error"]["kind"] == "ParseError"
        assert reply["error"]["exit_code"] == EXIT_PARSE
        assert "DF001" in reply["error"]["message"]

    def test_invalid_frame_rejected_inline(self, server):
        with make_client(server) as client:
            reply = client.request_once("simulate", {"bogus_param": 1})
            assert reply["status"] == "invalid"
            assert "bogus_param" in reply["error"]["message"]
            # The connection survives a schema rejection.
            assert client.ping()

    @pytest.mark.parametrize("field", ["deadline", "priority"])
    def test_retired_admission_fields_rejected(self, server, field):
        """Protocol 2 has no per-request deadline or priority: a frame
        that carries one is invalid, naming the field."""
        import socket as socket_mod

        frame = {"id": "r1", "job": "simulate", "params": SIM_GAU,
                 field: 1}
        sock = socket_mod.socket(socket_mod.AF_UNIX)
        sock.settimeout(10.0)
        sock.connect(server.socket_path)
        try:
            sock.sendall(json.dumps(frame).encode() + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
        finally:
            sock.close()
        assert reply["status"] == "invalid"
        assert reply["error"]["message"] == f"unknown field(s): {field}"
        assert server.stats.to_dict()["accepted"] == 0

    def test_raw_garbage_line_rejected(self, server):
        import socket as socket_mod

        sock = socket_mod.socket(socket_mod.AF_UNIX)
        sock.settimeout(10.0)
        sock.connect(server.socket_path)
        try:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
            assert reply["status"] == "invalid"
        finally:
            sock.close()

    def test_stats_payload_shape(self, server):
        with make_client(server) as client:
            submit_or_raise(client, "simulate", SIM_GAU)
            payload = client.stats()
        assert payload["protocol_version"] == 2
        service = payload["service"]
        assert service["accepted"] == 1
        assert service["completed"] == 1
        assert service["executed"] == 1
        assert service["expired"] == 0
        assert "dedup_hits" not in service and "inflight" not in service
        assert service["queue_depth"] == 0
        assert service["workers"] == 2
        assert "simulate" in service["latency"]
        assert service["latency"]["simulate"]["count"] == 1
        assert payload["engine"]["stats"]["simulations"] >= 1
        assert "spans" not in payload["engine"]
        assert "self_seconds" not in payload["engine"]

    def test_request_events_recorded(self, server, fresh_engine):
        with make_client(server) as client:
            submit_or_raise(client, "simulate", SIM_GAU)
            payload = client.stats(include_events=True)
        spans = {s["id"]: s for s in payload["engine"]["spans"]}
        [request] = _named(spans.values(), "service.request")
        assert request["attrs"] == {"job": "simulate", "status": "ok"}
        [execute] = _named(spans.values(), "service.execute")
        # The worker's spans carry the request id and nest the
        # simulation the request caused.
        [simulate] = _named(spans.values(), "engine.simulate")
        assert simulate["parent"] == execute["id"]
        assert execute["request"] == simulate["request"] == request["request"]
        assert request["request"]
        assert request["start"] <= execute["start"] <= execute["end"]
        assert execute["end"] <= request["end"]
        assert "service.execute" in payload["engine"]["self_seconds"]

    def test_oversized_reply_is_a_typed_error(self, server, fresh_engine):
        """A reply too large to frame (``stats`` with a long span log)
        comes back as a ServiceError reply, and the same connection
        keeps working."""
        for _ in range(60_000):  # about 10 MB of spans, over the 4 MiB cap
            fresh_engine.mark("service.request", job="simulate",
                              status="ok")
        with make_client(server) as client:
            reply = client.request_once("stats", {"include_events": True})
            assert reply["status"] == "error"
            assert reply["error"]["kind"] == "ServiceError"
            assert reply["error"]["exit_code"] == EXIT_SERVICE
            assert re.search(r"frame of \d+ bytes exceeds MAX_FRAME_BYTES",
                             reply["error"]["message"])
            assert client.ping()
        assert server.stats.to_dict()["connections"] == 1


def _named(spans, name):
    return [span for span in spans if span["name"] == name]


class TestAdmission:
    def test_identical_concurrent_requests_each_run(
        self, server, fresh_engine
    ):
        """N identical concurrent submits are N jobs: each is queued,
        run once and answered, all with the same payload."""
        n = 6
        server.pause_workers()
        results, errors = [], []

        def submit():
            try:
                with make_client(server) as client:
                    results.append(
                        submit_or_raise(client, "simulate", SIM_GAU)
                    )
            except Exception as err:  # pragma: no cover - fail loudly
                errors.append(err)

        threads = [threading.Thread(target=submit) for _ in range(n)]
        for t in threads:
            t.start()
        assert _wait_until(lambda: len(server._queue) == n)
        server.resume_workers()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert len(results) == n
        assert all(r == results[0] for r in results)
        stats = server.stats.to_dict()
        assert stats["accepted"] == stats["completed"] == n
        assert stats["executed"] == n

    def test_queue_is_fifo(self):
        queue = JobQueue(limit=3)
        queued = [
            Job(Request(job="simulate", params={**SIM_GAU, "tlp": tlp}))
            for tlp in (1, 2, 3)
        ]
        for job in queued:
            queue.put(job)
        with pytest.raises(QueueFullError):
            queue.put(Job(Request(job="simulate", params=SIM_GAU)))
        assert queue.get() is queued[0]
        assert queue.drain_remaining() == queued[1:]
        assert queue.get() is None
        with pytest.raises(QueueFullError):
            queue.put(queued[0])


class TestSingleFlight:
    """No single-flight table stands between admission and the workers:
    no request is merged into another's run."""

    def test_distinct_requests_do_not_dedup(self, server):
        server.pause_workers()
        replies = {}

        def submit(tlp):
            with make_client(server) as client:
                replies[tlp] = submit_or_raise(
                    client, "simulate", {"target": "GAU", "tlp": tlp}
                )

        threads = [
            threading.Thread(target=submit, args=(tlp,)) for tlp in (1, 2)
        ]
        for t in threads:
            t.start()
        assert _wait_until(lambda: len(server._queue) == 2)
        server.resume_workers()
        for t in threads:
            t.join(timeout=30.0)
        assert sorted(replies) == [1, 2]
        assert replies[1] != replies[2]
        stats = server.stats.to_dict()
        assert stats["accepted"] == stats["completed"] == 2
        assert stats["executed"] == 2


class TestConservation:
    def test_counters_hold_under_concurrency(self, tmp_path, fresh_engine):
        """More workers and clients than cores, with a short thread
        switch interval: a lost counter update breaks the totals."""
        import sys

        ptx = pathlib.Path("examples/spilled.ptx").read_text()
        server = ReproServer(
            socket_path=str(tmp_path / "stress.sock"),
            engine=fresh_engine,
            workers=4,
            queue_limit=64,
        )
        server.start()
        clients, per_client, errors = 8, 5, []

        def submit():
            try:
                with make_client(server) as client:
                    for _ in range(per_client):
                        submit_or_raise(client, "verify", {"ptx": ptx})
            except Exception as err:  # pragma: no cover - fail loudly
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit)
                       for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown(drain=True)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = server.stats.to_dict()
        total = clients * per_client
        assert (stats["accepted"], stats["completed"], stats["executed"]) \
            == (total, total, total)
        assert stats["latency"]["verify"]["count"] == total

    def test_every_request_ends_in_one_counter(
        self, tmp_path, fresh_engine, monkeypatch
    ):
        """One daemon, five requests, one per reply status path: each
        is accepted once and ends in the one counter of its reply, so
        accepted == completed + failed + rejected_overloaded + drained."""
        server = ReproServer(
            socket_path=str(tmp_path / "law.sock"),
            engine=fresh_engine,
            workers=1,
            queue_limit=1,
        )
        server.start()

        def explode(prepared):
            raise RuntimeError("handler exploded")

        held = []

        def hold():
            with make_client(server) as client:
                held.append(client.request_once(
                    "simulate", {"target": "GAU", "tlp": 1}
                ))

        holder = threading.Thread(target=hold)
        try:
            with make_client(server, max_retries=0) as client:
                ok = client.request_once("simulate", SIM_GAU)
                unknown = client.request_once("simulate", {"target": "NOPE"})
                monkeypatch.setitem(jobs._HANDLERS, "verify", explode)
                raised = client.request_once("verify", {"target": "GAU"})
                server.pause_workers()
                holder.start()
                assert _wait_until(lambda: len(server._queue) == 1)
                overloaded = client.request_once(
                    "simulate", {"target": "GAU", "tlp": 3}
                )
        finally:
            server.shutdown(drain=True)
        holder.join(timeout=30.0)

        assert ok["status"] == "ok"
        assert unknown["status"] == "error"
        assert unknown["error"]["exit_code"] == EXIT_PARSE
        assert raised["status"] == "error"
        assert "handler exploded" in raised["error"]["message"]
        assert overloaded["status"] == "overloaded"
        assert [r["status"] for r in held] == ["drained"]
        stats = server.stats.to_dict()
        counters = ("accepted", "completed", "failed",
                    "rejected_overloaded", "drained", "executed",
                    "rejected_invalid", "expired")
        assert {name: stats[name] for name in counters} == {
            "accepted": 5, "completed": 1, "failed": 2,
            "rejected_overloaded": 1, "drained": 1, "executed": 2,
            "rejected_invalid": 0, "expired": 0,
        }
        assert stats["accepted"] == (
            stats["completed"] + stats["failed"]
            + stats["rejected_overloaded"] + stats["drained"]
        )


#: ``repro verify`` inputs for the parity test: every example kernel,
#: plus two kernels that only a checked load would refuse.
VERIFY_PARITY_INPUTS = [
    pytest.param(path.read_text(), id=path.name)
    for path in sorted(pathlib.Path("examples").glob("*.ptx"))
] + [
    pytest.param(
        ".entry k ()\n{\n    add.u32 %r0, %r1, %r2;\n    exit;\n}\n",
        id="undefined-register",
    ),
    pytest.param(
        ".entry k ()\n{\n    mov.u64 %rd0, ghost;\n    exit;\n}\n",
        id="undeclared-symbol",
    ),
]


class TestVerifyParity:
    @pytest.mark.parametrize("text", VERIFY_PARITY_INPUTS)
    def test_daemon_verify_job_matches_one_shot(
        self, text, server, tmp_path, capsys
    ):
        """The ``verify`` job loads as ``repro verify FILE`` does: the
        same report, and ``passed`` false exactly when the CLI exits 6."""
        path = tmp_path / "kernel.ptx"
        path.write_text(text)
        code = main(["verify", str(path), "--json"])
        one_shot = json.loads(capsys.readouterr().out)
        params = {"ptx": text}
        with make_client(server) as client:
            reply = client.submit("verify", params)
        assert reply["status"] == "ok", reply
        payload = reply["result"]
        passed = payload.pop("passed")
        assert payload == one_shot
        assert code in (0, EXIT_VERIFY)
        assert passed is (code != EXIT_VERIFY)


#: A kernel whose only finding is a warning (DF003, unreachable block).
WARNING_ONLY_PTX = (".entry k ()\n{\n    bra DONE;\nDEAD:\n"
                    "    mov.u32 %r0, 1;\nDONE:\n    exit;\n}\n")


class TestSubmitCli:
    """``repro submit J ARGS`` prints and exits exactly as ``repro J
    ARGS``: both build the job's params with one function and print its
    payload through one renderer."""

    @staticmethod
    def _both(argv, server, capsys):
        code = main(argv)
        one_shot = (code, capsys.readouterr().out)
        code = main(["submit", *argv, "--socket", server.socket_path])
        return one_shot, (code, capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [
        ["crat", "GAU", "--static"],
        ["simulate", "GAU", "--tlp", "2", "--grid", "4", "--passes", "dce",
         "--verify"],
        ["verify", "examples/uninit_read.ptx"],
        ["verify", "examples/uninit_read.ptx", "--json"],
        ["verify", "examples/miscompiled.ptx", "--json"],
    ])
    def test_matches_one_shot(self, argv, server, capsys):
        one_shot, submitted = self._both(argv, server, capsys)
        assert submitted == one_shot
        assert one_shot[1]

    @pytest.mark.parametrize("flag", [["--deadline", "5"],
                                      ["--priority", "1"]])
    def test_retired_admission_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["submit", "crat", "GAU", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["crat", "GAU"], ["simulate", "GAU"],
                                      ["suite"]])
    def test_unknown_config_exits_2(self, argv, server, capsys):
        """An unknown ``--config`` fails in ``prepare``, as an unknown
        app does, before any work."""
        one_shot, submitted = self._both(
            [*argv, "--config", "bogus"], server, capsys
        )
        assert submitted == one_shot == (EXIT_PARSE, "")

    def test_strict_warning_only_kernel(self, server, tmp_path, capsys):
        path = tmp_path / "warn.ptx"
        path.write_text(WARNING_ONLY_PTX)
        one_shot, submitted = self._both(
            ["verify", str(path), "--strict"], server, capsys
        )
        assert submitted == one_shot
        assert one_shot[0] == EXIT_VERIFY

    def test_simulate_forwards_verify(self, server, tmp_path, capsys):
        """Spill-stack findings pass the DF load gate, so only a
        forwarded ``--verify`` turns them into exit 6."""
        text = pathlib.Path("examples/miscompiled.ptx").read_text().replace(
            "    setp.lt.s32", "    cvt.f32 %f1, %r0;\n    setp.lt.s32"
        )
        path = tmp_path / "al_only.ptx"
        path.write_text(text)
        one_shot, submitted = self._both(
            ["simulate", str(path), "--tlp", "1", "--verify"], server, capsys
        )
        assert submitted == one_shot == (EXIT_VERIFY, "")

    def test_partial_suite(self, server, monkeypatch, capsys):
        """The table and exit 5; the ``engine:`` line reads the one-shot
        process's own engine, so only the one-shot prints it."""
        import repro.bench

        from .test_cli_suite import _FakeEvaluation

        def flaky(abbr, config="fermi"):
            if abbr == "KMN":
                raise RuntimeError("simulated explosion")
            return _FakeEvaluation()

        monkeypatch.setattr(repro.bench, "evaluate_app", flaky)
        (code, out), submitted = self._both(["suite"], server, capsys)
        table, _ = out.split("engine: ")
        assert submitted == (code, table)
        assert code == 5
        assert "CRAT suite results" in table and "KMN" not in table


def test_importing_jobs_loads_no_daemon():
    """A one-shot command reaches the job path without loading the
    daemon, its client or sockets."""
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    probe = ("import sys, repro.service.jobs; print(sorted(m for m in "
             "('socket', 'repro.service.server', 'repro.service.client') "
             "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


class TestBackpressure:
    def test_overloaded_when_queue_full(self, tmp_path, fresh_engine):
        server = ReproServer(
            socket_path=str(tmp_path / "bp.sock"),
            engine=fresh_engine,
            workers=1,
            queue_limit=1,
        )
        server.start()
        try:
            server.pause_workers()
            holder = threading.Thread(
                target=lambda: make_client(server).submit(
                    "simulate", {"target": "GAU", "tlp": 1}
                )
            )
            holder.start()
            assert _wait_until(lambda: len(server._queue) == 1)
            with make_client(server, max_retries=0) as client:
                reply = client.request_once(
                    "simulate", {"target": "GAU", "tlp": 3}
                )
            assert reply["status"] == "overloaded"
            assert reply["retry_after"] >= 0.1
            assert server.stats.to_dict()["rejected_overloaded"] == 1
            server.resume_workers()
            holder.join(timeout=30.0)
        finally:
            server.shutdown(drain=False)

    def test_client_honors_retry_after_hint(self):
        """The retry ladder uses the server hint as a floor."""
        sleeps = []
        client = ServiceClient(
            socket_path="/nonexistent.sock",
            max_retries=3,
            sleep=sleeps.append,
        )
        replies = iter([
            {"status": "overloaded", "retry_after": 2.5},
            {"status": "overloaded", "retry_after": 0.01},
            {"status": "ok", "result": {"fine": True}},
        ])
        client.request_once = lambda *a, **k: next(replies)
        reply = client.submit("simulate", SIM_GAU)
        assert reply["status"] == "ok"
        # Every wait is the hint (an additive floor) plus a decorrelated
        # jitter draw bounded by the backoff cap — never below the hint
        # (that would re-stampede the server) and never exactly at it
        # (all clients would reconverge on the hint instant).
        from repro.service.client import (
            DEFAULT_BACKOFF_BASE, DEFAULT_BACKOFF_CAP,
        )
        assert 2.5 + DEFAULT_BACKOFF_BASE <= sleeps[0] <= 2.5 + DEFAULT_BACKOFF_CAP
        assert 0.01 + DEFAULT_BACKOFF_BASE <= sleeps[1] <= 0.01 + DEFAULT_BACKOFF_CAP

    def test_client_gives_up_after_max_retries(self):
        sleeps = []
        client = ServiceClient(
            socket_path="/nonexistent.sock",
            max_retries=2,
            sleep=sleeps.append,
        )
        client.request_once = lambda *a, **k: {
            "status": "overloaded", "retry_after": 0.05,
        }
        with pytest.raises(ServiceError) as err:
            client.submit("simulate", SIM_GAU)
        assert err.value.exit_code == EXIT_SERVICE
        assert err.value.retry_after == 0.05
        assert len(sleeps) == 2

    def test_connection_refused_is_service_error(self, tmp_path):
        client = ServiceClient(
            socket_path=str(tmp_path / "absent.sock"),
            max_retries=0,
        )
        with pytest.raises(ServiceError, match="cannot reach"):
            client.request_once("ping")


class TestDrain:
    def test_drain_loses_zero_accepted_jobs(self, tmp_path, fresh_engine,
                                            monkeypatch):
        """SIGTERM semantics: every accepted job is answered — queued
        ones ``drained``, so their clients can resubmit — and the drain
        writes nothing."""
        monkeypatch.chdir(tmp_path)
        server = ReproServer(
            socket_path=str(tmp_path / "drain.sock"),
            engine=fresh_engine,
            workers=1,
            queue_limit=8,
        )
        server.start()
        server.pause_workers()
        replies = []

        def submit(tlp):
            with make_client(server) as client:
                replies.append(client.request_once(
                    "simulate", {"target": "GAU", "tlp": tlp}
                ))

        threads = [
            threading.Thread(target=submit, args=(tlp,))
            for tlp in (1, 2, 3)
        ]
        for t in threads:
            t.start()
        assert _wait_until(lambda: len(server._queue) == 3)
        server.shutdown(drain=True)
        for t in threads:
            t.join(timeout=30.0)

        assert len(replies) == 3
        assert all(r["status"] == "drained" for r in replies)
        stats = server.stats.to_dict()
        # Conservation: accepted == completed + failed +
        # rejected_overloaded + drained.
        assert stats["accepted"] == 3
        assert stats["completed"] == 0
        assert stats["drained"] == 3
        # The socket is gone and nothing took its place.
        assert not list(tmp_path.iterdir())

    def test_draining_daemon_answers_drained_without_retry(
        self, tmp_path, fresh_engine
    ):
        """A request that arrives on an open connection once the drain
        has closed the queue is answered ``drained`` at once: the client
        neither sleeps nor retries, and ``unwrap`` says resubmit."""
        server = ReproServer(
            socket_path=str(tmp_path / "late.sock"),
            engine=fresh_engine,
            workers=1,
        )
        server.start()
        sleeps = []
        stopper = threading.Thread(target=server.shutdown,
                                   kwargs={"drain": True})
        with make_client(server, sleep=sleeps.append) as client:
            assert client.ping()  # the connection is open before the drain
            stopper.start()
            assert _wait_until(lambda: server._queue._closed)
            reply = client.submit("simulate", SIM_GAU)
        stopper.join(timeout=30.0)
        assert reply == {"id": reply["id"], "status": "drained"}
        assert sleeps == []
        with pytest.raises(ServiceError, match="resubmit") as err:
            unwrap(reply)
        assert err.value.exit_code == EXIT_SERVICE
        stats = server.stats.to_dict()
        assert (stats["accepted"], stats["drained"],
                stats["rejected_overloaded"]) == (1, 1, 0)

    def test_eval_after_drain_is_refused(self, server):
        server.shutdown(drain=True)
        # The socket is gone; a fresh connection cannot be made.
        with pytest.raises(ServiceError):
            make_client(server, max_retries=0).request_once(
                "simulate", SIM_GAU
            )

    def test_shutdown_request_acknowledged_first(
        self, tmp_path, fresh_engine
    ):
        server = ReproServer(
            socket_path=str(tmp_path / "sd.sock"),
            engine=fresh_engine,
            workers=1,
        )
        server.start()
        with make_client(server) as client:
            ack = client.shutdown(drain=True)
        assert ack == {"shutting_down": True, "drain": True}
        assert _wait_until(lambda: server._stopped.is_set())
        assert not os.path.exists(server.socket_path)


class TestServerLifecycle:
    def test_stale_socket_file_is_replaced(self, tmp_path, fresh_engine):
        path = tmp_path / "stale.sock"
        path.write_bytes(b"")  # leftover file, nobody listening
        server = ReproServer(
            socket_path=str(path), engine=fresh_engine, workers=1
        )
        server.start()
        try:
            with make_client(server) as client:
                assert client.ping()
        finally:
            server.shutdown(drain=False)

    def test_double_bind_refused(self, server, fresh_engine):
        second = ReproServer(
            socket_path=server.socket_path, engine=fresh_engine, workers=1
        )
        with pytest.raises(ServiceError, match="already listening"):
            second.start()

    def test_log_tick_reports_each_request_once(self, tmp_path, fresh_engine):
        """Each ``service.request`` span is logged on the first tick
        after it closes, and never again, however many other spans
        follow it."""
        import io

        log = io.StringIO()
        server = ReproServer(socket_path=str(tmp_path / "tick.sock"),
                             engine=fresh_engine, log_stream=log)
        spans = fresh_engine.spans

        def tick():
            server._log_tick()
            lines = [json.loads(line) for line in log.getvalue().splitlines()]
            log.seek(0)
            log.truncate()
            assert lines[0]["kind"] == "service_stats"
            return [line["attrs"]["job"] for line in lines[1:]]

        # An idle daemon: one request, then quiet ticks.
        spans.record("service.request", 0.0, 1.0, job="a", status="ok")
        assert [tick(), tick(), tick()] == [["a"], [], []]
        # One request followed by five other spans.
        spans.record("service.request", 1.0, 2.0, job="b", status="ok")
        for _ in range(5):
            spans.mark("degrade")
        assert [tick(), tick()] == [["b"], []]

    def test_structured_log_lines(self, tmp_path, fresh_engine):
        import io

        log = io.StringIO()
        server = ReproServer(
            socket_path=str(tmp_path / "log.sock"),
            engine=fresh_engine,
            workers=1,
            log_stream=log,
        )
        server.start()
        server.shutdown(drain=True)
        kinds = [
            json.loads(line)["kind"]
            for line in log.getvalue().splitlines()
        ]
        assert kinds[0] == "service_ready"
        assert kinds[-1] == "service_drained"
