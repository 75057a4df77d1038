"""Integration tests for the compilation service.

Every test boots a real :class:`ReproServer` on a per-test unix socket
and talks to it through the real client library — no mocked transport —
because the interesting guarantees (single-flight dedup, zero-loss
drain, explicit backpressure) live in the interaction between the
connection handlers, the queue, and the workers.

The ``pause_workers`` hook makes the concurrency tests deterministic:
workers are held before their next job, requests pile up against the
admission layer, and only then are the workers released.
"""

import json
import os
import threading
import time

import pytest

from repro.engine import EvaluationEngine, get_engine, set_engine
from repro.errors import EXIT_PARSE, EXIT_SERVICE, ServiceError
from repro.service import (
    QUEUE_CHECKPOINT_NAME,
    ReproServer,
    ServiceClient,
    ServiceJobError,
    execute,
    prepare,
    submit_or_raise,
    validate_request,
)
from repro.service.protocol import Request

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
    engine = EvaluationEngine(jobs=1, disk_cache="")
    yield engine
    set_engine(previous)


@pytest.fixture()
def server(tmp_path, fresh_engine):
    srv = ReproServer(
        socket_path=str(tmp_path / "repro.sock"),
        engine=fresh_engine,
        workers=2,
        queue_limit=8,
        checkpoint_dir=str(tmp_path / "ckpt"),
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

    def test_simulate_matches_one_shot(self, server, fresh_engine):
        """The acceptance identity: a daemon answer is bit-identical to
        the same job executed directly on a fresh engine."""
        with make_client(server) as client:
            via_server = submit_or_raise(client, "simulate", SIM_GAU)
        previous = get_engine()
        try:
            set_engine(EvaluationEngine(jobs=1, disk_cache=""))
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

    def test_invalid_frame_rejected_inline(self, server):
        with make_client(server) as client:
            reply = client.request_once("simulate", {"bogus_param": 1})
            assert reply["status"] == "invalid"
            assert "bogus_param" in reply["error"]["message"]
            # The connection survives a schema rejection.
            assert client.ping()

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
        assert payload["protocol_version"] == 1
        service = payload["service"]
        assert service["accepted"] == 1
        assert service["completed"] == 1
        assert service["executed"] == 1
        assert service["queue_depth"] == 0
        assert service["workers"] == 2
        assert "simulate" in service["latency"]
        assert service["latency"]["simulate"]["count"] == 1
        assert payload["engine"]["stats"]["simulations"] >= 1
        assert "events" not in payload["engine"]

    def test_request_events_recorded(self, server, fresh_engine):
        from repro.engine.events import RequestEvent

        with make_client(server) as client:
            submit_or_raise(client, "simulate", SIM_GAU)
        events = [
            e for e in fresh_engine.events if isinstance(e, RequestEvent)
        ]
        assert events and events[-1].job == "simulate"
        assert events[-1].status == "ok"
        assert events[-1].deduped is False


class TestSingleFlight:
    def test_concurrent_identical_requests_cost_one_evaluation(
        self, server, fresh_engine
    ):
        """N identical concurrent submits -> exactly 1 execution."""
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
        # All n must be admitted (and n-1 deduplicated) while the
        # workers are still held — dedup happens at admission, not at
        # execution.
        assert _wait_until(
            lambda: server.stats.to_dict()["accepted"] == n
        ), server.stats.to_dict()
        assert server.stats.to_dict()["dedup_hits"] == n - 1
        server.resume_workers()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert len(results) == n
        assert all(r == results[0] for r in results)
        stats = server.stats.to_dict()
        assert stats["executed"] == 1
        assert stats["completed"] == 1
        # The engine agrees: one batch of simulations, not six.
        assert fresh_engine.stats.simulations == 1

    def test_distinct_requests_do_not_dedup(self, server):
        server.pause_workers()
        replies = []

        def submit(tlp):
            with make_client(server) as client:
                replies.append(submit_or_raise(
                    client, "simulate", {"target": "GAU", "tlp": tlp}
                ))

        threads = [
            threading.Thread(target=submit, args=(tlp,)) for tlp in (1, 2)
        ]
        for t in threads:
            t.start()
        assert _wait_until(
            lambda: server.stats.to_dict()["accepted"] == 2
        )
        assert server.stats.to_dict()["dedup_hits"] == 0
        server.resume_workers()
        for t in threads:
            t.join(timeout=30.0)
        assert len(replies) == 2
        assert server.stats.to_dict()["executed"] == 2

    @pytest.mark.parametrize("job", ["crat", "simulate"])
    def test_target_and_inline_ptx_twins_sign_differently(self, job):
        """A ``target`` job also gets its workload's grid, buffer sizes
        and default register count; an inline-``ptx`` twin of the same
        kernel gets none of them (KMN at TLP 1 simulates to 271,132
        vs 361,512 cycles), so the two must never share one reply."""
        from repro.ptx import print_kernel
        from repro.workloads import load_workload

        ptx = print_kernel(load_workload("KMN").kernel)
        extra = {"tlp": 1} if job == "simulate" else {}

        def sign(**target):
            return prepare(Request(job=job, params={**target, **extra}))

        as_target, as_ptx = sign(target="KMN"), sign(ptx=ptx)
        assert as_target.kernel.fingerprint() == as_ptx.kernel.fingerprint()
        assert as_target.signature != as_ptx.signature
        assert sign(target="KMN").signature == as_target.signature
        assert sign(ptx=ptx).signature == as_ptx.signature


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


class TestDeadlines:
    def test_queued_past_deadline_expires(self, server):
        server.pause_workers()
        try:
            with make_client(server) as client:
                t0 = time.monotonic()
                reply = client.request_once(
                    "simulate", {"target": "GAU", "tlp": 5}, deadline=0.3
                )
                waited = time.monotonic() - t0
            assert reply["status"] == "expired"
            assert waited >= 0.25
            assert server.stats.to_dict()["expired"] == 1
        finally:
            server.resume_workers()
        # The abandoned job must not poison the worker loop.
        with make_client(server) as client:
            assert client.ping()


class TestDrain:
    def test_drain_loses_zero_accepted_jobs(self, tmp_path, fresh_engine):
        """SIGTERM semantics: every accepted job is either answered or
        checkpointed — never silently dropped."""
        ckpt_dir = tmp_path / "ckpt"
        server = ReproServer(
            socket_path=str(tmp_path / "drain.sock"),
            engine=fresh_engine,
            workers=1,
            queue_limit=8,
            checkpoint_dir=str(ckpt_dir),
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
        assert _wait_until(
            lambda: server.stats.to_dict()["accepted"] == 3
        )
        server.shutdown(drain=True)
        for t in threads:
            t.join(timeout=30.0)

        assert len(replies) == 3
        assert all(r["status"] == "drained" for r in replies)
        stats = server.stats.to_dict()
        # Conservation: accepted == completed + expired + drained.
        assert stats["accepted"] == 3
        assert stats["completed"] == 0
        assert stats["drained"] == 3
        ckpt = ckpt_dir / QUEUE_CHECKPOINT_NAME
        assert ckpt.exists()
        lines = [
            json.loads(line)
            for line in ckpt.read_text().splitlines() if line
        ]
        assert len(lines) == 3
        assert sorted(rec["params"]["tlp"] for rec in lines) == [1, 2, 3]
        # Every checkpointed record re-validates as a protocol request.
        for rec in lines:
            assert validate_request(rec).job == "simulate"

    def test_checkpointed_queue_resumes_on_boot(
        self, tmp_path, fresh_engine
    ):
        ckpt_dir = tmp_path / "ckpt"
        os.makedirs(ckpt_dir)
        requests = [
            {"job": "simulate", "params": {"target": "GAU", "tlp": tlp}}
            for tlp in (1, 2)
        ]
        with open(ckpt_dir / QUEUE_CHECKPOINT_NAME, "w") as handle:
            for rec in requests:
                handle.write(json.dumps(rec) + "\n")
            handle.write("not json, must be skipped\n")

        server = ReproServer(
            socket_path=str(tmp_path / "resume.sock"),
            engine=fresh_engine,
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server.start()
        try:
            # The checkpoint is consumed on boot and the two valid jobs
            # run to warm the cache (no waiters, so only `executed`
            # moves — they were never re-accepted from a client).
            assert not (ckpt_dir / QUEUE_CHECKPOINT_NAME).exists()
            assert _wait_until(
                lambda: server.stats.to_dict()["executed"] == 2
            ), server.stats.to_dict()
            assert fresh_engine.stats.simulations == 2
        finally:
            server.shutdown(drain=False)

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
