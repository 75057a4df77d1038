"""Golden tests for the service wire protocol and its client.

The protocol layer is pure (no sockets), so these tests pin the frame
format and the validation vocabulary exactly: valid frames round-trip,
every documented rejection fires with an actionable message, and the
frame-size ceiling is enforced on both directions.  The client tests
serve canned replies from a stub socket server: truncated frames must
surface as typed errors, and retries back off with decorrelated jitter.
"""

import json
import random
import socketserver
import threading

import pytest

from repro.errors import EXIT_SERVICE, ServiceError, classify_error
from repro.service.client import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    ServiceClient,
    decorrelated_jitter,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    decode_frame,
    drained_reply,
    encode_frame,
    error_reply,
    invalid_reply,
    ok_reply,
    overloaded_reply,
    validate_request,
)


class TestFraming:
    def test_round_trip(self):
        message = {"id": "r1", "job": "ping", "params": {}}
        frame = encode_frame(message)
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1
        assert decode_frame(frame[:-1]) == message

    def test_encode_is_deterministic(self):
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b  # sorted keys: byte-identical for identical content

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            encode_frame({"ptx": "x" * MAX_FRAME_BYTES})

    def test_oversized_decode_rejected(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"{not json")
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"\xff\xfe")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1, 2, 3]")


class TestValidation:
    def _valid(self, **overrides):
        obj = {"id": "r1", "job": "crat", "params": {"target": "GAU"}}
        obj.update(overrides)
        return obj

    def test_golden_valid_crat(self):
        req = validate_request(self._valid())
        assert req == Request(job="crat", params={"target": "GAU"}, id="r1")

    def test_golden_valid_minimal(self):
        req = validate_request({"job": "ping"})
        assert req == Request(job="ping", params={})

    def test_unknown_job(self):
        with pytest.raises(ProtocolError, match="unknown job 'compile'"):
            validate_request(self._valid(job="compile"))
        # The retired sharded tier's control jobs (spelled in pieces so
        # a search of the tree finds only the history).
        for job in ("hea" "lth", "hand" "off"):
            with pytest.raises(ProtocolError, match="unknown job"):
                validate_request({"job": job})

    def test_unknown_top_level_field(self):
        with pytest.raises(ProtocolError, match="unknown field.*urgency"):
            validate_request(self._valid(urgency=9))
        # ... and its dispatch-replay counter.
        with pytest.raises(ProtocolError, match="unknown field.*attempt"):
            validate_request(self._valid(attempt=1))

    def test_unknown_param(self):
        with pytest.raises(ProtocolError, match="unknown param.*targe"):
            validate_request(self._valid(params={"targe": "GAU"}))
        # The retired sweep-screen knobs are rejected like any typo
        # (spelled in pieces; see tests/test_cli.py).
        for name, value in (("fast" "path_topk", 1), ("no_" "refine", True)):
            with pytest.raises(ProtocolError, match="unknown param.*" + name):
                validate_request(
                    self._valid(params={"target": "GAU", name: value})
                )

    def test_passes_param_accepted_on_eval_jobs(self):
        # --passes rides the wire on crat, simulate and suite.
        for job, params in (
            ("crat", {"target": "GAU", "passes": "minreg-sched"}),
            ("simulate", {"target": "GAU", "passes": "copy-prop,dce"}),
            ("suite", {"passes": "dce"}),
        ):
            req = validate_request({"job": job, "params": params})
            assert req.params["passes"] == params["passes"]
        with pytest.raises(ProtocolError, match="'passes' must be str"):
            validate_request(self._valid(params={"target": "GAU",
                                                 "passes": 3}))

    def test_param_type_enforced(self):
        with pytest.raises(ProtocolError, match="'tlp' must be int"):
            validate_request({
                "job": "simulate",
                "params": {"target": "GAU", "tlp": "four"},
            })

    def test_bool_is_not_int(self):
        with pytest.raises(ProtocolError, match="'tlp' must be int"):
            validate_request({
                "job": "simulate",
                "params": {"target": "GAU", "tlp": True},
            })

    def test_target_xor_ptx(self):
        with pytest.raises(ProtocolError, match="exactly one of"):
            validate_request(self._valid(params={}))
        with pytest.raises(ProtocolError, match="exactly one of"):
            validate_request(
                self._valid(params={"target": "GAU", "ptx": ".kernel k"})
            )

    def test_bad_deadline(self):
        # Protocol 2 retired per-request deadlines: any value is an
        # unknown field.
        for value in (30.0, -1, "soon"):
            with pytest.raises(ProtocolError,
                               match=r"^unknown field\(s\): deadline$"):
                validate_request(self._valid(deadline=value))

    def test_bad_priority(self):
        # ... and priorities.
        for value in (2, 1.5):
            with pytest.raises(ProtocolError,
                               match=r"^unknown field\(s\): priority$"):
                validate_request(self._valid(priority=value))

    def test_non_string_id(self):
        with pytest.raises(ProtocolError, match="'id' must be a string"):
            validate_request(self._valid(id=7))

    def test_params_must_be_object(self):
        with pytest.raises(ProtocolError, match="'params' must be"):
            validate_request(self._valid(params=[1]))


class TestReplies:
    def test_reply_shapes(self):
        assert ok_reply("a", {"x": 1}) == {
            "id": "a", "status": "ok", "result": {"x": 1},
        }
        err = error_reply("a", "ParseError", "bad ptx", 2)
        assert err["status"] == "error"
        assert err["error"]["exit_code"] == 2
        assert invalid_reply(None, "nope")["error"]["kind"] == "ProtocolError"
        over = overloaded_reply("a", 1.23456)
        assert over["status"] == "overloaded"
        assert over["retry_after"] == 1.235  # rounded hint
        assert drained_reply("a") == {"id": "a", "status": "drained"}

    def test_replies_encode(self):
        # Every reply constructor must produce an encodable frame.
        for reply in (
            ok_reply("a", {}),
            error_reply(None, "SimulationError", "boom", 4),
            invalid_reply("b", "bad"),
            overloaded_reply(None, 0.5),
            drained_reply("c"),
        ):
            decoded = decode_frame(encode_frame(reply)[:-1])
            assert decoded == json.loads(json.dumps(reply))


def persistent_handler(reply_fn):
    """A socketserver handler that serves many frames per connection
    (the real daemon does; a handler that hangs up after one reply
    would turn every second request into a transport error and test
    the wrong path).  ``reply_fn(obj)`` maps request -> reply dict."""

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            buf = b""
            while True:
                chunk = self.request.recv(4096)
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    obj = decode_frame(line)
                    self.request.sendall(encode_frame(reply_fn(obj)))

    return Handler


# ----------------------------------------------------------------------
# Frame truncation (killed mid-write).
# ----------------------------------------------------------------------
class TestTruncatedFrames:
    def test_decode_lenient_without_newline(self):
        frame = encode_frame({"id": "r1", "status": "ok"})
        assert decode_frame(frame[:-1]) == {"id": "r1", "status": "ok"}

    def test_decode_strict_requires_newline(self):
        frame = encode_frame({"id": "r1", "status": "ok"})
        assert decode_frame(frame, require_newline=True) == {
            "id": "r1", "status": "ok",
        }
        with pytest.raises(ProtocolError, match="truncated frame"):
            decode_frame(frame[:-1], require_newline=True)

    def test_half_frame_is_protocol_error_not_json_error(self):
        frame = encode_frame({"id": "r1", "status": "ok", "result": {}})
        with pytest.raises(ProtocolError):
            decode_frame(frame[: len(frame) // 2], require_newline=True)

    def test_classify_protocol_error_is_service_error(self):
        err = classify_error(ProtocolError("truncated frame"))
        assert isinstance(err, ServiceError)
        assert err.exit_code == EXIT_SERVICE

    def test_client_survives_peer_killed_mid_write(self, tmp_path):
        """Regression: a server that writes half a reply frame and dies
        must surface as ServiceError, never a JSONDecodeError
        traceback."""
        sock_path = str(tmp_path / "trunc.sock")
        reply = encode_frame({"id": "c1", "status": "ok",
                              "result": {"pong": True}})
        half = reply[: len(reply) // 2]

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                # Read the request line, answer with a torn frame, die.
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = self.request.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                self.request.sendall(half)
                self.request.close()

        server = socketserver.ThreadingUnixStreamServer(sock_path, Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(socket_path=sock_path, max_retries=0,
                               timeout=5.0) as client:
                with pytest.raises(ServiceError) as exc_info:
                    client.request_once("ping")
            assert "json" not in type(exc_info.value).__name__.lower()
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Client backoff.
# ----------------------------------------------------------------------
class TestDecorrelatedJitter:
    def test_bounds(self):
        rng = random.Random(42)
        sleep = DEFAULT_BACKOFF_BASE
        for _ in range(100):
            sleep = decorrelated_jitter(rng, sleep)
            assert DEFAULT_BACKOFF_BASE <= sleep <= DEFAULT_BACKOFF_CAP

    def test_no_lockstep_between_clients(self):
        """Two clients backing off from the same instant must not
        compute the same schedule (the old deterministic ladder did)."""
        def schedule(seed):
            rng = random.Random(seed)
            sleep, out = DEFAULT_BACKOFF_BASE, []
            for _ in range(5):
                sleep = decorrelated_jitter(rng, sleep)
                out.append(sleep)
            return out

        assert schedule(1) != schedule(2)

    def test_unreachable_service_sleeps_with_jitter(self, tmp_path):
        sleeps = []
        client = ServiceClient(
            socket_path=str(tmp_path / "absent.sock"),
            max_retries=3,
            sleep=sleeps.append,
            rng=random.Random(7),
        )
        with pytest.raises(ServiceError):
            client.submit("ping")
        assert len(sleeps) == 3  # no sleep after the final attempt
        for s in sleeps:
            assert DEFAULT_BACKOFF_BASE <= s <= DEFAULT_BACKOFF_CAP
        # Pinned RNG -> pinned schedule (the injectable-rng contract).
        expected, prev = [], DEFAULT_BACKOFF_BASE
        rng = random.Random(7)
        for _ in range(3):
            prev = decorrelated_jitter(rng, prev)
            expected.append(prev)
        assert sleeps == expected

    def test_retry_after_hint_is_floor(self, tmp_path):
        """An overloaded reply's retry_after must lower-bound the wait,
        with jitter added on top (not max'd away)."""
        sock_path = str(tmp_path / "busy.sock")
        hint = 0.75
        Handler = persistent_handler(lambda obj: {
            "id": obj.get("id"), "status": "overloaded",
            "retry_after": hint,
        })
        server = socketserver.ThreadingUnixStreamServer(sock_path, Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        sleeps = []
        try:
            client = ServiceClient(
                socket_path=sock_path, max_retries=2,
                sleep=sleeps.append, rng=random.Random(3), timeout=5.0,
            )
            with pytest.raises(ServiceError) as exc_info:
                client.submit("ping")
            client.close()
        finally:
            server.shutdown()
            server.server_close()
        assert exc_info.value.exit_code == EXIT_SERVICE
        assert exc_info.value.retry_after == hint
        assert len(sleeps) == 2
        for s in sleeps:
            assert s >= hint  # the hint is a hard floor
            assert s <= hint + DEFAULT_BACKOFF_CAP

    def test_max_retries_exhaustion_exits_7(self, tmp_path):
        client = ServiceClient(
            socket_path=str(tmp_path / "absent.sock"),
            max_retries=1, sleep=lambda _s: None,
        )
        with pytest.raises(ServiceError) as exc_info:
            client.submit("ping")
        assert exc_info.value.exit_code == EXIT_SERVICE
