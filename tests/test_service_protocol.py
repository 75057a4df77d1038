"""Golden tests for the service wire protocol.

The protocol layer is pure (no sockets), so these tests pin the frame
format and the validation vocabulary exactly: valid frames round-trip,
every documented rejection fires with an actionable message, and the
frame-size ceiling is enforced on both directions.
"""

import json

import pytest

from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    decode_frame,
    drained_reply,
    encode_frame,
    error_reply,
    expired_reply,
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
        req = validate_request(self._valid(deadline=30.0, priority=2))
        assert req == Request(
            job="crat", params={"target": "GAU"}, id="r1",
            deadline=30.0, priority=2,
        )

    def test_golden_valid_minimal(self):
        req = validate_request({"job": "ping"})
        assert req.id is None
        assert req.deadline is None
        assert req.priority == 0

    def test_unknown_job(self):
        with pytest.raises(ProtocolError, match="unknown job 'compile'"):
            validate_request(self._valid(job="compile"))

    def test_unknown_top_level_field(self):
        with pytest.raises(ProtocolError, match="unknown field.*urgency"):
            validate_request(self._valid(urgency=9))

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
        with pytest.raises(ProtocolError, match="deadline"):
            validate_request(self._valid(deadline=-1))
        with pytest.raises(ProtocolError, match="deadline"):
            validate_request(self._valid(deadline="soon"))

    def test_bad_priority(self):
        with pytest.raises(ProtocolError, match="priority"):
            validate_request(self._valid(priority=1.5))

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
        assert expired_reply("a")["status"] == "expired"
        assert drained_reply("a")["status"] == "drained"

    def test_replies_encode(self):
        # Every reply constructor must produce an encodable frame.
        for reply in (
            ok_reply("a", {}),
            error_reply(None, "SimulationError", "boom", 4),
            invalid_reply("b", "bad"),
            overloaded_reply(None, 0.5),
            expired_reply(None),
            drained_reply("c"),
        ):
            decoded = decode_frame(encode_frame(reply)[:-1])
            assert decoded == json.loads(json.dumps(reply))
