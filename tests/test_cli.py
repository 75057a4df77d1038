"""CLI smoke tests."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.ptx import parse_kernel, print_kernel
from repro.workloads import load_workload


class TestInfo:
    def test_info_app(self, capsys):
        assert main(["info", "GAU"]) == 0
        out = capsys.readouterr().out
        assert "MaxReg" in out
        assert "MaxTLP" in out

    def test_info_file(self, tmp_path, capsys):
        kernel = load_workload("GAU").kernel
        path = tmp_path / "k.ptx"
        path.write_text(print_kernel(kernel) + "\n")
        assert main(["info", str(path)]) == 0
        assert "Fan1" in capsys.readouterr().out

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["info", "NOT_AN_APP"])

    def test_unknown_config_is_a_parse_error(self, capsys):
        assert main(["info", "GAU", "--config", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown config 'bogus'")
        assert "Traceback" not in err

    def test_closed_stdout_exits_1_without_traceback(self):
        """A reader that closed the pipe (``repro info ... | head``)
        ends the command with exit 1 and no traceback."""
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "info", "GAU",
                 "--config", "kepler"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


class TestAllocate:
    def test_emits_parseable_ptx(self, capsys):
        assert main(["allocate", "GAU", "--reg", "18"]) == 0
        out = capsys.readouterr().out
        kernel = parse_kernel(out)
        assert kernel.name == "Fan1"

    def test_spill_stack_appears_under_pressure(self, capsys):
        assert main(["allocate", "HST", "--reg", "26"]) == 0
        out = capsys.readouterr().out
        assert "SpillStack" in out

    def test_shared_spill_budget(self, capsys):
        assert main(["allocate", "HST", "--reg", "26", "--spare-shm", "16384"]) == 0
        out = capsys.readouterr().out
        assert "ShmSpill" in out


class TestSimulate:
    def test_simulate_app(self, capsys):
        assert main(["simulate", "GAU", "--tlp", "2", "--grid", "4"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "L1 hit rate" in out


class TestBatchFlags:
    def test_bench_without_mode_exits(self):
        """The retired ``bench`` subcommand, the retired sweep-screen
        flag of ``crat`` and the retired advisory linter (``lint`` and
        ``--lint``) are usage errors (exit 2), never ignored."""
        # The flag is spelled in two pieces so a search of the tree for
        # the retired name finds only the documents' history.
        for argv in (["bench"], ["crat", "GAU", "--fast" "path-topk", "1"],
                     ["lint", "GAU"], ["simulate", "GAU", "--lint"],
                     ["crat", "GAU", "--lint"], ["suite", "--lint"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestRetiredServeSurface:
    """The sharded tier's ``serve`` options, its status subcommand and
    the daemon-wide ``--passes`` default (a job param only now) are
    usage errors (exit 2).  Only the parser runs, so no daemon starts.
    Retired names are spelled in pieces, as above."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--passes", "dce"],
        ["serve", "--sha" "rds", "2"],
        ["serve", "--state" "-dir", "X"],
        ["serve", "--heartbeat" "-interval", "1"],
        ["serve", "--replication" "-interval", "1"],
        ["fle" "et", "status"],
    ])
    def test_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestServeCacheBound:
    """``repro serve`` bounds the result cache, the stage memo and the
    traces by ``--cache-max-entries``, then ``REPRO_CACHE_MAX_ENTRIES``,
    then 4096 (also for an unparseable variable); 0 unbounds them.
    ``serve_main`` is stubbed, so no daemon starts."""

    @pytest.mark.parametrize("flags, env, bound", [
        ([], None, 4096),
        ([], "7", 7),
        ([], "lots", 4096),
        ([], "0", None),
        (["--cache-max-entries", "0"], None, None),
        (["--cache-max-entries", "5"], "7", 5),
    ])
    def test_bound(self, monkeypatch, flags, env, bound):
        import repro.service.server
        from repro.engine import EvaluationEngine, get_engine, set_engine

        if env is None:
            monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", env)
        monkeypatch.setattr(repro.service.server, "serve_main",
                            lambda **kwargs: 0)
        previous = get_engine()
        engine = set_engine(EvaluationEngine(disk_cache=""))
        try:
            assert main(["serve", *flags]) == 0
        finally:
            set_engine(previous)
        levels = (engine._sim_cache, engine._memo, engine._trace_cache)
        assert [level.max_entries for level in levels] == [bound] * 3


class TestExitCodes:
    """Failures map to distinct, documented exit codes."""

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ptx"
        bad.write_text("this is not ptx {{{\n")
        assert main(["info", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "stage=parse" in err

    def test_df_error_at_load_exits_2(self, tmp_path, capsys):
        """Every command but ``verify`` loads a FILE through the DF load
        gate: a never-defined register is a parse failure naming DF002."""
        bad = tmp_path / "undefined.ptx"
        bad.write_text(
            ".entry k ()\n{\n    add.u32 %r0, %r1, %r2;\n    exit;\n}\n"
        )
        assert main(["info", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "DF002 use of never-defined register %r1" in err
        assert "stage=parse" in err
        assert main(["verify", str(bad)]) == 6

    def test_allocation_failure_exits_3(self, capsys):
        assert main(["allocate", "GAU", "--reg", "2"]) == 3
        err = capsys.readouterr().err
        assert "InsufficientRegistersError" in err
        assert "kernel=Fan1" in err

    def test_partial_suite_failure_exits_5_with_report(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        import repro.bench

        from .test_cli_suite import _FakeEvaluation

        def flaky(abbr, config="fermi"):
            if abbr == "KMN":
                raise RuntimeError("simulated explosion")
            return _FakeEvaluation()

        monkeypatch.setattr(repro.bench, "evaluate_app", flaky)
        report_path = tmp_path / "report.json"
        assert main(["suite", "--report-json", str(report_path)]) == 5
        captured = capsys.readouterr()
        assert "CRAT suite results" in captured.out  # suite completed
        assert "KMN failed" in captured.err
        report = json.loads(report_path.read_text())
        assert report["exit_code"] == 5
        assert [f["abbr"] for f in report["failed"]] == ["KMN"]
        assert report["failed"][0]["exit_code"] == 4
        assert "KMN" not in report["completed"]

    def test_total_suite_failure_exits_with_taxonomy_code(self, monkeypatch):
        import repro.bench

        def doomed(abbr, config="fermi"):
            raise RuntimeError("nothing works")

        monkeypatch.setattr(repro.bench, "evaluate_app", doomed)
        assert main(["suite"]) == 4


#: ``bra $done; ret; $done:`` — the branch target ends the body, so the
#: kernel parses but no CFG block starts at the label.
END_LABEL_PTX = """\
.entry end_label (.param .u64 data)
.maxntid 32, 1, 1
{
    bra $done;
    ret;
$done:
}
"""


class TestBadInputExits2:
    """Out-of-range numbers and a kernel whose CFG cannot be built print
    one error line and exit 2, before any trace: the one-shot command
    and the daemon's :func:`~repro.service.jobs.prepare` alike."""

    @pytest.fixture(autouse=True)
    def no_tracing(self, monkeypatch):
        import repro.engine.engine

        def trace_grid(*args, **kwargs):
            raise AssertionError("a bad request reached the tracer")

        monkeypatch.setattr(repro.engine.engine, "trace_grid", trace_grid)

    def _exits_2(self, argv, capsys, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("repro: error:")
        assert message in line and "stage=parse" in line

    def _prepare_raises(self, job, params, message):
        from repro.errors import ParseError
        from repro.service.jobs import prepare
        from repro.service.protocol import Request

        with pytest.raises(ParseError, match=message):
            prepare(Request(job=job, params=params))

    def test_simulate_tlp_below_one(self, capsys):
        message = "tlp must be at least 1, got 0"
        self._exits_2(["simulate", "GAU", "--tlp", "0"], capsys, message)
        self._prepare_raises("simulate", {"target": "GAU", "tlp": 0}, message)

    def test_simulate_negative_grid(self, capsys):
        message = "grid must be at least 0, got -2"
        self._exits_2(["simulate", "GAU", "--grid", "-2"], capsys, message)
        self._prepare_raises("simulate", {"target": "GAU", "grid": -2},
                             message)

    def test_allocate_negative_reg(self, capsys):
        self._exits_2(["allocate", "GAU", "--reg", "-4"], capsys,
                      "reg must be at least 0, got -4")

    def test_allocate_negative_spare_shm(self, capsys):
        self._exits_2(["allocate", "GAU", "--spare-shm", "-5"], capsys,
                      "spare_shm must be at least 0, got -5")

    def test_branch_to_label_that_ends_the_body(self, tmp_path, capsys):
        """Checked and unchecked loads alike: ``verify`` included."""
        path = tmp_path / "end_label.ptx"
        path.write_text(END_LABEL_PTX)
        message = "branch to label '$done' past end of kernel"
        for command in ("info", "allocate", "verify", "simulate", "crat"):
            self._exits_2([command, str(path)], capsys, message)
        for job in ("verify", "simulate", "crat"):
            self._prepare_raises(job, {"ptx": END_LABEL_PTX},
                                 "past end of kernel")

    def test_refused_again_on_a_parse_memo_hit(self):
        """The parse is memoised by text; the checks after it are not.
        A text that fails the DF gate and the end-label text are each
        refused twice, the second time on a memo hit."""
        from repro.engine import EvaluationEngine, get_engine, set_engine

        df_error = (".entry k ()\n{\n    add.u32 %r0, %r1, %r2;\n"
                    "    exit;\n}\n")
        previous = get_engine()
        stats = set_engine(EvaluationEngine(disk_cache="")).stats
        try:
            for text, message in ((df_error, "DF002"),
                                  (END_LABEL_PTX, "past end of kernel")):
                hits = stats.memo_hits
                self._prepare_raises("simulate", {"ptx": text}, message)
                assert stats.memo_hits == hits
                self._prepare_raises("simulate", {"ptx": text}, message)
                assert stats.memo_hits == hits + 1
        finally:
            set_engine(previous)

    def test_branch_to_undefined_label(self, tmp_path, capsys):
        """The parser refuses it, as a ``ValueError``: exit 2 as well,
        ``verify`` included."""
        path = tmp_path / "undefined_label.ptx"
        path.write_text(END_LABEL_PTX.replace("$done:\n", ""))
        message = "branch to undefined label '$done'"
        for command in ("info", "verify", "simulate"):
            self._exits_2([command, str(path)], capsys, message)


class TestCrat:
    def test_crat_static_and_emit(self, tmp_path, capsys):
        import json

        emit = tmp_path / "out.ptx"
        trace = tmp_path / "trace.json"
        assert main(["crat", "GAU", "--static", "--emit", str(emit),
                     "--trace-json", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "chosen" in out
        assert emit.exists()
        parse_kernel(emit.read_text())
        snapshot = json.loads(trace.read_text())
        assert "stats" in snapshot and "spans" in snapshot
        assert "opt_tlp" in snapshot["self_seconds"]
        assert snapshot["stats"]["sim_requests"] >= 1

    def test_unwritable_emit_path_is_a_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "out.ptx"
        with pytest.raises(SystemExit) as exc:
            main(["crat", "GAU", "--static", "--emit", str(missing)])
        assert str(exc.value.code).startswith(
            "error: cannot write optimized PTX:"
        )
