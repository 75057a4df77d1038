"""``repro lint`` CLI: exit codes, output formats, and the gate flag."""

import json
import os

from repro.cli import main
from repro.errors import EXIT_LINT, EXIT_OK, EXIT_PARSE

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def example(name):
    return os.path.join(EXAMPLES_DIR, name)


class TestExitCodes:
    def test_warnings_pass_at_default_threshold(self, capsys):
        assert main(["lint", example("dead_store.ptx")]) == EXIT_OK
        assert "LNT204" in capsys.readouterr().out

    def test_errors_gate_at_default_threshold(self, capsys):
        assert main(["lint", example("uninit_read.ptx")]) == EXIT_LINT
        assert "LNT402" in capsys.readouterr().out

    def test_fail_on_warn(self):
        assert main(
            ["lint", example("dead_store.ptx"), "--fail-on", "warn"]
        ) == EXIT_LINT

    def test_fail_on_never(self):
        assert main(
            ["lint", example("uninit_read.ptx"), "--fail-on", "never"]
        ) == EXIT_OK

    def test_app_abbreviation_target(self, capsys):
        assert main(["lint", "SPMV"]) == EXIT_OK
        assert "LNT101" in capsys.readouterr().out

    def test_unparseable_file_exits_2_with_diagnostic(self, tmp_path, capsys):
        # Regression: lint on garbage must exit with the ParseError code
        # and a structured one-line message, never a traceback.
        bad = tmp_path / "bad.ptx"
        bad.write_text("garbage not ptx {{{\n")
        assert main(["lint", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "Traceback" not in err

    def test_unknown_rule_spec_exits_2(self, capsys):
        assert main(
            ["lint", example("dead_store.ptx"), "--rules", "BOGUS"]
        ) == EXIT_PARSE
        assert "unknown lint rule" in capsys.readouterr().err


class TestOutputFormats:
    def test_json_payload(self, capsys):
        assert main(["lint", example("dead_store.ptx"), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "dead_store"
        assert payload["rules"] == ["LNT204"]

    def test_sarif_stdout_matches_golden(self, capsys, monkeypatch):
        monkeypatch.chdir(os.path.join(EXAMPLES_DIR, os.pardir))
        assert main(
            ["lint", "examples/dead_store.ptx", "--sarif", "-"]
        ) == EXIT_OK
        produced = json.loads(capsys.readouterr().out)
        with open(os.path.join(DATA_DIR, "dead_store.sarif.json")) as fh:
            golden = json.load(fh)
        assert produced == golden

    def test_sarif_file_output(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        assert main(
            ["lint", example("dead_store.ptx"), "--sarif", str(out)]
        ) == EXIT_OK
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["ruleId"] for r in run["results"]] == ["LNT204"]

    def test_rules_filter(self, capsys):
        assert main(
            ["lint", example("spmv.ptx"), "--rules", "LNT4", "--json"]
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["LNT405"]


class TestLintFlagOnCommands:
    def test_simulate_lint_gate_blocks_error_findings(self, capsys):
        code = main(
            ["simulate", example("uninit_read.ptx"), "--lint",
             "--tlp", "2", "--grid", "2"]
        )
        assert code == EXIT_LINT
        assert "LNT402" in capsys.readouterr().err

    def test_simulate_lint_gate_passes_warnings(self, capsys):
        code = main(
            ["simulate", example("dead_store.ptx"), "--lint",
             "--tlp", "2", "--grid", "2"]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        # The findings are still surfaced on stderr; the run proceeds.
        assert "LNT204" in captured.err
        assert "IPC" in captured.out
