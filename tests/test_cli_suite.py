"""CLI `suite` command test (driver monkeypatched for speed)."""

import types

import pytest

from repro.cli import main


class _FakeSim:
    def __init__(self, cycles):
        self.cycles = cycles


class _FakeBaseline:
    def __init__(self, cycles):
        self.sim = _FakeSim(cycles)


class _FakeEvaluation:
    def __init__(self):
        self.baselines = {
            "maxtlp": _FakeBaseline(1200.0),
            "opttlp": _FakeBaseline(1000.0),
        }

    def speedup(self, scheme):
        return {
            "maxtlp": 1000.0 / 1200.0,
            "opttlp": 1.0,
            "crat-local": 1.1,
            "crat": 1.2,
        }[scheme]


def test_suite_command_prints_table(monkeypatch, capsys):
    import repro.bench

    monkeypatch.setattr(
        repro.bench, "evaluate_app", lambda abbr, config="fermi": _FakeEvaluation()
    )
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "CRAT suite results" in out
    assert "geomean" in out
    # All eleven sensitive apps appear.
    for abbr in ("BLK", "CFD", "KMN", "STM"):
        assert abbr in out
    assert "1.200" in out
    # Engine counter summary rides along (zero sims here: driver is faked).
    assert "engine: " in out
