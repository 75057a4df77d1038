"""Failure-path tests: a failed trace or timing run fails its request,
cache integrity, resume from the disk cache, per-app suite isolation
and Ctrl-C.  Failures come from a patched timing core (the ``fail_at``
fixture) or trace generator, corruption from damaged files."""

import pickle

import pytest

from repro.arch import FERMI
from repro.cli import main
from repro.engine import (
    EvaluationEngine,
    decode_entry,
    encode_entry,
    make_sim_key,
)
from repro.engine.cache import (
    ENTRY_MAGIC,
    CacheCorruptionError,
    SimResultCache,
)
from repro.errors import (
    AllocationError,
    ParseError,
    SimulationError,
    classify_error,
)
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def gau():
    return load_workload("GAU")


def _clean_profile(gau, max_tlp=3):
    engine = EvaluationEngine()
    return engine.profile_tlp(
        gau.kernel, FERMI, max_tlp, grid_blocks=4, param_sizes=gau.param_sizes
    )


class TestErrorTaxonomy:
    def test_legacy_exceptions_map_to_branches(self):
        from repro.ptx.parser import PTXParseError
        from repro.regalloc.allocator import InsufficientRegistersError

        assert isinstance(classify_error(PTXParseError("x")), ParseError)
        assert isinstance(
            classify_error(InsufficientRegistersError("x")), AllocationError
        )
        assert isinstance(classify_error(TimeoutError("x")), SimulationError)
        assert isinstance(classify_error(RuntimeError("x")), SimulationError)

    def test_exit_codes(self):
        assert ParseError("x").exit_code == 2
        assert AllocationError("x").exit_code == 3
        assert SimulationError("x").exit_code == 4

    def test_classified_errors_pass_through_unchanged(self):
        original = SimulationError("boom", kernel="K")
        assert classify_error(original, kernel="other") is original

    def test_context_is_rendered_and_reported(self):
        err = classify_error(
            RuntimeError("boom"), app="CFD", kernel="K",
            design_point=(20, 4), stage="simulate",
        )
        text = str(err)
        for fragment in ("app=CFD", "kernel=K", "reg=20", "tlp=4",
                         "stage=simulate"):
            assert fragment in text
        record = err.to_dict()
        assert record["kind"] == "SimulationError"
        assert record["exit_code"] == 4


class TestInterrupts:
    """Ctrl-C is never a simulation failure: the engine catches only
    ``Exception``, so ``KeyboardInterrupt`` stops the run."""

    @pytest.fixture
    def interrupted(self, monkeypatch):
        import repro.sim.gpu

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.sim.gpu, "simulate_traces", interrupt)

    def test_single_point_simulate_propagates(self, gau, interrupted):
        engine = EvaluationEngine()
        with pytest.raises(KeyboardInterrupt):
            engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                            param_sizes=gau.param_sizes)
        assert engine.stats.sim_failures == 0

    def test_single_point_profile_is_not_degraded(self, gau, interrupted):
        engine = EvaluationEngine()
        with pytest.raises(KeyboardInterrupt):
            engine.profile_tlp(gau.kernel, FERMI, 1, grid_blocks=4,
                               param_sizes=gau.param_sizes)
        assert engine.stats.sim_failures == 0


class TestInProcessSurface:
    """The engine runs every simulation in-process: worker-count and
    task-timeout options are usage errors, never silently ignored."""

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--task-timeout", "5"]])
    @pytest.mark.parametrize("command", [
        ["simulate", "GAU"], ["crat", "GAU"], ["suite"], ["serve"],
    ])
    def test_flags_are_usage_errors(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2

    def test_engine_accepts_only_one_job(self):
        EvaluationEngine(jobs=1)
        with pytest.raises(ValueError, match="in-process"):
            EvaluationEngine(jobs=2)


class TestCacheIntegrity:
    def _result(self, gau):
        engine = EvaluationEngine()
        return engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                               param_sizes=gau.param_sizes)

    def test_entry_round_trip(self, gau):
        result = self._result(gau)
        assert decode_entry(encode_entry(result)) == result

    def test_truncated_entry_detected(self, gau):
        data = encode_entry(self._result(gau))
        with pytest.raises(CacheCorruptionError, match="checksum"):
            decode_entry(data[:-7])
        with pytest.raises(CacheCorruptionError, match="truncated"):
            decode_entry(data[: len(ENTRY_MAGIC) + 4])

    def test_legacy_bare_pickle_detected(self, gau):
        with pytest.raises(CacheCorruptionError, match="legacy"):
            decode_entry(pickle.dumps(self._result(gau)))

    def test_corrupt_disk_entry_discarded_and_recovered(self, gau, tmp_path):
        corrupt_reports = []
        cache = SimResultCache(
            str(tmp_path), on_corrupt=lambda p, r: corrupt_reports.append(r)
        )
        result = self._result(gau)
        key = make_sim_key(gau.kernel.fingerprint(), FERMI, 4,
                           gau.param_sizes, 1)
        cache.put(key, result)
        [path] = tmp_path.glob("sim-*.pkl")
        path.write_bytes(path.read_bytes()[:-9])  # torn write

        fresh = SimResultCache(
            str(tmp_path), on_corrupt=lambda p, r: corrupt_reports.append(r)
        )
        assert fresh.get(key) == (None, "miss")
        assert not path.exists()  # corrupt entry deleted, not retried
        assert fresh.corrupt_entries == 1
        assert corrupt_reports == ["checksum mismatch"]
        # The recovery write round-trips.
        fresh.put(key, result)
        rewritten = SimResultCache(str(tmp_path))
        assert rewritten.get(key) == (result, "disk")


class TestFailedPoints:
    """A failed trace or timing run fails its request: each point runs
    once, nothing is estimated, and nothing it did not finish is
    cached."""

    def test_failed_sweep_point_fails_the_profile(self, gau, fail_at):
        """One failing lane fails the sweep's one batch; no point of it
        runs again alone, and none is cached."""
        fail_at(2)
        engine = EvaluationEngine()
        with pytest.raises(SimulationError) as exc:
            engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                               param_sizes=gau.param_sizes)
        assert exc.value.stage == "simulate"
        assert exc.value.exit_code == 4
        names = [s.name for s in engine.spans.spans]
        assert names.count("sim.batch") == 1
        assert "sim.scalar" not in names
        assert engine.stats.sim_failures == 1
        key = make_sim_key(gau.kernel.fingerprint(), FERMI, 4,
                           gau.param_sizes, 2)
        assert engine._sim_cache.get(key) == (None, "miss")

    def test_trace_fault_is_a_trace_stage_error(self, gau, monkeypatch):
        import repro.engine.engine

        def broken(*args, **kwargs):
            raise RuntimeError("trace fault")

        monkeypatch.setattr(repro.engine.engine, "trace_grid", broken)
        engine = EvaluationEngine()
        with pytest.raises(SimulationError) as exc:
            engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                               param_sizes=gau.param_sizes)
        assert exc.value.stage == "trace"
        assert exc.value.kernel == gau.kernel.name
        assert engine.stats.sim_failures == 1
        assert len(engine._sim_cache) == 0

    def test_fault_in_one_sweep_fails_the_crat_job(self, monkeypatch):
        """A trace fault confined to BLK's default allocation, the
        kernel of every OptTLP sweep point, fails the ``crat`` job.
        Estimates in place of those points would answer it ``ok`` with
        speedup_vs_opttlp 2.547 (1.064 when healthy)."""
        import repro.engine.engine
        from repro.core import collect_resource_usage
        from repro.core.throttling import default_allocation
        from repro.engine import get_engine, set_engine
        from repro.service.jobs import execute, prepare
        from repro.service.protocol import Request

        blk = load_workload("BLK")
        usage = collect_resource_usage(
            blk.kernel, FERMI, default_reg=blk.default_reg
        )
        doomed = default_allocation(blk.kernel, usage).kernel.fingerprint()
        trace_grid = repro.engine.engine.trace_grid

        def faulty(kernel, *args, **kwargs):
            if kernel.fingerprint() == doomed:
                raise RuntimeError("trace fault")
            return trace_grid(kernel, *args, **kwargs)

        monkeypatch.setattr(repro.engine.engine, "trace_grid", faulty)
        previous = get_engine()
        try:
            engine = set_engine(EvaluationEngine(disk_cache=""))
            with pytest.raises(SimulationError) as exc:
                execute(prepare(Request(job="crat", params={"target": "BLK"})))
        finally:
            set_engine(previous)
        assert exc.value.exit_code == 4
        assert exc.value.stage == "trace"
        assert engine.stats.sim_failures == 1

    def test_strict_single_point_raises_classified(self, gau, fail_at):
        fail_at(1)
        engine = EvaluationEngine()
        with pytest.raises(SimulationError, match="timing core failed") as exc:
            engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                            param_sizes=gau.param_sizes)
        assert exc.value.design_point == (None, 1)
        assert exc.value.stage == "simulate"

    def test_injected_cache_corruption_is_survived(self, gau, tmp_path):
        """Truncated disk entries are detected on read, discarded and
        re-simulated, and the results stay correct."""
        clean = _clean_profile(gau)
        first = EvaluationEngine(disk_cache=str(tmp_path))
        written = first.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                                    param_sizes=gau.param_sizes)
        assert written == clean
        entries = sorted(tmp_path.glob("sim-*.pkl"))
        assert len(entries) == 3
        for path in entries:  # torn writes
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        # A fresh engine detects every damaged entry, discards it and
        # re-simulates correctly.
        second = EvaluationEngine(disk_cache=str(tmp_path))
        recovered = second.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                                       param_sizes=gau.param_sizes)
        assert recovered == clean
        assert second.stats.cache_corrupt == 3
        assert second.stats.disk_hits == 0
        # The rewrites were clean: a third engine gets pure disk hits.
        third = EvaluationEngine(disk_cache=str(tmp_path))
        third.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                          param_sizes=gau.param_sizes)
        assert third.stats.disk_hits == 3
        assert third.stats.sim_misses == 0


class TestCheckpointResume:
    def test_resume_skips_completed_points(self, gau, tmp_path):
        cache = str(tmp_path / "cache")
        first = EvaluationEngine(disk_cache=cache)
        before = first.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                                   param_sizes=gau.param_sizes)
        assert first.stats.sim_misses == 3

        # "Interrupted" run restarts with a cold memory cache but the
        # same disk cache: only the new point simulates.
        second = EvaluationEngine(disk_cache=cache)
        after = second.profile_tlp(gau.kernel, FERMI, 4, grid_blocks=4,
                                   param_sizes=gau.param_sizes)
        assert second.stats.disk_hits == 3
        assert second.stats.sim_misses == 1
        runs = [s for s in second.spans.spans if s.name == "sim.scalar"]
        assert [s.attrs["tlp"] for s in runs] == [4]
        for tlp, result in before.items():
            assert after[tlp] == result


class TestSuiteIsolation:
    def test_run_suite_isolates_a_failing_app(self, tmp_path, monkeypatch):
        """One app that raises is recorded as a failure and the suite
        moves on, writing nothing."""
        from repro.bench import run_suite

        monkeypatch.chdir(tmp_path)

        def fake(abbr, config):
            if abbr == "B":
                raise RuntimeError("boom")
            return object()

        report = run_suite(["A", "B", "C"], "fermi", evaluate=fake)
        assert sorted(report.evaluations) == ["A", "C"]
        assert report.exit_code == 5
        [failure] = report.failures
        assert failure.abbr == "B" and failure.kind == "SimulationError"
        assert not list(tmp_path.iterdir())
