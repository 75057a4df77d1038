"""Recovery-path tests: graceful degradation of failed points, the
failed-batch fallback, cache integrity, resume from the disk cache,
per-app suite isolation and Ctrl-C.  Failures come from a patched
timing core (the ``fail_at`` fixture), corruption from damaged files."""

import dataclasses
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
from repro.engine.engine import estimate_sim_result
from repro.errors import (
    AllocationError,
    ParseError,
    ReproError,
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
        assert engine.stats.degraded == 0


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
                           gau.param_sizes, 1, "gto")
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

    def test_estimated_results_never_persist(self, gau, tmp_path):
        cache = SimResultCache(str(tmp_path))
        estimate = dataclasses.replace(self._result(gau), estimated=True)
        key = make_sim_key(gau.kernel.fingerprint(), FERMI, 4,
                           gau.param_sizes, 2, "gto")
        cache.put(key, estimate)
        assert len(cache) == 0
        assert not list(tmp_path.glob("sim-*.pkl"))


class TestFailedPoints:
    """Each point runs once: a failure is the point's outcome, never
    retried, because the timing core would fail the same way again."""

    def test_failed_batch_reruns_each_point_once(self, gau, fail_at):
        """A sweep's batch raises, so each of its points runs alone,
        once: TLPs 1 and 3 simulate clean, TLP 2 fails again and gets
        the estimate anchored on TLP 3."""
        clean = _clean_profile(gau)
        fail_at(2)
        engine = EvaluationEngine()
        profile = engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                                     param_sizes=gau.param_sizes)
        assert profile[1] == clean[1]
        assert profile[3] == clean[3]
        assert profile[2] == estimate_sim_result(
            gau.kernel, FERMI, 2, 4, anchor=clean[3])
        runs = [s.attrs["tlp"] for s in engine.spans.spans
                if s.name == "sim.scalar"]
        assert runs == [1, 2, 3]
        assert engine.stats.sim_failures == 1
        assert engine.stats.degraded == 1
        assert engine.stats.batched_points == 0

    def test_permanent_failure_degrades_to_estimate(self, gau, fail_at):
        """A point whose simulation fails is filled with its analytical
        estimate instead of aborting the sweep.  With the ceiling
        failed too, every point gets the un-anchored GTO-mimic cost
        (pinned literals)."""
        fail_at(1, 2, 3)
        engine = EvaluationEngine()
        profile = engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                                     param_sizes=gau.param_sizes)
        assert set(profile) == {1, 2, 3}
        assert all(r.estimated for r in profile.values())
        assert {t: r.cycles for t, r in profile.items()} == {
            1: 90996.60000000005,
            2: 83900.84615384614,
            3: 80848.77777777774,
        }
        assert engine.stats.degraded == 3
        assert engine.stats.sim_failures == 3
        # Degraded estimates are flagged by marks and are excluded
        # from the result cache.
        names = [span.name for span in engine.spans.spans]
        assert names.count("degrade") == 3
        assert len(engine._sim_cache) == 0

    def test_failure_below_simulated_ceiling_uses_anchored_estimate(
        self, gau, fail_at
    ):
        """The ceiling (TLP 3) simulates and TLPs 1-2 fail: the failed
        points get the anchored estimate, the mimic's serial cost
        spread over ``ceil(M/n)`` waves of the 4-block grid and floored
        by the ceiling's DRAM traffic (pinned literals)."""
        fail_at(1, 2)
        engine = EvaluationEngine()
        profile = engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                                     param_sizes=gau.param_sizes)
        assert [profile[t].estimated for t in (1, 2, 3)] == [True, True, False]
        assert profile[3] == _clean_profile(gau)[3]
        assert profile[1].cycles == 90996.60000000005
        assert profile[2].cycles == 45498.300000000025
        assert engine.stats.degraded == 2

    def test_strict_single_point_raises_classified(self, gau, fail_at):
        fail_at(1)
        engine = EvaluationEngine()
        with pytest.raises(SimulationError, match="timing core failed"):
            engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                            param_sizes=gau.param_sizes)

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
