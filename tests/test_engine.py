"""Evaluation-engine tests: fingerprints, caching, parallel determinism."""

import json

import pytest

from repro.arch import FERMI
from repro.engine import (
    EvaluationEngine,
    SimRequest,
    config_signature,
    get_engine,
    make_sim_key,
    resolve_jobs,
)
from repro.ptx import parse_kernel, print_kernel
from repro.workloads import load_workload

from .conftest import build_loop_kernel


@pytest.fixture(scope="module")
def gau():
    return load_workload("GAU")


class TestFingerprint:
    def test_stable_across_parse_print_round_trip(self, gau):
        text = print_kernel(gau.kernel)
        round_tripped = parse_kernel(text)
        assert round_tripped.fingerprint() == gau.kernel.fingerprint()

    def test_repeated_calls_agree(self, gau):
        assert gau.kernel.fingerprint() == gau.kernel.fingerprint()

    def test_semantic_edit_changes_fingerprint(self):
        a = build_loop_kernel(trip=8)
        b = build_loop_kernel(trip=9)
        assert a.fingerprint() != b.fingerprint()

    def test_block_size_changes_fingerprint(self, gau):
        other = gau.kernel.copy()
        other.block_size *= 2
        assert other.fingerprint() != gau.kernel.fingerprint()


class TestCacheKeys:
    def test_config_signature_sees_scaled_fields(self):
        scaled = FERMI.scaled(max_blocks_per_sm=4)
        assert scaled.name == FERMI.name
        assert config_signature(scaled) != config_signature(FERMI)

    def test_key_distinguishes_every_component(self, gau):
        fp = gau.kernel.fingerprint()
        base = make_sim_key(fp, FERMI, 4, {"a": 64}, 2, "gto")
        assert make_sim_key(fp, FERMI, 4, {"a": 64}, 3, "gto") != base
        assert make_sim_key(fp, FERMI, 8, {"a": 64}, 2, "gto") != base
        assert make_sim_key(fp, FERMI, 4, {"a": 128}, 2, "gto") != base
        assert make_sim_key(fp, FERMI, 4, {"a": 64}, 2, "lrr") != base
        assert make_sim_key("x" * 64, FERMI, 4, {"a": 64}, 2, "gto") != base
        assert make_sim_key(fp, FERMI, 4, {"a": 64}, 2, "gto",
                            pipeline="dce") != base

    def test_param_order_does_not_matter(self, gau):
        fp = gau.kernel.fingerprint()
        ab = make_sim_key(fp, FERMI, 4, {"a": 1, "b": 2}, 2, "gto")
        ba = make_sim_key(fp, FERMI, 4, {"b": 2, "a": 1}, 2, "gto")
        assert ab == ba


class TestCaching:
    def test_repeated_simulate_hits_cache(self, gau):
        engine = EvaluationEngine(jobs=1)
        r1 = engine.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                             param_sizes=gau.param_sizes)
        r2 = engine.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                             param_sizes=gau.param_sizes)
        assert engine.stats.sim_misses == 1
        assert engine.stats.sim_hits == 1
        assert r1 is r2

    def test_equal_content_different_object_hits_cache(self, gau):
        engine = EvaluationEngine(jobs=1)
        engine.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        clone = parse_kernel(print_kernel(gau.kernel))
        engine.simulate(clone, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert engine.stats.sim_misses == 1
        assert engine.stats.sim_hits == 1

    def test_traces_shared_across_tlps(self, gau):
        engine = EvaluationEngine(jobs=1)
        engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                           param_sizes=gau.param_sizes)
        assert engine.stats.trace_misses == 1
        assert engine.stats.sim_misses == 3

    def test_clear_forgets_results(self, gau):
        engine = EvaluationEngine(jobs=1)
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        engine.clear()
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert engine.stats.sim_misses == 1
        assert engine.stats.sim_hits == 0

    def test_disk_cache_survives_engine_restart(self, gau, tmp_path):
        first = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        r1 = first.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                            param_sizes=gau.param_sizes)
        assert list(tmp_path.glob("sim-*.pkl"))
        second = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        r2 = second.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                             param_sizes=gau.param_sizes)
        assert second.stats.sim_misses == 0
        assert second.stats.disk_hits == 1
        assert r1 == r2


class TestSchemaVersioning:
    """Cache keys carry a schema tag covering the fast-path scoring
    version, so results produced under a different scoring model can
    never satisfy a lookup."""

    def test_schema_tag_covers_all_versions(self):
        from repro.engine import FASTPATH_SCHEMA_VERSION, cache_schema_version
        from repro.engine.cache import RESULT_SCHEMA_VERSION
        from repro.ir import PIPELINE_SCHEMA_VERSION
        from repro.sim.batch import BATCH_SCHEMA_VERSION

        tag = cache_schema_version()
        assert tag == (
            f"r{RESULT_SCHEMA_VERSION}.fp{FASTPATH_SCHEMA_VERSION}"
            f".pp{PIPELINE_SCHEMA_VERSION}.b{BATCH_SCHEMA_VERSION}"
            ".m1"
        )
        # Pinned byte for byte: existing disk caches must keep hitting.
        assert tag == "r2.fp1.pp1.b1.m1"

    def test_key_leads_with_schema_tag(self, gau):
        from repro.engine import cache_schema_version

        key = make_sim_key(
            gau.kernel.fingerprint(), FERMI, 4, gau.param_sizes, 2, "gto"
        )
        assert key[0] == cache_schema_version()

    def test_fastpath_version_bump_misses_disk_cache(
        self, gau, tmp_path, monkeypatch
    ):
        """A fast-path scoring revision invalidates persisted results
        wholesale: the same design point re-simulates under the bumped
        version instead of trusting entries scored by the old model."""
        first = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        first.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert first.stats.sim_misses == 1
        assert list(tmp_path.glob("sim-*.pkl"))

        import repro.engine.cache as cache_mod

        monkeypatch.setattr(
            cache_mod, "FASTPATH_SCHEMA_VERSION",
            cache_mod.FASTPATH_SCHEMA_VERSION + 1,
        )
        bumped = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        bumped.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert bumped.stats.sim_misses == 1
        assert bumped.stats.disk_hits == 0

        # Back on the original version the old entry is served again.
        monkeypatch.undo()
        third = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        third.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert third.stats.sim_misses == 0
        assert third.stats.disk_hits == 1

    def test_pipeline_version_bump_misses_disk_cache(
        self, gau, tmp_path, monkeypatch
    ):
        """Mirrors the fast-path bump: a pass-semantics revision
        (``PIPELINE_SCHEMA_VERSION``) invalidates persisted results
        wholesale instead of serving entries produced by passes that no
        longer generate the same kernels."""
        first = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        first.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert first.stats.sim_misses == 1
        assert list(tmp_path.glob("sim-*.pkl"))

        import repro.engine.cache as cache_mod

        monkeypatch.setattr(
            cache_mod, "PIPELINE_SCHEMA_VERSION",
            cache_mod.PIPELINE_SCHEMA_VERSION + 1,
        )
        bumped = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        bumped.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert bumped.stats.sim_misses == 1
        assert bumped.stats.disk_hits == 0

        monkeypatch.undo()
        third = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        third.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert third.stats.sim_misses == 0
        assert third.stats.disk_hits == 1

    def test_model_version_bump_misses_disk_cache(
        self, gau, tmp_path, monkeypatch
    ):
        """The retired cost model's ``.m1`` segment stays in the tag:
        entries written under any other model revision are never
        trusted, while those under ``.m1`` — every cache written before
        the model was retired — keep hitting."""
        first = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        first.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert first.stats.sim_misses == 1
        assert list(tmp_path.glob("sim-*.pkl"))

        import repro.engine.cache as cache_mod

        tag = cache_mod.cache_schema_version()
        assert tag.endswith(".m1")
        monkeypatch.setattr(
            cache_mod, "cache_schema_version", lambda: tag[:-1] + "2"
        )
        bumped = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        bumped.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert bumped.stats.sim_misses == 1
        assert bumped.stats.disk_hits == 0

        monkeypatch.undo()
        third = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        third.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert third.stats.sim_misses == 0
        assert third.stats.disk_hits == 1


class TestPipelineKeying:
    """The active ``--passes`` signature is part of every cache key, so
    runs under different pipelines can never share a cached result."""

    def test_different_pipelines_never_alias(self, gau, tmp_path):
        plain = EvaluationEngine(jobs=1, disk_cache=str(tmp_path))
        plain.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert plain.stats.sim_misses == 1

        tagged = EvaluationEngine(jobs=1, disk_cache=str(tmp_path),
                                  pipeline="dce")
        tagged.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert tagged.stats.sim_misses == 1  # no alias to the plain entry
        assert tagged.stats.disk_hits == 0

        # Same pipeline does share across engine restarts.
        again = EvaluationEngine(jobs=1, disk_cache=str(tmp_path),
                                 pipeline="dce")
        again.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert again.stats.sim_misses == 0
        assert again.stats.disk_hits == 1

    def test_engine_normalizes_and_validates_pipeline(self):
        from repro.errors import ParseError

        assert EvaluationEngine(jobs=1, pipeline=" dce , copy-prop ")\
            .pipeline == "dce,copy-prop"
        with pytest.raises(ParseError):
            EvaluationEngine(jobs=1, pipeline="nonsense")

    def test_configure_sets_shared_engine_pipeline(self):
        from repro.engine import configure

        engine = configure(passes="copy-prop,dce")
        try:
            assert engine.pipeline == "copy-prop,dce"
            assert engine.snapshot()["pipeline"] == "copy-prop,dce"
        finally:
            configure(passes="")
        assert engine.pipeline == ""


class TestParallelDeterminism:
    def test_full_profile_matches_serial(self, gau):
        serial = EvaluationEngine(jobs=1)
        parallel = EvaluationEngine(jobs=2)
        usage_tlps = 4
        a = serial.profile_tlp(gau.kernel, FERMI, usage_tlps, grid_blocks=6,
                               param_sizes=gau.param_sizes)
        b = parallel.profile_tlp(gau.kernel, FERMI, usage_tlps, grid_blocks=6,
                                 param_sizes=gau.param_sizes)
        assert set(a) == set(b) == set(range(1, usage_tlps + 1))
        for tlp in a:
            # SimResult is a plain dataclass: == compares every field,
            # so this asserts bit-identical counters and cycle counts.
            assert a[tlp] == b[tlp], f"TLP {tlp} diverged across the pool"

    def test_simulate_many_preserves_request_order(self, gau):
        engine = EvaluationEngine(jobs=2)
        tlps = [3, 1, 2]
        requests = [
            SimRequest(gau.kernel, FERMI, tlp, grid_blocks=4,
                       param_sizes=gau.param_sizes)
            for tlp in tlps
        ]
        results = engine.simulate_many(requests)
        assert [r.tlp for r in results] == tlps


class TestBatchedRouting:
    """Multi-point sweeps route through the batched SoA core by
    default; the supervised scalar path stays the oracle and the
    fallback, and flipping the toggle never changes a result."""

    def _requests(self, gau, tlps):
        return [
            SimRequest(gau.kernel, FERMI, tlp, grid_blocks=4,
                       param_sizes=gau.param_sizes)
            for tlp in tlps
        ]

    def test_batch_toggle_is_bit_identical(self, gau):
        on = EvaluationEngine(jobs=1, disk_cache="")
        off = EvaluationEngine(jobs=1, disk_cache="", batch=False)
        requests = self._requests(gau, [1, 2, 3])
        a = on.simulate_many(requests)
        b = off.simulate_many(self._requests(gau, [1, 2, 3]))
        assert a == b
        assert on.stats.batched_points == 3
        assert on.stats.batched_groups == 1
        assert off.stats.batched_points == 0

    def test_batchsim_event_emitted(self, gau):
        from repro.engine import BatchSimEvent

        engine = EvaluationEngine(jobs=1, disk_cache="")
        engine.simulate_many(self._requests(gau, [1, 2]))
        events = [e for e in engine.events if isinstance(e, BatchSimEvent)]
        assert len(events) == 1
        assert events[0].points == 2
        assert events[0].scheduler == "gto"

    def test_singleton_group_stays_supervised(self, gau):
        engine = EvaluationEngine(jobs=1, disk_cache="")
        engine.simulate_many(self._requests(gau, [2]))
        assert engine.stats.batched_points == 0

    def test_evaluate_batch_forces_batching(self, gau):
        engine = EvaluationEngine(jobs=1, disk_cache="", batch=False)
        results = engine.evaluate_batch(self._requests(gau, [1, 2]))
        assert [r.tlp for r in results] == [1, 2]
        assert engine.stats.batched_points == 2

    def test_fault_plan_disables_batching(self, gau, monkeypatch):
        """Under an active fault plan the supervised machinery must
        stay in the loop (that is what the plan exercises), so batching
        steps aside; results still match the clean batched run."""
        clean = EvaluationEngine(jobs=1, disk_cache="")
        expected = clean.simulate_many(self._requests(gau, [1, 2]))
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache:0.5")
        engine = EvaluationEngine(jobs=1, disk_cache="")
        results = engine.simulate_many(self._requests(gau, [1, 2]))
        assert engine.stats.batched_points == 0
        assert results == expected

    def test_configure_and_snapshot_expose_batch(self):
        from repro.engine import configure, get_engine, set_engine

        original = get_engine()
        try:
            engine = EvaluationEngine(jobs=1, disk_cache="")
            set_engine(engine)
            assert engine.snapshot()["batch"] is True
            configure(batch=False)
            assert engine.batch is False
            assert engine.snapshot()["batch"] is False
            configure(batch=True)
            assert engine.batch is True
        finally:
            set_engine(original)

    def test_mixed_schedulers_group_separately(self, gau):
        engine = EvaluationEngine(jobs=1, disk_cache="")
        requests = [
            SimRequest(gau.kernel, FERMI, tlp, grid_blocks=4,
                       param_sizes=gau.param_sizes, scheduler=sched)
            for tlp, sched in [(1, "gto"), (2, "gto"), (1, "lrr"),
                               (2, "lrr")]
        ]
        results = engine.simulate_many(requests)
        assert engine.stats.batched_groups == 2
        assert engine.stats.batched_points == 4
        solo = EvaluationEngine(jobs=1, disk_cache="", batch=False)
        assert results == solo.simulate_many(list(requests))


class TestInstrumentation:
    def test_events_and_snapshot_are_json_ready(self, gau):
        engine = EvaluationEngine(jobs=1)
        with engine.stage("unit-test"):
            engine.profile_tlp(gau.kernel, FERMI, 2, grid_blocks=4,
                               param_sizes=gau.param_sizes)
        snapshot = json.loads(engine.to_json())
        kinds = {e["kind"] for e in snapshot["events"]}
        assert {"trace", "simulate", "batch", "stage"} <= kinds
        assert snapshot["stats"]["simulations"] == 2
        assert "unit-test" in snapshot["stats"]["stage_seconds"]

    def test_reset_stats_keeps_cache_warm(self, gau):
        engine = EvaluationEngine(jobs=1)
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        engine.reset_stats()
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert engine.stats.sim_hits == 1
        assert engine.stats.sim_misses == 0


class TestJobsResolution:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_garbage_env_falls_back_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs(None) == 1

    def test_clamped_to_serial(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestBenchIntegration:
    def test_reevaluation_after_clear_cache_is_simulation_free(self):
        """ISSUE 1 acceptance: clear_cache() drops only the bench memo;
        the engine cache still serves every design point."""
        from repro.bench import clear_cache, evaluate_app

        ev1 = evaluate_app("GAU")
        engine = get_engine()
        misses_before = engine.stats.sim_misses
        hits_before = engine.stats.sim_hits
        clear_cache()
        ev2 = evaluate_app("GAU")
        assert ev2 is not ev1  # the bench memo really was dropped
        assert engine.stats.sim_misses == misses_before
        assert engine.stats.sim_hits > hits_before
        assert ev2.speedup("crat") == ev1.speedup("crat")

    def test_app_speedup_undefined_on_zero_cycles(self):
        import dataclasses

        from repro.bench import evaluate_app

        ev = evaluate_app("GAU")
        broken = dataclasses.replace(
            ev,
            crat=dataclasses.replace(
                ev.crat, sim=dataclasses.replace(ev.crat.sim, cycles=0.0)
            ),
        )
        with pytest.raises(ValueError, match="zero cycles"):
            broken.speedup("crat")


class TestCacheBounding:
    """LRU bounding of the in-memory result cache (the knob a
    long-lived ``repro serve`` uses to keep its resident set flat)."""

    @staticmethod
    def _key(index):
        return ("schema", f"fp{index}", "cfg", 4, (), 1, "gto")

    def test_unbounded_by_default(self, monkeypatch):
        from repro.engine.cache import SimResultCache

        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        cache = SimResultCache(disk_dir="")
        for i in range(100):
            cache.put(self._key(i), f"r{i}")
        assert len(cache) == 100
        assert cache.evictions == 0

    def test_bound_evicts_least_recently_used(self):
        from repro.engine.cache import SimResultCache

        cache = SimResultCache(disk_dir="", max_entries=3)
        for i in range(4):
            cache.put(self._key(i), f"r{i}")
        assert len(cache) == 3
        assert cache.evictions == 1
        assert cache.get(self._key(0)) == (None, "miss")
        assert cache.get(self._key(3)) == (f"r3", "memory")

    def test_get_refreshes_recency(self):
        from repro.engine.cache import SimResultCache

        cache = SimResultCache(disk_dir="", max_entries=3)
        for i in range(3):
            cache.put(self._key(i), f"r{i}")
        cache.get(self._key(0))           # key 0 is now most-recent
        cache.put(self._key(3), "r3")     # so key 1 is the LRU victim
        assert cache.get(self._key(0)) == ("r0", "memory")
        assert cache.get(self._key(1)) == (None, "miss")

    def test_env_var_bounds(self, monkeypatch):
        from repro.engine.cache import SimResultCache

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        cache = SimResultCache(disk_dir="")
        for i in range(5):
            cache.put(self._key(i), f"r{i}")
        assert len(cache) == 2
        assert cache.evictions == 3

    def test_resolve_max_entries_rules(self, monkeypatch):
        from repro.engine import resolve_max_entries

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        assert resolve_max_entries(None) == 7
        assert resolve_max_entries(3) == 3      # explicit wins
        assert resolve_max_entries(0) is None   # non-positive = unbounded
        assert resolve_max_entries(-1) is None
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "lots")
        assert resolve_max_entries(None) is None  # garbage env ignored
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES")
        assert resolve_max_entries(None) is None

    def test_set_max_entries_sheds_immediately(self):
        from repro.engine.cache import SimResultCache

        cache = SimResultCache(disk_dir="", max_entries=None)
        for i in range(10):
            cache.put(self._key(i), f"r{i}")
        cache.set_max_entries(4)
        assert len(cache) == 4
        assert cache.evictions == 6
        cache.set_max_entries(0)  # unbound again
        assert cache.max_entries is None

    def test_evicted_entry_readmitted_from_disk(self, tmp_path):
        from repro.engine.cache import SimResultCache

        cache = SimResultCache(disk_dir=str(tmp_path), max_entries=1)
        cache.put(self._key(0), "r0")
        cache.put(self._key(1), "r1")  # evicts key 0 from memory only
        assert cache.evictions == 1
        result, source = cache.get(self._key(0))
        assert (result, source) == ("r0", "disk")

    def test_engine_snapshot_reports_bound(self, gau):
        engine = EvaluationEngine(jobs=1, cache_max_entries=2)
        for tlp in (1, 2, 3):
            engine.simulate(gau.kernel, FERMI, tlp, grid_blocks=4,
                            param_sizes=gau.param_sizes)
        snapshot = engine.snapshot()
        assert snapshot["cache_max_entries"] == 2
        assert snapshot["cached_results"] == 2
        assert snapshot["cache_evictions"] == 1

    def test_configure_rebounds_shared_engine(self):
        from repro.engine import configure, get_engine, set_engine

        previous = get_engine()
        try:
            set_engine(EvaluationEngine(jobs=1))
            engine = configure(cache_max_entries=5)
            assert engine._sim_cache.max_entries == 5
            engine = configure(cache_max_entries=0)
            assert engine._sim_cache.max_entries is None
        finally:
            set_engine(previous)


class TestEngineThreadSafety:
    def test_concurrent_get_engine_yields_one_instance(self):
        import threading

        from repro.engine import engine as engine_mod
        from repro.engine import get_engine, set_engine

        previous = get_engine()
        seen = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            seen.append(get_engine())

        try:
            # Reset the singleton so every thread races the lazy init.
            with engine_mod._engine_lock:
                engine_mod._default_engine = None
            threads = [threading.Thread(target=grab) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len({id(e) for e in seen}) == 1
        finally:
            set_engine(previous)
