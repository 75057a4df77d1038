"""Evaluation-engine tests: fingerprints, caching, batched routing."""

import dataclasses
import json

import pytest

from repro.arch import FERMI, KEPLER
from repro.engine import (
    EvaluationEngine,
    SimRequest,
    config_signature,
    get_engine,
    make_sim_key,
)
from repro.ptx import parse_kernel, print_kernel
from repro.workloads import load_workload

from .conftest import build_loop_kernel


@pytest.fixture(scope="module")
def gau():
    return load_workload("GAU")


def _spans(engine, name):
    return [span for span in engine.spans.spans if span.name == name]


def _span(span_id, parent, name, start, end):
    from repro.engine import Span

    return Span(span_id, parent, name, start, end, "", {})


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
        other = dataclasses.replace(
            gau.kernel, block_size=gau.kernel.block_size * 2
        )
        assert other.fingerprint() != gau.kernel.fingerprint()


class TestCacheKeys:
    def test_config_signature_sees_scaled_fields(self):
        scaled = FERMI.scaled(max_blocks_per_sm=4)
        assert scaled.name == FERMI.name
        assert config_signature(scaled) != config_signature(FERMI)

    def test_key_distinguishes_every_component(self, gau):
        fp = gau.kernel.fingerprint()
        base = make_sim_key(fp, FERMI, 4, {"a": 64}, 2)
        assert make_sim_key(fp, FERMI, 4, {"a": 64}, 3) != base
        assert make_sim_key(fp, FERMI, 8, {"a": 64}, 2) != base
        assert make_sim_key(fp, FERMI, 4, {"a": 128}, 2) != base
        assert make_sim_key("x" * 64, FERMI, 4, {"a": 64}, 2) != base

    def test_schema_is_keyword_only(self, gau):
        """A sixth positional argument is refused, so a call still
        written for the retired scheduler slot cannot bind its ``"gto"``
        to ``schema``."""
        with pytest.raises(TypeError):
            make_sim_key(gau.kernel.fingerprint(), FERMI, 4, None, 2, "gto")

    def test_param_order_does_not_matter(self, gau):
        fp = gau.kernel.fingerprint()
        ab = make_sim_key(fp, FERMI, 4, {"a": 1, "b": 2}, 2)
        ba = make_sim_key(fp, FERMI, 4, {"b": 2, "a": 1}, 2)
        assert ab == ba


class TestCaching:
    def test_repeated_simulate_hits_cache(self, gau):
        engine = EvaluationEngine()
        r1 = engine.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                             param_sizes=gau.param_sizes)
        r2 = engine.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                             param_sizes=gau.param_sizes)
        assert engine.stats.sim_misses == 1
        assert engine.stats.sim_hits == 1
        assert r1 is r2

    def test_equal_content_different_object_hits_cache(self, gau):
        engine = EvaluationEngine()
        engine.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        clone = parse_kernel(print_kernel(gau.kernel))
        engine.simulate(clone, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert engine.stats.sim_misses == 1
        assert engine.stats.sim_hits == 1

    def test_traces_shared_across_tlps(self, gau):
        engine = EvaluationEngine()
        engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                           param_sizes=gau.param_sizes)
        assert engine.stats.trace_misses == 1
        assert engine.stats.sim_misses == 3

    def test_single_points_trace_and_pack_once(self, gau, monkeypatch):
        """Three single points of one kernel at three TLPs trace the
        grid once and pack it once: the trace cache keeps the packed
        grid, and each point replays it."""
        import repro.engine.engine

        calls = []
        trace_grid = repro.engine.engine.trace_grid

        def counting(*args, **kwargs):
            calls.append(args)
            return trace_grid(*args, **kwargs)

        monkeypatch.setattr(repro.engine.engine, "trace_grid", counting)
        engine = EvaluationEngine(disk_cache="")
        for tlp in (1, 2, 3):
            engine.simulate(gau.kernel, FERMI, tlp, grid_blocks=4,
                            param_sizes=gau.param_sizes)
        assert len(calls) == 1
        assert len(_spans(engine, "sim.pack")) == 1
        assert len(_spans(engine, "sim.scalar")) == 3
        assert engine.stats.trace_hits == 2

    def test_clear_forgets_results(self, gau):
        engine = EvaluationEngine()
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        engine.clear()
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert engine.stats.sim_misses == 1
        assert engine.stats.sim_hits == 0

    def test_disk_cache_survives_engine_restart(self, gau, tmp_path):
        first = EvaluationEngine(disk_cache=str(tmp_path))
        r1 = first.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                            param_sizes=gau.param_sizes)
        assert list(tmp_path.glob("sim-*.pkl"))
        second = EvaluationEngine(disk_cache=str(tmp_path))
        r2 = second.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                             param_sizes=gau.param_sizes)
        assert second.stats.sim_misses == 0
        assert second.stats.disk_hits == 1
        assert r1 == r2


class TestSchemaVersioning:
    """Cache keys carry a schema tag covering every result-affecting
    revision, so results produced under different semantics can never
    satisfy a lookup."""

    def test_schema_tag_covers_all_versions(self):
        from repro.engine import cache_schema_version
        from repro.engine.cache import RESULT_SCHEMA_VERSION
        from repro.ir import PIPELINE_SCHEMA_VERSION
        from repro.sim.batch import BATCH_SCHEMA_VERSION

        tag = cache_schema_version()
        assert tag == (
            f"r{RESULT_SCHEMA_VERSION}.fp1"
            f".pp{PIPELINE_SCHEMA_VERSION}.b{BATCH_SCHEMA_VERSION}.m1"
        )
        # Pinned byte for byte: existing disk caches must keep hitting.
        assert tag == "r2.fp1.pp1.b1.m1"

    def test_key_leads_with_schema_tag(self, gau):
        from repro.engine import cache_schema_version

        key = make_sim_key(
            gau.kernel.fingerprint(), FERMI, 4, gau.param_sizes, 2
        )
        assert key[0] == cache_schema_version()

    def test_pipeline_version_bump_misses_disk_cache(
        self, gau, tmp_path, monkeypatch
    ):
        """A pass-semantics revision (``PIPELINE_SCHEMA_VERSION``)
        invalidates persisted results wholesale instead of serving
        entries produced by passes that no longer generate the same
        kernels."""
        first = EvaluationEngine(disk_cache=str(tmp_path))
        first.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert first.stats.sim_misses == 1
        assert list(tmp_path.glob("sim-*.pkl"))

        import repro.engine.cache as cache_mod

        monkeypatch.setattr(
            cache_mod, "PIPELINE_SCHEMA_VERSION",
            cache_mod.PIPELINE_SCHEMA_VERSION + 1,
        )
        bumped = EvaluationEngine(disk_cache=str(tmp_path))
        bumped.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert bumped.stats.sim_misses == 1
        assert bumped.stats.disk_hits == 0

        monkeypatch.undo()
        third = EvaluationEngine(disk_cache=str(tmp_path))
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
        first = EvaluationEngine(disk_cache=str(tmp_path))
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
        bumped = EvaluationEngine(disk_cache=str(tmp_path))
        bumped.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert bumped.stats.sim_misses == 1
        assert bumped.stats.disk_hits == 0

        monkeypatch.undo()
        third = EvaluationEngine(disk_cache=str(tmp_path))
        third.simulate(gau.kernel, FERMI, 2, grid_blocks=4,
                       param_sizes=gau.param_sizes)
        assert third.stats.sim_misses == 0
        assert third.stats.disk_hits == 1


class TestPassesKeying:
    """``--passes`` is a job param only: a simulation is keyed by the
    kernel it simulates, so every path that simulates one kernel shares
    one cache entry."""

    def test_one_shot_and_job_share_one_entry(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.engine import set_engine
        from repro.service.jobs import execute, prepare
        from repro.service.protocol import Request

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        previous = get_engine()
        try:
            set_engine(EvaluationEngine())
            assert main(["simulate", "GAU", "--passes", "dce",
                         "--tlp", "2", "--grid", "4"]) == 0
            one_shot = capsys.readouterr().out
            job_engine = set_engine(EvaluationEngine())
            request = Request(job="simulate", params={
                "target": "GAU", "passes": "dce", "tlp": 2, "grid": 4,
            })
            payload = execute(prepare(request))
        finally:
            set_engine(previous)
        assert len(list(tmp_path.glob("sim-*.pkl"))) == 1
        assert job_engine.stats.sim_misses == 0
        assert job_engine.stats.disk_hits == 1
        assert f"cycles:        {payload['cycles']:.0f}" in one_shot

    def test_simulate_jobs_share_one_pipeline_run(self, monkeypatch):
        """Two ``simulate`` jobs with ``passes`` on one engine run the
        pipeline once, through the stage memo, and answer alike."""
        import repro.core.crat as crat
        from repro.engine import set_engine
        from repro.service.jobs import execute, prepare
        from repro.service.protocol import Request

        runs = []
        pipeline = crat.run_pipeline

        def counted(*args, **kwargs):
            runs.append(args[1])
            return pipeline(*args, **kwargs)

        monkeypatch.setattr(crat, "run_pipeline", counted)
        request = Request(job="simulate", params={
            "target": "GAU", "passes": "copy-prop,dce", "tlp": 2,
            "grid": 4,
        })
        previous = get_engine()
        try:
            engine = set_engine(EvaluationEngine(disk_cache=""))
            payloads = [execute(prepare(request)) for _ in range(2)]
        finally:
            set_engine(previous)
        assert runs == ["copy-prop,dce"]
        assert engine.stats.memo_hits >= 1
        assert payloads[1] == payloads[0]

    def test_default_pipeline_key_is_unchanged(self, gau):
        """The key's last two slots stay the literals ``"gto"`` and
        ``""``: caches written while they held the warp scheduler and
        the ``--passes`` signature still hit."""
        from repro.engine.cache import key_digest

        key = make_sim_key(
            gau.kernel.fingerprint(), FERMI, 4, gau.param_sizes, 2
        )
        assert key[-2:] == ("gto", "")
        assert key_digest(key) == "74c076f574942225"


class TestParallelDeterminism:
    def test_simulate_many_preserves_request_order(self, gau):
        engine = EvaluationEngine()
        tlps = [3, 1, 2]
        requests = [
            SimRequest(gau.kernel, FERMI, tlp, grid_blocks=4,
                       param_sizes=gau.param_sizes)
            for tlp in tlps
        ]
        results = engine.simulate_outcomes(requests)
        assert [r.tlp for r in results] == tlps


class TestBatchedRouting:
    """Multi-point sweeps run as one batch of the timing core; single
    points run alone.  The route never changes a result."""

    def _requests(self, gau, tlps, config=FERMI):
        return [
            SimRequest(gau.kernel, config, tlp, grid_blocks=4,
                       param_sizes=gau.param_sizes)
            for tlp in tlps
        ]

    def _one_by_one(self, requests):
        engine = EvaluationEngine(disk_cache="")
        return [engine.simulate_outcomes([req])[0] for req in requests]

    def test_sweep_equals_points_one_by_one(self, gau):
        engine = EvaluationEngine(disk_cache="")
        results = engine.simulate_outcomes(self._requests(gau, [1, 2, 3]))
        assert results == self._one_by_one(self._requests(gau, [1, 2, 3]))
        assert engine.stats.batched_points == 3
        assert engine.stats.batched_groups == 1

    def test_batch_sim_event_emitted(self, gau):
        engine = EvaluationEngine(disk_cache="")
        engine.simulate_outcomes(self._requests(gau, [1, 2]))
        batches = _spans(engine, "sim.batch")
        assert len(batches) == 1
        assert batches[0].attrs == {"lanes": 2}

    def test_singleton_group_stays_supervised(self, gau):
        engine = EvaluationEngine(disk_cache="")
        engine.simulate_outcomes(self._requests(gau, [2]))
        assert engine.stats.batched_points == 0

    def test_mixed_configs_group_separately(self, gau):
        """Points are grouped by packed grid, and a grid is packed for
        one config: fermi and kepler points of one kernel in one call
        run as one batch per config."""
        engine = EvaluationEngine(disk_cache="")
        requests = (self._requests(gau, [1, 2])
                    + self._requests(gau, [1, 2], config=KEPLER))
        results = engine.simulate_outcomes(requests)
        assert engine.stats.batched_groups == 2
        assert engine.stats.batched_points == 4
        assert results == self._one_by_one(requests)


class TestInstrumentation:
    def test_events_and_snapshot_are_json_ready(self, gau):
        engine = EvaluationEngine()
        with engine.span("unit-test"):
            engine.profile_tlp(gau.kernel, FERMI, 2, grid_blocks=4,
                               param_sizes=gau.param_sizes)
        snapshot = json.loads(engine.to_json())
        names = {span["name"] for span in snapshot["spans"]}
        assert names == {"unit-test", "engine.simulate", "sim.trace",
                         "sim.pack", "sim.batch"}
        assert snapshot["stats"]["simulations"] == 2
        assert set(snapshot["self_seconds"]) == names
        assert "stage_seconds" not in snapshot["stats"]

    def test_self_seconds_subtracts_the_union_of_children(self):
        from repro.engine import self_seconds

        spans = [
            _span(1, 0, "parent", 10.0, 11.0),
            _span(2, 1, "child", 10.1, 10.3),
            _span(3, 1, "child", 10.5, 10.6),
        ]
        assert self_seconds(spans) == pytest.approx(
            {"parent": 0.7, "child": 0.3})
        # Overlapping children (and one running past the parent's end)
        # cover [10.1, 11.0] once.
        overlapping = spans[:1] + [
            _span(2, 1, "child", 10.1, 10.8),
            _span(3, 1, "child", 10.5, 11.5),
        ]
        assert self_seconds(overlapping)["parent"] == pytest.approx(0.1)

    def test_spans_take_their_parents_from_their_own_thread(self):
        import threading

        engine = EvaluationEngine(disk_cache="")
        opened = threading.Barrier(2, timeout=10.0)

        def work(tag):
            with engine.span(f"outer-{tag}"):
                opened.wait()  # both outer spans are open at once
                with engine.span(f"inner-{tag}"):
                    opened.wait()

        threads = [threading.Thread(target=work, args=(tag,))
                   for tag in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        by_name = {span.name: span for span in engine.spans.spans}
        for tag in "ab":
            assert by_name[f"inner-{tag}"].parent == by_name[f"outer-{tag}"].id
            assert by_name[f"outer-{tag}"].parent == 0

    def test_sweep_spans_match_the_counters(self, gau):
        engine = EvaluationEngine(disk_cache="")
        engine.profile_tlp(gau.kernel, FERMI, 3, grid_blocks=4,
                           param_sizes=gau.param_sizes)
        traces = _spans(engine, "sim.trace")
        assert len(traces) == engine.stats.trace_misses == 1
        lanes = sum(s.attrs["lanes"] for s in _spans(engine, "sim.batch"))
        assert lanes == engine.stats.batched_points == 3
        [simulate] = _spans(engine, "engine.simulate")
        assert simulate.attrs == {"points": 3, "hits": 0}
        assert {s.parent for s in traces} == {simulate.id}

    def test_profiled_baselines_nest_in_opt_tlp(self, gau):
        import time

        from repro.core import CRATOptimizer
        from repro.engine import self_seconds

        engine = EvaluationEngine(disk_cache="")
        t0 = time.perf_counter()
        CRATOptimizer(FERMI, engine=engine).optimize(
            gau.kernel, default_reg=gau.default_reg,
            grid_blocks=gau.grid_blocks, param_sizes=gau.param_sizes,
        )
        wall = time.perf_counter() - t0
        by_id = {span.id: span for span in engine.spans.spans}
        [baselines] = _spans(engine, "baselines")
        ancestors = []
        parent = baselines.parent
        while parent:
            ancestors.append(by_id[parent].name)
            parent = by_id[parent].parent
        assert ancestors == ["opt_tlp"]
        assert sum(self_seconds(by_id.values()).values()) <= wall

    def test_reset_stats_keeps_cache_warm(self, gau):
        engine = EvaluationEngine()
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        engine.reset_stats()
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert engine.stats.sim_hits == 1
        assert engine.stats.sim_misses == 0

    def test_event_log_keeps_the_newest_events(self):
        """A full log drops its oldest spans, so a long-lived daemon
        keeps recording what it does now."""
        engine = EvaluationEngine(max_events=3)
        for job in ("a", "b", "c", "d", "e"):
            engine.mark("cache_corrupt", job=job)
        assert [s.attrs["job"] for s in engine.spans.spans] == ["c", "d", "e"]
        assert [s["id"] for s in engine.snapshot()["spans"]] == [3, 4, 5]

    def test_snapshot_while_threads_emit(self):
        """Worker threads emit while a ``stats`` request snapshots the
        log; the copy must never trip over a concurrent append."""
        import sys
        import threading

        engine = EvaluationEngine(max_events=200)
        stop = threading.Event()

        def emit():
            while not stop.is_set():
                with engine.span("outer"):
                    engine.mark("inner")

        threads = [threading.Thread(target=emit) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for _ in range(50):
                assert len(engine.snapshot()["spans"]) <= 200
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        spans = list(engine.spans.spans)
        assert len(spans) == 200
        assert len({span.id for span in spans}) == 200


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
        engine = EvaluationEngine(cache_max_entries=2)
        for tlp in (1, 2, 3):
            engine.simulate(gau.kernel, FERMI, tlp, grid_blocks=4,
                            param_sizes=gau.param_sizes)
        snapshot = engine.snapshot()
        assert snapshot["cache_max_entries"] == 2
        assert snapshot["cached_results"] == 2
        assert snapshot["cache_evictions"] == 1

    def test_traces_follow_the_bound(self, gau):
        """Traces are bounded like results, and a bounded engine answers
        as an unbounded one does."""
        bounded = EvaluationEngine(disk_cache="", cache_max_entries=2)
        unbounded = EvaluationEngine(disk_cache="")
        for grid in range(2, 7):
            a, b = (
                engine.simulate(gau.kernel, FERMI, 2, grid_blocks=grid,
                                param_sizes=gau.param_sizes)
                for engine in (bounded, unbounded)
            )
            assert a == b
        snapshot = bounded.snapshot(spans=False)
        assert snapshot["cached_results"] == 2
        assert snapshot["cache_evictions"] == 3  # results only
        assert snapshot["cached_traces"] <= 2
        assert unbounded.snapshot(spans=False)["cached_traces"] == 5

    def test_concurrent_get_and_put_raise_nothing(self):
        """``repro serve`` workers share the memory level: two threads
        reading while two write and evict, over 3 keys on a bound of 2,
        must never raise.  Hashing a key yields the GIL, so the threads
        interleave inside every lookup, as a busy daemon's may."""
        import sys
        import threading
        import time

        from repro.engine.cache import SimResultCache

        class YieldingKey(tuple):
            def __hash__(self):
                time.sleep(0)
                return tuple.__hash__(self)

        cache = SimResultCache(disk_dir="", max_entries=2)
        keys = [YieldingKey(self._key(i)) for i in range(3)]
        errors = []

        def worker(seed):
            try:
                for i in range(1000):
                    key = keys[(seed + i) % 3]
                    if seed % 2:
                        cache.put(key, f"r{i}")
                    else:
                        cache.get(key)
            except Exception as err:
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 2

    def test_configure_rebounds_shared_engine(self):
        from repro.engine import configure, get_engine, set_engine

        previous = get_engine()
        try:
            set_engine(EvaluationEngine())
            engine = configure(cache_max_entries=5)
            assert engine._sim_cache.max_entries == 5
            assert engine._trace_cache.max_entries == 5
            engine = configure(cache_max_entries=0)
            assert engine._sim_cache.max_entries is None
            assert engine._trace_cache.max_entries is None
        finally:
            set_engine(previous)


class TestStageMemo:
    """``EvaluationEngine.memo``: each pure compiler stage once per key."""

    #: Every ``AllocationResult`` field the optimizer and the validator
    #: read besides the kernel itself.
    FIELDS = (
        "reg_per_thread",
        "num_local_loads",
        "num_local_stores",
        "num_shared_loads",
        "num_shared_stores",
        "num_address_insts",
        "num_remat_insts",
        "weighted_local_accesses",
        "weighted_shared_accesses",
        "shm_spill_block_bytes",
        "spilled",
        "name_map",
        "spill_regions",
    )

    @staticmethod
    def _spilling_allocation():
        from repro.regalloc import allocate, register_demand

        from .conftest import build_pressure_kernel

        kernel = build_pressure_kernel()
        limit = register_demand(kernel) // 2
        key = ("allocate", kernel.fingerprint(), limit, 4096)
        return key, lambda: allocate(kernel, limit, spare_shm_bytes=4096)

    def test_hit_matches_fresh_allocation(self):
        key, compute = self._spilling_allocation()
        engine = EvaluationEngine()
        engine.memo(key, compute)
        hit = engine.memo(key, compute)
        fresh = compute()
        assert engine.stats.memo_hits == 1
        # The kernel spills to local and shared memory, so every
        # counter below is non-trivial.
        assert fresh.num_local_insts and fresh.num_shared_insts
        assert len(fresh.spill_regions) == 2
        assert print_kernel(hit.kernel) == print_kernel(fresh.kernel)
        for field in self.FIELDS:
            assert getattr(hit, field) == getattr(fresh, field), field

    def test_hit_is_the_shared_value(self):
        key, compute = self._spilling_allocation()
        engine = EvaluationEngine()
        value = engine.memo(key, compute)
        for _ in range(2):
            assert engine.memo(key, compute) is value
        assert engine.stats.memo_hits == 2
        # No caller can change what the others hold.
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.reg_per_thread = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.kernel.body = ()
        with pytest.raises(AttributeError):
            value.kernel.body.append(value.kernel.body[-1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.spill_regions[0].layout.slots = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.shm_plan.substacks[0].gain = 0

    def test_memo_values_are_frozen_throughout(self, gau):
        """Every dataclass a memoised allocation, resource usage or
        rewrite chain reaches is frozen, and holds tuples where it holds
        a sequence.  Past those, a value holds only plain scalars: no
        ``RewriteContext``, CFG, DF report or other analysis."""
        import enum

        from repro.core.crat import CRATOptimizer

        engine = EvaluationEngine()
        for verify, passes in ((False, "dce"),
                               (True, "copy-prop,dce,minreg-sched")):
            CRATOptimizer(
                FERMI, passes=passes, verify=verify, engine=engine
            ).optimize(
                gau.kernel, default_reg=gau.default_reg, grid_blocks=4,
                param_sizes=gau.param_sizes,
            )
        key, compute = self._spilling_allocation()
        engine.memo(key, compute)
        seen, kinds = set(), set()
        scalars = (str, int, float, bytes, type(None), enum.Enum)

        def walk(obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            assert not isinstance(obj, (list, set)), type(obj)
            if isinstance(obj, (tuple, frozenset)):
                for item in obj:
                    walk(item)
            elif isinstance(obj, dict):
                for item in obj.items():
                    walk(item)
            elif dataclasses.is_dataclass(obj):
                kinds.add(type(obj).__name__)
                assert type(obj).__dataclass_params__.frozen, type(obj)
                for field in dataclasses.fields(obj):
                    walk(getattr(obj, field.name))
            else:
                assert isinstance(obj, scalars), type(obj)

        for value in list(engine._memo._data.values()):
            walk(value)
        assert {
            "AllocationResult", "ResourceUsage", "Kernel", "Instruction",
            "Reg", "ShmSpillPlan", "SubStack", "SpillRegionInfo",
            "SpillStackLayout", "SpillSlot", "RewriteChain", "ChainStage",
        } <= kinds

    def test_none_and_zero_are_memoised(self):
        engine = EvaluationEngine()
        assert engine.memo(("none",), lambda: None) is None
        assert engine.memo(("zero",), lambda: 0) == 0
        assert engine.memo(("none",), self._must_not_run) is None
        assert engine.memo(("zero",), self._must_not_run) == 0
        assert (engine.stats.memo_hits, engine.stats.memo_misses) == (2, 2)

    def test_no_disk_directory_pickles_nothing(self, monkeypatch):
        import pickle

        def refuse(*args, **kwargs):
            raise AssertionError("pickled without a disk directory")

        monkeypatch.setattr(pickle, "dumps", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        key, compute = self._spilling_allocation()
        engine = EvaluationEngine(disk_cache="")
        assert engine.memo(key, compute) is engine.memo(key, compute)

    def test_failure_is_not_stored(self):
        from repro.regalloc.allocator import InsufficientRegistersError

        engine = EvaluationEngine()
        calls = []

        def compute():
            calls.append(1)
            raise InsufficientRegistersError("reg_limit=1")

        for _ in range(2):
            with pytest.raises(InsufficientRegistersError):
                engine.memo(("allocate", "fp", 1, 0), compute)
        assert len(calls) == 2
        assert engine.snapshot()["memo_entries"] == 0

    def test_bound_follows_cache_max_entries(self):
        from repro.engine import configure, set_engine

        previous = get_engine()
        try:
            set_engine(EvaluationEngine())
            engine = configure(cache_max_entries=2)
            engine.memo(("k", 1), lambda: 1)
            engine.memo(("k", 2), lambda: 2)
            assert engine.memo(("k", 1), lambda: -1) == 1  # refreshes 1
            engine.memo(("k", 3), lambda: 3)  # evicts 2, the LRU entry
            assert engine.snapshot()["memo_entries"] == 2
            assert engine.memo(("k", 1), lambda: -1) == 1
            assert engine.memo(("k", 3), lambda: -3) == 3
            assert engine.memo(("k", 2), lambda: -2) == -2
        finally:
            set_engine(previous)

    def test_clear_empties_memo_and_counters(self):
        engine = EvaluationEngine()
        assert engine.memo(("k",), lambda: [1]) == [1]
        assert engine.memo(("k",), lambda: [2]) == [1]
        assert engine.memo(("j",), lambda: [3]) == [3]
        assert (engine.stats.memo_hits, engine.stats.memo_misses) == (1, 2)
        engine.clear()
        assert engine.snapshot()["memo_entries"] == 0
        assert (engine.stats.memo_hits, engine.stats.memo_misses) == (0, 0)
        assert engine.memo(("k",), lambda: [2]) == [2]
        assert (engine.stats.memo_hits, engine.stats.memo_misses) == (0, 1)

    @staticmethod
    def _race(engine):
        """8 threads x 300 lookups over 7 keys, which must lose no
        count and never overrun the memo's bound of 4."""
        import sys
        import threading

        calls, errors = 300, []

        def worker(seed):
            try:
                for i in range(calls):
                    n = (seed + i) % 7
                    if engine.memo(("k", n), lambda: n) != n:
                        errors.append(("wrong value", n))
            except Exception as err:
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = engine.stats
        lookups = stats.memo_hits + stats.memo_disk_hits + stats.memo_misses
        assert lookups == 8 * calls
        assert engine.snapshot()["memo_entries"] <= 4

    def test_concurrent_lookups_keep_counts_and_bound(self):
        # ``repro serve`` workers share one engine: lookups racing on
        # overlapping keys under a tight bound.
        self._race(EvaluationEngine(disk_cache="", cache_max_entries=4))

    def test_concurrent_lookups_over_a_disk_level(self, tmp_path):
        # Evicted keys come back from disk while other threads write
        # them: one whole entry per key, none corrupt, no temp file left.
        engine = EvaluationEngine(disk_cache=str(tmp_path), cache_max_entries=4)
        self._race(engine)
        assert engine.stats.memo_disk_hits > 0
        assert engine.stats.cache_corrupt == 0
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 7 and all(n.endswith(".pkl") for n in names)

    @staticmethod
    def _verified_runs(engines, gau, monkeypatch):
        """One verified optimize of GAU per engine: per run, the
        ``verify_allocation``/``verify_pass`` call counts and the
        answer.  Each run checks every allocation it evaluated, once
        per allocation object (MaxTLP and OptTLP share one)."""
        import repro.verify as verify_mod
        from repro.core import CRATOptimizer

        counts = {"verify_allocation": 0, "verify_pass": 0}
        checked = []  # the allocations verify_allocation was given
        for name in counts:
            original = getattr(verify_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                if _name == "verify_allocation":
                    checked.append(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(verify_mod, name, counted)
        runs = []
        for engine in engines:
            optimizer = CRATOptimizer(
                FERMI,
                verify=True,
                passes="copy-prop,dce,minreg-sched",
                engine=engine,
            )
            before = dict(counts)
            del checked[:]
            result = optimizer.optimize(
                gau.kernel,
                default_reg=gau.default_reg,
                grid_blocks=4,
                param_sizes=gau.param_sizes,
            )
            calls = {name: counts[name] - before[name] for name in counts}
            evaluated = [b.allocation for b in result.baselines.values()]
            evaluated += [s.allocation for s in result.candidates]
            assert evaluated[0] is evaluated[1]  # MaxTLP's is OptTLP's
            assert len({id(a) for a in checked}) == len(checked)
            assert {id(a) for a in evaluated} <= {id(a) for a in checked}
            answer = (
                result.usage,
                result.opt_tlp,
                [(s.point, s.tpsc) for s in result.candidates],
                print_kernel(result.chosen.allocation.kernel),
                result.sim,
            )
            runs.append((calls, answer))
        assert runs[0][0]["verify_allocation"] > 0
        assert runs[0][0]["verify_pass"] > 0
        return runs

    def test_checks_still_run_on_memo_hits(self, gau, monkeypatch):
        """A verified optimize re-runs every check on a warm memo, and
        answers exactly as it did cold."""
        engine = EvaluationEngine()
        runs = self._verified_runs([engine, engine], gau, monkeypatch)
        assert engine.stats.memo_hits > 0
        assert runs[1] == runs[0]

    def test_warm_verified_run_skips_the_passes(self, gau, monkeypatch):
        """The second verified optimize on one engine reads the
        pipeline's rewrite chain from the memo: it runs no pipeline and
        no ``minreg-sched`` matcher, yet calls ``verify_pass`` as often
        as the first run did."""
        import repro.core.crat as crat
        from repro.opt.minreg import MinRegSchedPattern

        calls = {"run_pipeline": 0, "match": 0}
        pipeline, match = crat.run_pipeline, MinRegSchedPattern.match

        def counted_pipeline(*args, **kwargs):
            calls["run_pipeline"] += 1
            return pipeline(*args, **kwargs)

        def counted_match(*args, **kwargs):
            calls["match"] += 1
            return match(*args, **kwargs)

        monkeypatch.setattr(crat, "run_pipeline", counted_pipeline)
        monkeypatch.setattr(MinRegSchedPattern, "match", counted_match)
        engine = EvaluationEngine()
        first = self._verified_runs([engine], gau, monkeypatch)
        assert calls["run_pipeline"] == 1 and calls["match"] > 0
        calls.update(run_pipeline=0, match=0)
        second = self._verified_runs([engine], gau, monkeypatch)
        assert calls == {"run_pipeline": 0, "match": 0}
        assert second == first

    def test_memo_hits_warn_about_an_exhausted_budget(self, gau,
                                                       monkeypatch):
        """A pipeline stopped by a budget warns on the run that stored
        its chain and again, identically, on every hit, verified or
        not."""
        import functools

        import repro.ir.pipeline as pipeline_mod
        from repro.core.crat import run_passes
        from repro.ir import GreedyRewriteDriver, Rewrite, RewriteBudgetWarning
        from repro.opt import DCEPattern

        def match(self, window, ctx):
            # Rewrites the first instruction into itself, so it matches
            # its own output for ever.
            if window.pos != 0:
                return None
            return Rewrite(0).replace(0, ctx.instructions[0])

        monkeypatch.setattr(DCEPattern, "match", match)
        # The default rewrite budget would take 100,000 rewrites.
        monkeypatch.setattr(
            pipeline_mod, "GreedyRewriteDriver",
            functools.partial(GreedyRewriteDriver, max_rewrites=3),
        )
        engine = EvaluationEngine()
        seen = []
        for verify in (False, False, True):
            with pytest.warns(RewriteBudgetWarning) as caught:
                kernel = run_passes(gau.kernel, "dce", verify, engine)
            assert print_kernel(kernel) == print_kernel(gau.kernel)
            seen.append([
                (w.message.kernel, w.message.budget, w.message.limit,
                 w.message.applied)
                for w in caught
            ])
        assert engine.stats.memo_misses == 1
        assert seen == [[(gau.kernel.name, "rewrite", 3, 3)]] * 3

    # ------------------------------------------------------------------
    # The disk level.
    # ------------------------------------------------------------------
    @staticmethod
    def _must_not_run():
        raise AssertionError("computed despite a stored entry")

    def test_second_engine_reads_the_disk_entry(self, tmp_path):
        key, compute = self._spilling_allocation()
        first = EvaluationEngine(disk_cache=str(tmp_path))
        fresh = first.memo(key, compute)
        assert len(list(tmp_path.glob("memo-*.pkl"))) == 1
        second = EvaluationEngine(disk_cache=str(tmp_path))
        hit = second.memo(key, self._must_not_run)
        stats = second.stats
        assert (stats.memo_hits, stats.memo_disk_hits, stats.memo_misses) == (
            0, 1, 0,
        )
        assert print_kernel(hit.kernel) == print_kernel(fresh.kernel)
        for field in self.FIELDS:
            assert getattr(hit, field) == getattr(fresh, field), field
        # The disk hit is now a memory entry as well.
        second.memo(key, self._must_not_run)
        assert stats.memo_hits == 1

    def test_disk_hit_is_decoded_once(self, tmp_path):
        key, compute = self._spilling_allocation()
        EvaluationEngine(disk_cache=str(tmp_path)).memo(key, compute)
        engine = EvaluationEngine(disk_cache=str(tmp_path))
        first = engine.memo(key, self._must_not_run)
        engine._memo.clear()  # the memory level only
        second = engine.memo(key, self._must_not_run)
        assert engine.memo(key, self._must_not_run) is second
        stats = engine.stats
        assert (stats.memo_hits, stats.memo_disk_hits, stats.memo_misses) == (
            1, 2, 0,
        )
        # Two decodes of one entry share every instruction.
        assert first is not second
        assert all(
            a is b
            for a, b in zip(first.kernel.instructions(),
                            second.kernel.instructions())
        )

    def test_disk_values_share_equal_instructions(self, tmp_path):
        import gc
        import weakref

        from repro.ptx import instruction
        from repro.regalloc import allocate, register_demand

        from .conftest import build_pressure_kernel

        kernel = build_pressure_kernel()
        limit = register_demand(kernel)
        keys = [("allocate", kernel.fingerprint(), reg, 0)
                for reg in (limit, limit // 2)]
        writer = EvaluationEngine(disk_cache=str(tmp_path))
        for key in keys:
            writer.memo(key, lambda reg=key[2]: allocate(kernel, reg))
        del writer

        engine = EvaluationEngine(disk_cache=str(tmp_path))

        def shared_instructions():
            values = [engine.memo(key, self._must_not_run) for key in keys]
            # One string per physical register name across name maps.
            names = [n for v in values for n in v.name_map.values()]
            assert len({id(n) for n in names}) == len(set(names))
            bodies = [value.kernel.instructions() for value in values]
            shared = [a for a in bodies[0] if a in bodies[1]]
            assert shared
            for a in shared:
                assert all(b is a for b in bodies[1] if b == a)
            # Equal instructions within one kernel are one object too.
            for body in bodies:
                assert len({id(i) for i in body}) < len(body)
            return [weakref.ref(a) for a in shared]

        gc.collect()
        before = len(instruction._INSTRUCTIONS)
        refs = shared_instructions()
        assert engine.stats.memo_disk_hits == 2
        assert len(instruction._INSTRUCTIONS) > before
        # Held weakly: once both values are dropped, so are they.
        engine.clear()
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(instruction._INSTRUCTIONS) == before

    def test_concurrent_decodes_stay_correct(self):
        """``repro serve`` workers decode disk entries at once: a race on
        the intern tables may cost sharing, never a wrong object."""
        import pickle
        import sys
        import threading

        from repro.ptx import instruction

        _, compute = self._spilling_allocation()
        value = compute()
        blob, expected = pickle.dumps(value), print_kernel(value.kernel)
        errors = []

        def worker():
            try:
                for _ in range(20):
                    decoded = pickle.loads(blob)
                    if print_kernel(decoded.kernel) != expected:
                        errors.append("decoded kernel differs")
            except Exception as err:
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Each table entry is what its own key looks up.  A decoded
        # value held here keeps its entries in the table, so the loop
        # runs over them.
        kept = pickle.loads(blob)
        entries = list(instruction._INSTRUCTIONS.values())
        assert {id(i) for i in kept.kernel.instructions()} <= set(
            map(id, entries)
        )
        for inst in entries:
            rebuild, fields = inst.__reduce__()
            assert rebuild(*fields) is inst

    def test_corrupt_disk_entry_is_dropped_and_recomputed(self, tmp_path):
        EvaluationEngine(disk_cache=str(tmp_path)).memo(("k",), lambda: [1])
        [path] = tmp_path.glob("memo-*.pkl")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # one payload byte
        path.write_bytes(bytes(data))

        engine = EvaluationEngine(disk_cache=str(tmp_path))
        calls = []
        assert engine.memo(("k",), lambda: calls.append(1) or [1]) == [1]
        assert calls == [1]
        assert engine.stats.cache_corrupt == 1
        assert (engine.stats.memo_disk_hits, engine.stats.memo_misses) == (0, 1)
        corrupt = _spans(engine, "cache_corrupt")
        assert [s.attrs for s in corrupt] == [
            {"path": str(path), "reason": "checksum mismatch"}
        ]
        # The recomputed value replaced the deleted entry, intact.
        third = EvaluationEngine(disk_cache=str(tmp_path))
        assert third.memo(("k",), self._must_not_run) == [1]
        assert third.stats.memo_disk_hits == 1

    def test_entry_of_other_source_is_never_read(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_mod

        with monkeypatch.context() as patch:
            patch.setattr(cache_mod, "source_digest", lambda: "0" * 64)
            old = EvaluationEngine(disk_cache=str(tmp_path))
            old.memo(("k",), lambda: "old")
        engine = EvaluationEngine(disk_cache=str(tmp_path))
        assert engine.memo(("k",), lambda: "new") == "new"
        assert (engine.stats.memo_disk_hits, engine.stats.memo_misses) == (0, 1)
        assert len(list(tmp_path.glob("memo-*.pkl"))) == 2

    def test_no_source_digest_keeps_memo_in_memory(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_mod

        monkeypatch.setattr(cache_mod, "source_digest", lambda: None)
        engine = EvaluationEngine(disk_cache=str(tmp_path))
        assert engine.memo(("k",), lambda: 1) == 1
        assert engine.memo(("k",), self._must_not_run) == 1
        assert engine.stats.memo_hits == 1
        assert not list(tmp_path.iterdir())

    def test_source_digest_is_computed_once(self):
        from repro.engine.cache import source_digest

        digest = source_digest()
        assert digest is not None and len(digest) == 64
        assert source_digest() is digest  # once per process

    def test_failure_leaves_no_disk_entry(self, tmp_path):
        from repro.regalloc.allocator import InsufficientRegistersError

        engine = EvaluationEngine(disk_cache=str(tmp_path))

        def compute():
            raise InsufficientRegistersError("reg_limit=1")

        with pytest.raises(InsufficientRegistersError):
            engine.memo(("allocate", "fp", 1, 0), compute)
        assert not list(tmp_path.iterdir())

    def test_clear_disk_removes_memo_and_sim_entries(self, gau, tmp_path):
        engine = EvaluationEngine(disk_cache=str(tmp_path))
        engine.memo(("k",), lambda: 1)
        engine.simulate(gau.kernel, FERMI, 1, grid_blocks=4,
                        param_sizes=gau.param_sizes)
        assert list(tmp_path.glob("memo-*.pkl"))
        assert list(tmp_path.glob("sim-*.pkl"))
        engine.clear(disk=True)
        assert not list(tmp_path.iterdir())

    def test_checks_still_run_on_disk_memo_hits(self, gau, monkeypatch,
                                                tmp_path):
        """A verified optimize on a fresh engine over a warm directory
        reads the memo from disk, re-runs every check, and answers as
        the engine that wrote it did."""
        first = EvaluationEngine(disk_cache=str(tmp_path))
        second = EvaluationEngine(disk_cache=str(tmp_path))
        runs = self._verified_runs([first, second], gau, monkeypatch)
        assert second.stats.memo_disk_hits > 0
        assert second.stats.memo_misses == 0
        assert runs[1] == runs[0]


class TestDiskWrites:
    def test_concurrent_writers_of_one_key_use_own_temp_files(
        self, tmp_path, monkeypatch
    ):
        """Two threads storing one key at once: each writes its own
        temp file, so neither truncates the other's, and the entry
        decodes afterwards with no temp file left behind."""
        import os
        import threading

        from repro.engine import SimResultCache

        cache = SimResultCache(str(tmp_path))
        key = ("same-key",)
        temps, errors = [], []
        barrier = threading.Barrier(2, timeout=30)
        replace = os.replace

        def held_replace(src, dst):
            # Both writers are inside the write before either renames.
            temps.append(src)
            barrier.wait()
            replace(src, dst)

        def write(value):
            try:
                cache.put(key, value)
            except Exception as err:
                errors.append(err)

        threads = [
            threading.Thread(target=write, args=({"writer": n},))
            for n in (1, 2)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", held_replace)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(temps) == 2 and temps[0] != temps[1]
        fresh = SimResultCache(str(tmp_path))
        value, source = fresh.get(key)
        assert source == "disk" and value in ({"writer": 1}, {"writer": 2})
        assert fresh.corrupt_entries == 0
        assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"]


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
