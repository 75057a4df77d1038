"""Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``."""

import collections
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import inputs
import run
import spans

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)

UNIVERSE = inputs.hits_universe(inputs.SENSITIVE + inputs.INSENSITIVE)
MISS_APPS = {
    "BLK": {"grid": 16, "max_tlp": 7},
    "FDTD": {"grid": 16, "max_tlp": 1},
    "GAU": {"grid": 16, "max_tlp": 8},
    "KMN": {"grid": 12, "max_tlp": 4},
}


# ----------------------------------------------------------------------
# The generator is deterministic for a given seed.
# ----------------------------------------------------------------------
def test_generator_is_deterministic_per_seed():
    assert inputs.hits_plan(7, UNIVERSE) == inputs.hits_plan(7, UNIVERSE)
    assert inputs.misses_plan(7, MISS_APPS) == inputs.misses_plan(7, MISS_APPS)
    assert inputs.suite_cold_apps(7) == inputs.suite_cold_apps(7)
    assert inputs.hits_plan(7, UNIVERSE) != inputs.hits_plan(8, UNIVERSE)
    assert inputs.misses_plan(7, MISS_APPS) != inputs.misses_plan(9, MISS_APPS)


def test_hits_stream_is_a_fixed_zipf_multiset_in_seeded_order():
    assert len(UNIVERSE) == 22 * 2 * 2 * 2
    streams = [inputs.hits_plan(seed, UNIVERSE) for seed in range(5)]
    assert len({tuple(sorted(s)) for s in streams}) == 1
    assert len({tuple(s) for s in streams}) == 5
    counts = collections.Counter(streams[0])
    assert set(counts) == set(UNIVERSE)
    assert sorted(counts.values(), reverse=True)[:3] == [6, 3, 2]


def test_misses_points_are_fixed_and_tlp_one_comes_first():
    points = inputs.misses_plan(3, MISS_APPS)
    assert len(points) == len(set(points)) == 3 + 1 + 3 + 3
    assert sorted(points) == sorted(inputs.misses_plan(4, MISS_APPS))
    for app, info in MISS_APPS.items():
        tlps = [tlp for a, tlp, _ in points if a == app]
        assert tlps == sorted({1, (info["max_tlp"] + 1) // 2, info["max_tlp"]})
        grids = {grid for a, _, grid in points if a == app}
        assert grids == {inputs.miss_grid(app, info["grid"])}
    assert inputs.miss_grid("BLK", 16) == 8
    assert inputs.miss_grid("GAU", 16) == 16


# ----------------------------------------------------------------------
# Self-time arithmetic on a synthetic span tree.
# ----------------------------------------------------------------------
def test_self_time_subtracts_covered_child_intervals():
    tree = [
        ("service.execute", 0.0, 10.0, -1, "r1"),   # 0: root
        ("regalloc.allocate", 1.0, 4.0, 0, "r1"),   # 1: child
        ("regalloc.knapsack", 2.0, 3.0, 1, "r1"),   # 2: grandchild
        ("sim.scalar", 3.5, 6.0, 0, "r1"),          # 3: overlaps child 1
        ("sim.scalar", 9.0, 12.0, 0, "r1"),         # 4: runs past the root
        ("ptx.parse", 20.0, 21.5, -1, "r2"),        # 5: another root
    ]
    # Root: children cover [1, 6] and [9, 10] -> 6 of 10 s.
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.5])
    metrics = spans.layer_metrics([{"spans": tree, "counters": {
        "regalloc.spilled_values": 3}}])
    assert metrics["service.execute_s"] == pytest.approx(4.0)
    assert metrics["sim.scalar_s"] == pytest.approx(5.5)
    assert metrics["sim.scalar_calls"] == 2
    assert metrics["regalloc.spilled_values"] == 3
    assert metrics["sim.trace_calls"] == 0


def test_recorder_nests_spans_and_tags_requests():
    recorder = spans.Recorder()
    recorder.request_id = "app"
    recorder.call("service.execute", lambda: recorder.call(
        "sim.scalar", lambda: 1, (), {}), (), {})
    (outer, inner) = recorder.spans
    assert inner[3] == 0 and outer[3] == -1
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert {outer[4], inner[4]} == {"app"}


def test_request_windows_pair_prepare_and_execute():
    windows = spans.request_windows([
        ("service.prepare", 1.0, 1.5, -1, "c0-0"),
        ("service.execute", 2.0, 4.0, -1, "c0-0"),
        ("service.prepare", 5.0, 5.1, -1, "c1-0"),
    ])
    assert windows == {"c0-0": (1.0, 1.5, 2.0, 4.0)}


# ----------------------------------------------------------------------
# The checker rejects a perturbed winner.
# ----------------------------------------------------------------------
def test_checker_rejects_a_perturbed_winner():
    expected = inputs.load_expected("suite-cold")["apps"]
    got = copy.deepcopy({app: expected[app] for app in inputs.SUITE_COLD_APPS})
    assert checks.suite_mismatches(got, expected) == []
    reg, tlp, cycles = got["CFD"]["crat"]
    got["CFD"]["crat"] = [reg, tlp + 1, cycles]
    assert checks.suite_mismatches(got, expected) == ["CFD"]
    got["CFD"]["crat"] = [reg, tlp, cycles]
    got["HST"]["crat_local"][2] += 1.0
    assert checks.suite_mismatches(got, expected) == ["HST"]


def test_reply_digest_ignores_key_order_but_not_the_winner():
    reply = {"chosen": {"reg": 44, "tlp": 5}, "opt_tlp": 6}
    same = {"opt_tlp": 6, "chosen": {"tlp": 5, "reg": 44}}
    assert checks.digest(reply) == checks.digest(same)
    assert checks.digest(reply) != checks.digest(
        {"chosen": {"reg": 44, "tlp": 4}, "opt_tlp": 6})


def test_expected_files_agree_with_the_paper_figures():
    suite = inputs.load_expected("suite-cold")
    assert set(suite["apps"]) == set(inputs.SENSITIVE)
    assert round(suite["crat_speedup_geomean"], 3) == 1.227
    assert suite["apps"]["FDTD"]["crat"][1] == 1
    assert suite["apps"]["ESP"]["crat"][1] == 6


# ----------------------------------------------------------------------
# latency_ms_p90 is withheld with fewer than ten samples beyond it.
# ----------------------------------------------------------------------
def test_p90_is_withheld_below_ten_samples_beyond():
    value, beyond = checks.p90([float(i) for i in range(50)])
    assert value is None and beyond == 5
    value, beyond = checks.p90([float(i) for i in range(200)])
    assert beyond == 20 and value == pytest.approx(179.1)
    assert checks.p90([1.0]) == (None, 0)


# ----------------------------------------------------------------------
# BENCHMARK.json matches what run.py prints.
# ----------------------------------------------------------------------
def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(
        run.END_TO_END.values())
    layers = run.load_layers()
    assert bench["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        for m in layers
    ]
    span_names = {name for pair in spans.SPAN_METRICS.values()
                  for name in pair if name}
    assert span_names | set(spans.COUNTERS) <= {m["name"] for m in layers}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_py_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", ".runs",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
