"""Tests of the benchmark harness's own arithmetic and of its output format.

    python3 -m pytest bench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import mmray  # noqa: E402
from spans import Trace, duct_candidates, percentile, self_times, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_children_once():
    # parent [0, 100] > child [10, 60] > grandchild [20, 30]; sibling [60, 70]
    start = [0, 10, 20, 60]
    end = [100, 60, 30, 70]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [40, 40, 10, 10]


@pytest.mark.parametrize("builder, surfaces, expected", [
    # 4 walls, no two coplanar: 1 direct + 4 singles + 4*3 ordered pairs.
    (mmray.build_straight_tunnel, 4, 17),
    (mmray.build_plain_corridor, 4, 17),
    # 8 walls: 8*7 ordered pairs less the two coplanar floors and two
    # coplanar ceilings of the legs, in both orders: 1 + 8 + 52.
    (mmray.build_bent_tunnel, 8, 61),
])
def test_candidates_match_hand_count(builder, surfaces, expected):
    env = builder()
    assert len(env.surfaces) == surfaces
    assert duct_candidates(env, 2) == expected
    assert duct_candidates(env, 1) == 1 + surfaces
    assert duct_candidates(env, 0) == 1


def test_benchmark_names_follow_the_grammar():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    assert not METRIC_NAME.fullmatch("tracer calls")
    assert not METRIC_NAME.fullmatch("")


def test_trace_install_records_spans_and_uninstall_restores():
    original = mmray.channel.enumerate_paths
    trace = Trace()
    trace.install()
    try:
        assert mmray.channel.enumerate_paths is not original
        assert mmray.cli.enumerate_paths is mmray.channel.enumerate_paths
        env = mmray.build_straight_tunnel()
        trace.cells_per_path = 9
        trace.begin_pass()
        paths = mmray.channel.enumerate_paths(env, (0.0, 0.0, 2.0), (10.0, 0.0, 1.5))
        trace.end_pass()
    finally:
        trace.uninstall()
    assert mmray.channel.enumerate_paths is original
    assert mmray.enumerate_paths is original
    (summary,) = trace.pass_summaries()
    assert summary["tracer.enumerate_paths.calls"] == 1
    assert summary["tracer.paths"] == len(paths)
    assert summary["tracer.candidates"] == 17
    assert summary["channel.tap_cells"] == 9 * len(paths)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "pdp_queries",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(METRIC_NAME.fullmatch(name) for name in result["metrics"])
