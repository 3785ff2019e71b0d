"""The benchmark's own tests, at a tiny scale (a few small programs)."""

from __future__ import annotations

import json
import statistics

import pytest

import run
import workloads
from layers import PER_LAYER_UNITS
from spans import SpanRecorder, union_length

TINY = workloads.Sizing(
    specs=("linpack", "matrix500", "integral", "loops"),
    cube_instructions=80_000,
    cube_slots=(0, 1),
    cube_dblocks=(4, 8),
    service_instructions=60_000,
    service_rate=10.0,
    service_round=5,
)

#: The traced run must attribute all but this share of the timed run's
#: wall time to layer spans.
MAX_UNATTRIBUTED_SHARE_OF_RUN = 0.25


def _execute(name, tmp_path, trace, golden, seed=3):
    cache = tmp_path / f"cache-{int(trace)}"
    cache.mkdir()
    return workloads.execute(
        name, seed, 1.0, trace, cache, sizing=TINY, golden_path=golden
    )


def _record(name, tmp_path):
    """Golden digests of a tiny run, written where the checks look."""
    golden = tmp_path / "golden.json"
    record_dir = tmp_path / "record"
    record_dir.mkdir()
    result = _execute(name, record_dir, False, golden)
    golden.write_text(json.dumps({result["golden_key"]: result["digests"]}))
    return golden


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_emits_every_metric(name, tmp_path):
    golden = _record(name, tmp_path) if name == "cube-warm" else tmp_path / "none"
    plain = _execute(name, tmp_path, False, golden)
    traced = _execute(name, tmp_path, True, golden)
    for result in (plain, traced):
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
    metrics = run.end_to_end(plain)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values()), metrics
    assert set(traced["layers"]) | {"tracing_overhead_s"} == set(PER_LAYER_UNITS)
    unattributed = traced["layers"]["unattributed_s"]
    assert unattributed <= MAX_UNATTRIBUTED_SHARE_OF_RUN * traced["run_s"], (
        unattributed, traced["run_s"]
    )


def test_golden_check_fails_on_perturbed_artifact(tmp_path):
    golden = _record("cube-warm", tmp_path)
    stored = json.loads(golden.read_text())
    (key, digests), = stored.items()
    digests["icube.slots1"] = "0" * 64
    golden.write_text(json.dumps({key: digests}))
    result = _execute("cube-warm", tmp_path, False, golden)
    assert result["failed"] == 1
    assert any(failure.startswith("icube.slots1:") for failure in result["failures"])


def test_missing_golden_is_a_failure():
    assert workloads.compare_digests({"a": "1"}, None)
    assert workloads.compare_digests({"a": "1"}, {"a": "1", "b": "2"})
    assert not workloads.compare_digests({"a": "1"}, {"a": "1"})


def test_service_plan_is_seeded_with_exact_mix():
    hot, sequence = workloads.service_plan(5, 2, 10)
    again = workloads.service_plan(5, 2, 10)
    assert (hot, sequence) == again
    assert workloads.service_plan(6, 2, 10) != again
    for start in (0, 10):
        kinds = [kind for kind, _ in sequence[start : start + 10]]
        assert kinds.count("repeat") == round(10 * workloads.REPEAT_SHARE)


def test_self_time_subtracts_child_coverage():
    recorder = SpanRecorder()
    outer = recorder.open("a")
    inner = recorder.open("b")
    recorder.close(inner)
    recorder.close(outer)
    outer.start, outer.end, inner.start, inner.end = 0.0, 10.0, 2.0, 5.0
    assert outer.self_time == pytest.approx(7.0)
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    tail = run.tail_latency(samples)
    assert tail["value"] == 90 and tail["percentile"] == 90.0
    assert sum(1 for s in samples if s > tail["value"]) == 10
    assert run.tail_latency([3.0, 1.0])["value"] == 3.0
    assert statistics.median(samples) == 50.5
