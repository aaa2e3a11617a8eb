"""Checks of the benchmark itself: span accounting, patching, repeatable counts.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
from pathlib import Path

import pytest

import bench
import run
import tracing


class Ticks:
    """A clock that advances by one on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_synthetic_nested_trace():
    tracer = tracing.Tracer(clock=Ticks())

    leaf = tracer.wrap(lambda: None, "leaf")

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap(mid_body, "mid")

    def root_body():
        mid()
        leaf()

    tracer.wrap(root_body, "root")()

    # readings: root 1, mid 2, leaf 3-4, leaf 5-6, mid end 7, leaf 8-9, root end 10
    assert [(s[2], s[1], s[3], s[4]) for s in tracer.spans] == [
        ("root", None, 1.0, 10.0),
        ("mid", 0, 2.0, 7.0),
        ("leaf", 1, 3.0, 4.0),
        ("leaf", 1, 5.0, 6.0),
        ("leaf", 0, 8.0, 9.0),
    ]
    rows = tracing.summarize(tracer.spans)
    assert rows["root"] == [1, 9.0, 9.0 - 5.0 - 1.0]
    assert rows["mid"] == [1, 5.0, 5.0 - 2.0]
    assert rows["leaf"] == [3, 3.0, 3.0]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert tracing.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert tracing.covered([], 0.0, 10.0) == 0.0


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(clock=Ticks())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans == [[0, None, "boom", 1.0, 2.0]]
    assert tracer.wrap(lambda: 3, "after")() == 3
    assert tracer.spans[1][1] is None


def test_patches_restore_functions_and_classmethods():
    class Owner:
        @classmethod
        def load(cls, x):
            return (cls, x)

        def method(self):
            return self

    raw_load = vars(Owner)["load"]
    raw_method = vars(Owner)["method"]
    tracer = tracing.Tracer()
    tracer.patch(Owner, "load", "owner.load")
    tracer.patch(Owner, "method", "owner.method")
    obj = Owner()
    assert Owner.load(5) == (Owner, 5)
    assert obj.method() is obj
    assert [s[2] for s in tracer.spans] == ["owner.load", "owner.method"]
    tracer.restore()
    assert vars(Owner)["load"] is raw_load
    assert vars(Owner)["method"] is raw_method


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", ["dnce-small", "score"])
def test_traced_counts_repeat_for_the_same_seed(workload):
    runs = [bench.run(workload, seed=3, seconds=1, trace=True) for _ in range(2)]
    for result in runs:
        assert result.correct, result.checks
        assert set(result.metrics) == set(bench.PER_LAYER)
    counts = [
        {k: v for k, (v, unit) in r.metrics.items() if unit == "count"} for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["features.extract_calls"] > 0
    assert counts[0]["neural.phi_forward_calls"] > 0
    if workload == "score":
        assert counts[0]["noise.sampled_tokens"] == 0
        assert counts[0]["container.bytes"] > 0
    else:
        assert counts[0]["noise.sampled_tokens"] > 0
        assert counts[0]["evaluation.utts_failed"] == 0
