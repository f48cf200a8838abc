"""Tests of the benchmark harness itself (run with ``python -m pytest bench/tests``).

They run workloads at the smallest scale the harness allows: one world
build and one unit, or the minimum units with no extra measuring time.
"""

from __future__ import annotations

import json
import re

import pytest

import compare
import run
from tracer import Span, Tracer, self_time, summarize


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="p90 needs 100 samples"):
        run.percentile([0.1] * 99, 90)
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        run.percentile([0.1] * 19, 50)
    assert run.percentile([1.0] * 20, 50) == 1.0


def test_self_time_subtracts_the_union_of_children():
    root = Span(0, None, "root", "t", 0.0, 10.0, 0)
    a = Span(1, 0, "a", "t", 1.0, 4.0, 0)
    b = Span(2, 0, "b", "t", 3.0, 6.0, 0)  # overlaps a: 1..6 is covered once
    grandchild = Span(3, 1, "c", "t", 1.5, 2.0, 0)
    assert self_time(root, [b, a]) == pytest.approx(5.0)
    assert self_time(a, [grandchild]) == pytest.approx(2.5)
    stats = summarize([root, a, b, grandchild])
    assert stats["root"]["self_s"] == pytest.approx(5.0)
    assert stats["a"]["self_s"] == pytest.approx(2.5)
    assert stats["c"]["self_s"] == pytest.approx(0.5)


def test_busy_time_counts_recursive_calls_once():
    outer = Span(0, None, "f", "t", 0.0, 4.0, 0)
    inner = Span(1, 0, "f", "t", 1.0, 2.0, 0)
    stats = summarize([outer, inner])
    assert stats["f"]["calls"] == 2
    assert stats["f"]["busy_s"] == pytest.approx(4.0)
    assert stats["f"]["self_s"] == pytest.approx(4.0)


def _originals():
    return {
        (layer.target, layer.attr): vars(layer.owner())[layer.attr]
        for layer in run.LAYERS
    }


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_restores_functions_and_reproduces_digests(name):
    workload = run.WORKLOADS[name]
    plain = run.measure(workload, 0, 0, setup_reps=1, min_units=1)
    before = _originals()
    tracer = Tracer()
    tracer.install(run.LAYERS)
    try:
        traced = run.measure(workload, 0, 0, tracer, setup_reps=1, min_units=1)
    finally:
        tracer.uninstall()
    assert _originals() == before
    assert [u.digest for u in traced.head] == [u.digest for u in plain.head]
    names = {s.name for s in tracer.spans}
    top = "serve.service.step" if workload.fleet else "core.system.run_cycle"
    assert top in names and "setup.core.committee.fit" in names


def _printed_metrics(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = [line.split()[0] for line in lines[:-1] if not line.startswith("#")]
    assert set(printed) == set(result["metrics"])
    return printed


def test_printed_metrics_are_exactly_the_benchmark_metrics(capsys):
    benchmark = run.load_benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        printed = _printed_metrics(
            capsys,
            ["--workload", "no-retrain", "--seed", "0", "--seconds", "0",
             "--trace", str(trace)],
        )
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in printed)
        assert printed == [spec["name"] for spec in benchmark[key]]


def test_normalised_times_follow_the_reference():
    # A cycle that takes twice as long next to a reference pass that also
    # takes twice as long reads the same.
    ref = run.REFERENCE_S
    assert run.normalised([0.1, 0.2, 0.2], [ref, 2 * ref, ref]) == pytest.approx(
        [0.1, 0.1, 0.2])
    with pytest.raises(ValueError):
        run.normalised([0.1, 0.2], [ref])
    # One fast pass among slow ones is outvoted by its neighbours.
    assert run.smoothed([2.0, 2.0, 1.0, 2.0, 3.0]) == [2.0, 2.0, 2.0, 2.0, 2.5]


def test_compare_flags_regressions_and_wide_spreads():
    spec = {"name": "cycle_p50_s", "better": "lower", "bound": 0.1}
    assert compare.verdict([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], spec) == "ok"
    assert compare.verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], spec).startswith("REGRESSION")
    assert compare.verdict([1.0, 2.0, 1.0, 2.0], [1.0, 1.0, 1.0], spec) == "unresolved"
    higher = {"name": "macro_f1", "better": "higher", "bound": 0.1}
    assert compare.verdict([10.0, 10.0], [8.0, 8.0], higher).startswith("REGRESSION")
