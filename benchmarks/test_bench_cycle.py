"""BENCH_cycle: per-stage wall time of the closed loop + memo A/B.

Runs :func:`repro.eval.bench.run_bench` on the seeded deployment and saves
the JSON artifact CI archives (``benchmarks/results/BENCH_cycle.json``).
Wall-clock numbers are machine-dependent, so assertions cover structure
and the memos' ordering guarantees only: every closed-loop stage shows up
in the span table, the loop serves holdout scores from the guard's memo
and BoVW features from its store, and memoized holdout scoring is never
slower than scoring from scratch (a hit skips every expert's forward
pass, so even noisy CI machines clear this by orders of magnitude).
"""

from __future__ import annotations

from conftest import BENCH_SEED, RESULTS_DIR, is_fast
from repro.eval.bench import run_bench, write_bench

#: Stages every cycle must pass through (subset of the span table).
EXPECTED_STAGES = ("cycle", "cycle.committee", "cycle.qss", "cycle.cqc")


def test_bench_cycle_artifact():
    report = run_bench(seed=BENCH_SEED, fast=is_fast(), repeats=3)
    path = write_bench(report, RESULTS_DIR / "BENCH_cycle.json")
    print(f"\nwrote {path}")

    loop = report["loop"]
    assert loop["cycles"] > 0
    for stage in EXPECTED_STAGES:
        assert stage in loop["stages"], sorted(loop["stages"])
        assert loop["stages"][stage]["count"] == loop["cycles"]

    # The loop must actually exercise both memos...
    assert loop["cache"]["prediction_hits"] > 0, loop["cache"]
    assert loop["cache"]["feature_hits"] > 0, loop["cache"]

    # ...and serving memoized holdout scores must never lose to rescoring.
    score = report["holdout_score"]
    assert score["cached_best_seconds"] <= score["uncached_best_seconds"], score
    assert score["memo"]["hits"] >= score["repeats"], score["memo"]
