"""Benchmark harness for the closed loop (``repro bench``).

Times one full CrowdLearn deployment with telemetry spans enabled and
aggregates per-stage wall time, micro-benchmarks the guard's holdout
scoring with and without its score memo, A/Bs the retrain stage cold vs
warm-start, and measures the write-ahead journal's overhead over repeated
journaled runs.  Results are written to ``BENCH_cycle.json`` so CI can
archive them and assert the memo never makes holdout scoring slower than
scoring from scratch.

Wall-clock numbers are machine-dependent; everything else in the report
(cycle counts, memo hit/miss totals, speedup *direction*) is
deterministic given the seed.  Timings use best-of-``repeats`` (the
journal overhead, the median of ``repeats`` runs) so a single scheduler
hiccup cannot fail the CI check.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Any

from repro.telemetry.runtime import Telemetry, use_telemetry
from repro.telemetry.tracing import aggregate_spans

__all__ = ["run_bench", "write_bench", "render_bench", "DEFAULT_OUTPUT"]

#: Default artifact path, relative to the working directory.
DEFAULT_OUTPUT = Path("benchmarks/results/BENCH_cycle.json")

def _stage_table(spans) -> dict[str, dict[str, float]]:
    """Per-stage wall-time aggregates, insertion-ordered by first finish."""
    return {
        name: {
            "count": stats.count,
            "total_seconds": stats.total_seconds,
            "mean_seconds": stats.mean_seconds,
            "min_seconds": stats.min_seconds,
            "max_seconds": stats.max_seconds,
        }
        for name, stats in aggregate_spans(spans).items()
    }


def _best_of(repeats: int, fn) -> float:
    """Best (minimum) wall seconds of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _holdout_benchmark(setup, repeats: int) -> dict[str, Any]:
    """Time ``ModelGuard.holdout_accuracy`` over a committee, with and
    without the guard's score memo.

    Both arms score every expert of a cloned committee on one golden
    holdout slice.  The uncached arm scores through a fresh guard per
    pass (an empty memo: every call runs the expert); the cached arm warms
    one guard with one pass, then times pure memo hits — what the loop's
    quarantine and incumbent scoring of an unchanged expert cost.
    """
    from repro.core.guards import GuardPolicy, ModelGuard

    committee = setup.clone_committee()
    policy = GuardPolicy()
    guard = ModelGuard.build(
        policy, setup.train_set, committee.n_experts,
        setup.seeds.get("bench-holdout"),
    )

    def score_all(scorer: ModelGuard) -> None:
        for expert in committee.experts:
            scorer.holdout_accuracy(expert)

    uncached = _best_of(repeats, lambda: score_all(
        ModelGuard(policy, guard.holdout, committee.n_experts)
    ))
    score_all(guard)  # warm: one scoring per expert
    cached = _best_of(repeats, lambda: score_all(guard))

    return {
        "holdout_size": len(guard.holdout),
        "experts": committee.n_experts,
        "repeats": repeats,
        "uncached_best_seconds": uncached,
        "cached_best_seconds": cached,
        "speedup": uncached / cached if cached > 0 else float("inf"),
        "memo": guard.score_stats.as_dict(),
    }


def _scheduler_benchmark(setup) -> dict[str, Any]:
    """Run the loop with the virtual-time scheduler off and on.

    Both arms share the same platform seed and sensing stream, so the
    delta is the scheduler itself: its wall-time overhead and the
    time-domain effects (late responses, harvested stragglers, realized
    vs idealized crowd delay) it introduces.
    """
    import dataclasses

    from repro.eval.runner import build_crowdlearn

    off_system = build_crowdlearn(setup, platform_name="bench-sched")
    started = time.perf_counter()
    off_outcome = off_system.run(setup.make_stream("bench-sched"))
    off_wall = time.perf_counter() - started

    config = dataclasses.replace(setup.config, scheduler_enabled=True)
    telemetry = Telemetry()
    on_system = build_crowdlearn(
        setup, config=config, platform_name="bench-sched", telemetry=telemetry
    )
    started = time.perf_counter()
    with use_telemetry(telemetry):
        on_outcome = on_system.run(setup.make_stream("bench-sched"))
    on_wall = time.perf_counter() - started

    totals = on_outcome.resilience_totals()
    return {
        "off_wall_seconds": off_wall,
        "on_wall_seconds": on_wall,
        "off_mean_crowd_delay": off_outcome.mean_crowd_delay(),
        "on_mean_crowd_delay": on_outcome.mean_crowd_delay(),
        "late_responses": telemetry.registry.value(
            "platform_late_responses_total"
        ),
        "stragglers_harvested": totals.stragglers_harvested,
        "late_queries": totals.late_queries,
        "late_spent_cents": totals.late_spent_cents,
        "pending_at_end": on_system.scheduler.pending_count,
        "virtual_seconds": on_system.scheduler.now,
    }


def _retrain_benchmark(setup) -> dict[str, Any]:
    """A/B the retrain hot path: cold refits vs warm-start fine-tuning.

    Both arms share the same platform seed and sensing stream (named RNG
    streams are reproducible per name), so the delta is the retrain
    strategy: the cold arm refits on ``crowd batch + golden replay`` with
    full per-expert epoch schedules, the warm arm fine-tunes incumbent
    weights for ``mic_warm_epochs`` on ``crowd batch + crowd ReplayBuffer
    sample`` (periodic full refits included).  CI gates the retrain-stage
    speedup; macro-F1 is reported per arm so accuracy regressions are
    visible in the artifact.
    """
    import dataclasses

    from repro.eval.runner import build_crowdlearn
    from repro.metrics import macro_f1

    def run_arm(config) -> tuple[dict[str, Any], Any]:
        telemetry = Telemetry()
        system = build_crowdlearn(
            setup,
            config=config,
            platform_name="bench-retrain",
            telemetry=telemetry,
        )
        started = time.perf_counter()
        with use_telemetry(telemetry):
            outcome = system.run(setup.make_stream("bench-retrain"))
        wall = time.perf_counter() - started
        stages = _stage_table(telemetry.tracer.spans)
        retrain = stages.get("cycle.mic.retrain", {}).get("total_seconds", 0.0)
        fit = stages.get("cycle.mic.retrain.fit", {}).get("total_seconds", 0.0)
        y_true, y_pred = outcome.y_true(), outcome.y_pred()
        return {
            "wall_seconds": wall,
            "retrain_seconds": retrain,
            "fit_seconds": fit,
            # Constant across arms: snapshot pushes + holdout scoring of
            # incumbent and candidate (the safety tax of guarded retrains).
            "guard_seconds": max(retrain - fit, 0.0),
            "macro_f1": float(macro_f1(y_true, y_pred)) if len(y_true) else 0.0,
        }, system

    cold, _ = run_arm(setup.config)
    warm, warm_system = run_arm(
        dataclasses.replace(setup.config, mic_warm_start=True)
    )

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else float("inf")

    return {
        "cold": cold,
        "warm": warm,
        # The gated number: how much faster the experts are *refit* — the
        # work warm-start actually attacks.  The whole-stage and
        # whole-cycle ratios include the per-retrain guard tax (snapshots +
        # holdout gating), which is identical in both arms and reported per
        # arm as guard_seconds.
        "fit_speedup": ratio(cold["fit_seconds"], warm["fit_seconds"]),
        "retrain_speedup": ratio(
            cold["retrain_seconds"], warm["retrain_seconds"]
        ),
        "cycle_speedup": ratio(cold["wall_seconds"], warm["wall_seconds"]),
        "warm_stats": warm_system.mic.retrain_stats(),
    }


def _journal_benchmark(setup, repeats: int) -> dict[str, Any]:
    """Run the loop ``repeats`` times with the write-ahead journal and
    checkpoints on.

    A run's overhead is the time spent inside journal appends (canonical
    serialization + write + fsync, plus rotation) as a fraction of its
    wall time — the price of crash tolerance.  ``overhead_fraction`` is
    the median over the runs; CI gates on it staying under 5% of cycle
    wall time.
    """
    import tempfile

    from repro.eval.journal import CycleJournal
    from repro.eval.runner import build_crowdlearn

    runs = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
            tmp_path = Path(tmp)
            system = build_crowdlearn(setup, platform_name="bench-journal")
            journal = CycleJournal.create(tmp_path / "bench.journal")
            started = time.perf_counter()
            try:
                system.run(
                    setup.make_stream("bench-journal"),
                    checkpoint_path=tmp_path / "bench.ckpt",
                    journal=journal,
                )
            finally:
                journal.close()
            wall = time.perf_counter() - started
        runs.append({
            "wall_seconds": wall,
            "journal_write_seconds": journal.write_seconds,
            "records_written": journal.records_written,
            "overhead_fraction": (
                journal.write_seconds / wall if wall > 0 else 0.0
            ),
        })
    return {
        "runs": runs,
        "records_written": runs[0]["records_written"],
        "overhead_fraction": statistics.median(
            run["overhead_fraction"] for run in runs
        ),
    }


def run_bench(
    seed: int = 0, fast: bool = True, repeats: int = 3,
    scheduler: bool = False,
) -> dict[str, Any]:
    """Benchmark one deployment; returns a JSON-safe report.

    The report has five sections: ``loop`` (a full instrumented run with
    per-stage span aggregates and end-of-run memo counters),
    ``holdout_score`` (holdout scoring with vs without the guard's score
    memo), ``retrain`` (the warm-start vs cold retrain A/B), ``journal``
    (the write-ahead journal's overhead over ``repeats`` runs) and
    ``meta`` (seed, scale, interpreter — enough to compare artifacts
    across CI runs).  With
    ``scheduler`` set, a sixth section A/Bs the loop with the virtual-time
    scheduler off vs on.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    from repro.eval.runner import build_crowdlearn, prepare
    from repro.metrics import macro_f1

    setup = prepare(seed=seed, fast=fast)

    telemetry = Telemetry()
    system = build_crowdlearn(setup, platform_name="bench", telemetry=telemetry)
    started = time.perf_counter()
    with use_telemetry(telemetry):
        outcome = system.run(setup.make_stream("bench"))
    wall_seconds = time.perf_counter() - started

    y_true, y_pred = outcome.y_true(), outcome.y_pred()
    report = {
        "meta": {
            "seed": seed,
            "fast": fast,
            "scheduler": scheduler,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "loop": {
            "cycles": len(outcome.cycles),
            "wall_seconds": wall_seconds,
            "macro_f1": float(macro_f1(y_true, y_pred)) if len(y_true) else 0.0,
            "stages": _stage_table(telemetry.tracer.spans),
            "cache": system.cache.stats(),
        },
        "holdout_score": _holdout_benchmark(setup, repeats),
        "retrain": _retrain_benchmark(setup),
        "journal": _journal_benchmark(setup, repeats),
    }
    if scheduler:
        report["scheduler"] = _scheduler_benchmark(setup)
    return report


def write_bench(report: dict[str, Any], path: Path | str = DEFAULT_OUTPUT) -> Path:
    """Write the report as pretty-printed JSON, creating parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def render_bench(report: dict[str, Any]) -> str:
    """Human-readable summary of a :func:`run_bench` report."""
    loop = report["loop"]
    score = report["holdout_score"]
    lines = [
        f"closed loop: {loop['cycles']} cycles in {loop['wall_seconds']:.2f}s "
        f"(macro-F1 {loop['macro_f1']:.3f})",
        "",
        f"{'stage':<28}{'count':>6}{'total s':>10}{'mean ms':>10}",
    ]
    for name, stats in sorted(
        loop["stages"].items(), key=lambda kv: -kv[1]["total_seconds"]
    ):
        lines.append(
            f"{name:<28}{stats['count']:>6}"
            f"{stats['total_seconds']:>10.3f}"
            f"{stats['mean_seconds'] * 1e3:>10.2f}"
        )
    cache = loop.get("cache", {})
    if cache:
        lines += [
            "",
            "memos: "
            f"{cache.get('prediction_hits', 0)} holdout-score hits / "
            f"{cache.get('prediction_misses', 0)} misses, "
            f"{cache.get('prediction_invalidations', 0)} invalidations; "
            f"{cache.get('feature_hits', 0)} feature hits / "
            f"{cache.get('feature_misses', 0)} misses",
        ]
    lines += [
        "",
        f"holdout scoring ({score['experts']} experts x "
        f"{score['holdout_size']} images, best of {score['repeats']}): "
        f"no memo {score['uncached_best_seconds'] * 1e3:.2f}ms, "
        f"memo {score['cached_best_seconds'] * 1e3:.2f}ms "
        f"({score['speedup']:.0f}x)",
    ]
    ab = report.get("retrain")
    if ab:
        stats = ab.get("warm_stats", {})
        lines += [
            "",
            "retrain A/B: "
            f"expert refit cold {ab['cold']['fit_seconds']:.2f}s -> "
            f"warm {ab['warm']['fit_seconds']:.2f}s "
            f"({ab['fit_speedup']:.1f}x); "
            f"whole stage {ab['cold']['retrain_seconds']:.2f}s -> "
            f"{ab['warm']['retrain_seconds']:.2f}s "
            f"({ab['retrain_speedup']:.1f}x, incl. "
            f"{ab['warm']['guard_seconds']:.2f}s guard tax), "
            f"{ab['cycle_speedup']:.1f}x full cycle; "
            f"{stats.get('warm_retrains', 0)} warm / "
            f"{stats.get('full_refits', 0)} full refits; "
            f"macro-F1 {ab['cold']['macro_f1']:.3f} -> "
            f"{ab['warm']['macro_f1']:.3f}",
        ]
    jrn = report.get("journal")
    if jrn:
        lines += [
            "",
            "journal: "
            f"{jrn['records_written']} records a run (each fsynced); "
            f"median overhead {jrn['overhead_fraction'] * 100:.2f}% of "
            f"wall time over {len(jrn['runs'])} journaled runs ("
            + ", ".join(
                f"{run['overhead_fraction'] * 100:.2f}%" for run in jrn["runs"]
            )
            + ")",
        ]
    sched = report.get("scheduler")
    if sched:
        lines += [
            "",
            "scheduler A/B: "
            f"off {sched['off_wall_seconds']:.2f}s / "
            f"on {sched['on_wall_seconds']:.2f}s; "
            f"{sched['late_responses']:.0f} late responses, "
            f"{sched['stragglers_harvested']} harvested, "
            f"{sched['late_queries']} all-late queries "
            f"({sched['late_spent_cents'] / 100:.2f} USD sunk), "
            f"{sched['pending_at_end']} still in flight; "
            f"crowd delay {sched['off_mean_crowd_delay']:.1f}s -> "
            f"{sched['on_mean_crowd_delay']:.1f}s realized",
        ]
    return "\n".join(lines)
