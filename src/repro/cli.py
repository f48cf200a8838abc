"""Command-line interface for the CrowdLearn reproduction.

Exposes the library's main entry points without writing any Python:

    python -m repro run        # run the closed loop, print the scores
    python -m repro pilot      # regenerate Figures 5 & 6
    python -m repro table1     # regenerate Table I
    python -m repro table2     # regenerate Table II + Figure 7 + Table III
    python -m repro fig8       # regenerate Figure 8
    python -m repro fig9       # regenerate Figure 9
    python -m repro budget     # regenerate Figures 10 & 11
    python -m repro chaos      # degradation curves under injected faults
    python -m repro supervise  # watchdog: restart crashed/hung runs
    python -m repro diagnose   # per-archetype failure report of each expert
    python -m repro trace      # telemetry: per-stage wall-time/cost breakdown
    python -m repro bench      # time cycle stages, write BENCH_cycle.json
    python -m repro serve      # concurrent deployments over one shared crowd
    python -m repro loadgen    # surge-replay bench, write BENCH_serve.json

All commands run the miniature (fast) deployment by default; pass ``--full``
for the paper-scale configuration, ``--seed`` for a different world.

Exit codes (shared across the run/serve/loadgen family):

=====  ==================================================================
code   meaning
=====  ==================================================================
0      success
1      a ``--check`` gate failed (books, drain, contention, parity, p99)
2      usage error (bad flag value or combination)
3      integrity failure (corrupt checkpoint or journal)
4      pool conservation violated after a serve drain
5      serve completed, but one or more events ended **quarantined**
       (the bulkhead/breaker parked them; healthy events drained)
75     an injected crash (``--crash-at ...:raise``) escaped the loop
137    the process was SIGKILLed (``--crash-at-tick`` / ``...:kill``
       drills; the supervisor or CI is expected to ``--resume``)
=====  ==================================================================
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.utils.validation import check_integer

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer >= ``minimum``, else exit 2."""

    def parse(text: str) -> int:
        try:
            return check_integer(int(text), minimum=minimum)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}"
            ) from None

    return parse


def _prepare(args):
    from repro.eval.runner import prepare

    started = time.time()
    print(
        f"preparing {'paper-scale' if args.full else 'fast'} world "
        f"(seed={args.seed})...",
        file=sys.stderr,
    )
    setup = prepare(seed=args.seed, fast=not args.full)
    print(f"ready in {time.time() - started:.1f}s", file=sys.stderr)
    return setup


def _print_run_report(system, outcome) -> None:
    from repro.eval.runner import scheme_result_from_run
    from repro.metrics import classification_report

    result = scheme_result_from_run("CrowdLearn", outcome)
    report = classification_report(result.y_true, result.y_pred)
    print(f"CrowdLearn: {report}")
    delay = result.mean_crowd_delay()
    print(
        f"crowd delay {0.0 if delay is None else delay:.1f}s, "
        f"spend {result.cost_cents / 100:.2f} USD "
        f"(budget {system.ledger.total / 100:.2f} USD)"
    )
    trace = outcome.accuracy_trace()
    print(
        "per-cycle accuracy: first quarter "
        f"{trace[: max(len(trace) // 4, 1)].mean():.3f}, last quarter "
        f"{trace[-max(len(trace) // 4, 1):].mean():.3f}"
    )
    if system.scheduler is not None:
        totals = outcome.resilience_totals()
        print(
            "scheduler: "
            f"{totals.late_queries} all-late queries "
            f"({totals.late_spent_cents / 100:.2f} USD sunk), "
            f"{totals.stragglers_harvested} stragglers harvested, "
            f"{system.scheduler.pending_count} still in flight "
            f"at t={system.scheduler.now:.0f}s"
        )
    if system.mic.warm_start:
        stats = system.mic.retrain_stats()
        print(
            "warm-start: "
            f"{stats['warm_retrains']} warm retrains / "
            f"{stats['full_refits']} full refits, "
            f"{stats['replay_buffered']} crowd labels buffered"
        )


def _crash_specs(args) -> list[str]:
    """Crash-point specs from ``--crash-at`` or ``REPRO_CRASH_AT``."""
    import os

    specs = list(args.crash_at or [])
    if not specs and args.journal:
        env = os.environ.get("REPRO_CRASH_AT", "").strip()
        if env:
            specs = [s.strip() for s in env.split(",") if s.strip()]
    return specs


def cmd_run(args) -> int:
    """``repro run``, optionally with a checkpoint, or a checkpoint and a
    write-ahead journal; without either it is one plain ``system.run``."""
    import dataclasses
    import os
    from pathlib import Path

    from repro.crowd.faults import (
        CrashPoint,
        FaultInjector,
        FaultPlan,
        InjectedCrash,
    )
    from repro.eval.journal import CycleJournal, heartbeat_writer, resume_run
    from repro.eval.persistence import run_outcome_digest
    from repro.utils.rng import SeedSequencer

    specs = _crash_specs(args)
    if args.resume and not args.journal or args.journal and not args.checkpoint:
        print("--resume requires --journal, and --journal requires --checkpoint", file=sys.stderr)
        return 2
    if args.crash_at and not args.journal:
        print(
            "--crash-at requires --journal "
            "(crash points fire at journal stage boundaries)",
            file=sys.stderr,
        )
        return 2
    on_record = None
    heartbeat = os.environ.get("REPRO_HEARTBEAT", "").strip()
    if heartbeat:
        on_record = heartbeat_writer(heartbeat)

    def build_fresh():
        from repro.eval.runner import build_crowdlearn

        setup = _prepare(args)
        overrides = {}
        if args.scheduler:
            overrides["scheduler_enabled"] = True
        if args.warm_start:
            overrides["mic_warm_start"] = True
        if args.cycles is not None:
            overrides["n_cycles"] = args.cycles
        if overrides:
            setup.config = dataclasses.replace(setup.config, **overrides)
        system = build_crowdlearn(setup, config=setup.config)
        if specs:
            plan = FaultPlan(
                crash_points=tuple(CrashPoint.parse(s) for s in specs)
            )
            system.platform.faults = FaultInjector(
                plan, SeedSequencer(args.seed).get("faults")
            )
        return system, setup.make_stream("cli-run")

    audit = {}
    try:
        if args.resume:
            recovery = resume_run(
                args.checkpoint,
                args.journal,
                fresh=build_fresh,
                on_record=on_record,
            )
            system, outcome, info = (
                recovery.system, recovery.outcome, recovery.info,
            )
            audit = info.get("audit", {})
            print(
                f"recovery: resumed at cycle {info['resumed_at_cycle']}, "
                f"replayed {info['replayed_records']} journal records, "
                f"served {info['requeries_avoided_cents'] / 100:.2f} USD "
                "of posts from the journal; audit "
                f"{'passed' if audit.get('ok') else 'FAILED'}",
                file=sys.stderr,
            )
        else:
            system, stream = build_fresh()
            journal = None
            if args.journal:
                journal = CycleJournal.create(
                    args.journal,
                    crash_injector=system.platform.faults,
                    on_record=on_record,
                )
            try:
                outcome = system.run(
                    stream, checkpoint_path=args.checkpoint, journal=journal
                )
            finally:
                if journal is not None:
                    journal.close()
    except InjectedCrash as exc:
        print(f"injected crash: {exc}", file=sys.stderr)
        return 75
    digest = run_outcome_digest(outcome)
    if args.digest_file:
        Path(args.digest_file).write_text(digest + "\n")
    _print_run_report(system, outcome)
    print(f"run digest {digest}")
    if args.resume and not audit.get("ok", True):
        print("post-recovery invariant audit FAILED", file=sys.stderr)
        return 4
    return 0


def cmd_supervise(args) -> int:
    from repro.eval.supervisor import (
        SupervisorConfig,
        render_recovery_table,
        supervise,
    )

    argv = [
        sys.executable, "-m", "repro", "run",
        "--seed", str(args.seed),
        "--checkpoint", args.checkpoint,
        "--journal", args.journal,
    ]
    if args.full:
        argv.append("--full")
    if args.scheduler:
        argv.append("--scheduler")
    if args.cycles is not None:
        argv += ["--cycles", str(args.cycles)]
    if args.digest_file:
        argv += ["--digest-file", args.digest_file]
    heartbeat = args.heartbeat or f"{args.journal}.heartbeat"
    try:
        config = SupervisorConfig(
            watchdog_seconds=args.watchdog,
            max_restarts=args.max_restarts,
            backoff_base_seconds=args.backoff,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    first_env = None
    if args.crash_at:
        first_env = {"REPRO_CRASH_AT": ",".join(args.crash_at)}
    outcome = supervise(
        argv,
        heartbeat,
        config=config,
        journal_path=args.journal,
        first_launch_env=first_env,
    )
    print(render_recovery_table(args.journal, outcome))
    if outcome.gave_up:
        print(
            f"supervisor gave up after {config.max_restarts} restarts",
            file=sys.stderr,
        )
    return outcome.returncode


def cmd_pilot(args) -> int:
    from repro.eval.experiments import run_fig5, run_fig6

    setup = _prepare(args)
    print(run_fig5(setup).render())
    print()
    print(run_fig6(setup).render())
    return 0


def cmd_table1(args) -> int:
    from repro.eval.experiments import run_table1

    setup = _prepare(args)
    print(run_table1(setup).render())
    return 0


def cmd_table2(args) -> int:
    from repro.eval.experiments import run_table2_suite

    setup = _prepare(args)
    suite = run_table2_suite(setup)
    print(suite.table2.render())
    print()
    print(suite.fig7.render())
    print()
    print(suite.table3.render())
    return 0


def cmd_fig8(args) -> int:
    from repro.eval.experiments import run_fig8

    setup = _prepare(args)
    print(run_fig8(setup).render())
    return 0


def cmd_fig9(args) -> int:
    from repro.eval.experiments import run_fig9

    setup = _prepare(args)
    print(run_fig9(setup).render())
    return 0


def cmd_budget(args) -> int:
    from repro.eval.experiments import run_budget_sweep

    setup = _prepare(args)
    sweep = run_budget_sweep(setup)
    print(sweep.render_fig10())
    print()
    print(sweep.render_fig11())
    return 0


def cmd_chaos(args) -> int:
    # Each chaos mode reads only its own flags; any other is a usage error.
    if args.crash:
        mode, used = "--crash", {"--cycles", "--crash-at"}
    elif args.workers is not None:
        mode, used = "--workers", {"--workers"}
    else:
        mode, used = "the serial sweep", {"--scheduler"}
    given = {
        "--cycles": args.cycles is not None,
        "--crash-at": bool(args.crash_at),
        "--workers": args.workers is not None,
        "--scheduler": args.scheduler,
    }
    ignored = [flag for flag, on in given.items() if on and flag not in used]
    if ignored:
        print(
            f"{' '.join(ignored)} cannot be combined with {mode}",
            file=sys.stderr,
        )
        return 2
    if args.crash:
        from repro.eval.supervisor import run_crash_chaos

        kwargs = {}
        if args.crash_at:
            kwargs["crash_specs"] = tuple(args.crash_at)
        return run_crash_chaos(
            seed=args.seed,
            cycles=3 if args.cycles is None else args.cycles,
            full=args.full,
            **kwargs,
        )
    if args.workers is not None:
        return _cmd_chaos_parallel(args)
    from repro.eval.experiments import run_chaos, run_guard_chaos

    setup = _prepare(args)
    print(run_chaos(setup, scheduler=args.scheduler).render())
    print()
    print(run_guard_chaos(setup).render())
    return 0


def _cmd_chaos_parallel(args) -> int:
    """The chaos sweep with one worker process per intensity arm."""
    from repro.eval.parallel import run_chaos_arms

    started = time.time()
    results = run_chaos_arms(
        seed=args.seed, fast=not args.full, max_workers=args.workers
    )
    print(
        f"{len(results)} arms in {time.time() - started:.1f}s "
        f"across {args.workers} worker(s)",
        file=sys.stderr,
    )
    print(f"{'arm':<18}{'macro-F1':>10}{'delay s':>10}{'faults':>8}{'cost $':>8}")
    failed = False
    for res in results:
        if not res.ok:
            failed = True
            print(f"{res.name:<18}  FAILED:\n{res.error}")
            continue
        row = res.result
        print(
            f"{res.name:<18}{row['macro_f1']:>10.3f}"
            f"{row['mean_crowd_delay']:>10.1f}{row['fault_events']:>8}"
            f"{row['cost_cents'] / 100:>8.2f}"
        )
    return 1 if failed else 0


def cmd_bench(args) -> int:
    from repro.eval.bench import (
        DEFAULT_OUTPUT,
        render_bench,
        run_bench,
        write_bench,
    )

    if args.fast and args.full:
        print("cannot pass both --fast and --full", file=sys.stderr)
        return 2
    print(
        f"benchmarking {'paper-scale' if args.full else 'fast'} deployment "
        f"(seed={args.seed}, repeats={args.repeats})...",
        file=sys.stderr,
    )
    report = run_bench(
        seed=args.seed,
        fast=not args.full,
        repeats=args.repeats,
        scheduler=args.scheduler,
    )
    print(render_bench(report))
    path = write_bench(report, args.output or DEFAULT_OUTPUT)
    print(f"wrote {path}", file=sys.stderr)
    if args.check:
        score = report["holdout_score"]
        if score["cached_best_seconds"] > score["uncached_best_seconds"]:
            print(
                "FAIL: memoized holdout scoring slower than unmemoized "
                f"({score['cached_best_seconds']:.6f}s vs "
                f"{score['uncached_best_seconds']:.6f}s)",
                file=sys.stderr,
            )
            return 1
        if report["loop"]["cache"].get("prediction_hits", 0) <= 0:
            print(
                "FAIL: closed loop recorded no holdout-score memo hits",
                file=sys.stderr,
            )
            return 1
        journal = report["journal"]
        if journal["overhead_fraction"] >= 0.05:
            print(
                "FAIL: median journal overhead is "
                f"{journal['overhead_fraction'] * 100:.2f}% of cycle "
                f"wall time over {len(journal['runs'])} runs "
                "(budget: < 5%)",
                file=sys.stderr,
            )
            return 1
        retrain = report.get("retrain", {})
        if retrain:
            # The >= 5x budget is defined at paper scale, where the expert
            # refit dominates; the fast deployment is too small for the
            # guard-tax-free fit span to amortize its cold refits, so it
            # only gets a sanity floor (warm must still clearly win).
            full_scale = not report.get("meta", {}).get("fast", True)
            budget = 5.0 if full_scale else 1.2
            fit_speedup = retrain.get("fit_speedup", 0.0)
            if fit_speedup < budget:
                print(
                    "FAIL: warm-start expert refit speedup is "
                    f"{fit_speedup:.2f}x "
                    f"(budget: >= {budget:.1f}x at "
                    f"{'paper' if full_scale else 'fast'} scale; the 5x "
                    "budget is gated by `repro bench --full --check`)",
                    file=sys.stderr,
                )
                return 1
        print(
            "bench check passed: memoized holdout scoring at least as fast "
            "as unmemoized, the loop served holdout scores from the memo, "
            "median journaling cost under 5% of cycle wall time, and "
            "warm-start beat the "
            "expert-refit speedup budget "
            f"({retrain.get('fit_speedup', 0.0):.2f}x)",
            file=sys.stderr,
        )
    return 0


def cmd_trace(args) -> int:
    from repro.eval.runner import build_crowdlearn
    from repro.telemetry import (
        Telemetry,
        export_jsonl,
        summary_report,
        to_prometheus,
        use_telemetry,
    )

    setup = _prepare(args)
    telemetry = Telemetry()
    system = build_crowdlearn(setup, telemetry=telemetry)
    # The process default covers components that build their own helpers
    # (e.g. trainers constructed inside models during MIC retraining).
    with use_telemetry(telemetry):
        outcome = system.run(setup.make_stream("cli-trace"))
    print(summary_report(telemetry, title="CrowdLearn trace"))
    print()
    print(
        f"deployment: {len(outcome.cycles)} cycles, "
        f"spend {outcome.total_cost_cents() / 100:.2f} USD "
        f"(budget {system.ledger.total / 100:.2f} USD), "
        f"mean crowd delay {outcome.mean_crowd_delay():.1f}s"
    )
    if args.jsonl:
        path = export_jsonl(telemetry, args.jsonl)
        print(f"wrote JSONL event log to {path}", file=sys.stderr)
    if args.prometheus:
        from pathlib import Path

        Path(args.prometheus).write_text(to_prometheus(telemetry.registry))
        print(f"wrote Prometheus metrics to {args.prometheus}", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Run (or resume) a multi-event serving fleet to drain."""
    from pathlib import Path

    from repro.serve import (
        CrowdLearnService,
        SharedCrowdPool,
        create_admission_policy,
    )
    from repro.serve.loadgen import drive

    if args.resume and not args.serve_dir:
        print("--resume requires --serve-dir", file=sys.stderr)
        return 2
    if args.resume:
        service = CrowdLearnService.resume(args.serve_dir)
    else:
        pool = SharedCrowdPool(
            capacity_per_cycle=args.capacity,
            policy=create_admission_policy(args.policy),
            max_backlog=args.max_backlog,
        )
        service = CrowdLearnService(
            _prepare(args),
            pool=pool,
            serve_dir=args.serve_dir,
        )
        for i in range(args.events):
            service.submit_event(f"event-{i + 1:02d}")
    drive(service, burst_images=0, crash_at_tick=args.crash_at_tick)
    quarantined = service.quarantined_events()
    for deployment in service.registry.all():
        status = service.event_status(deployment.event_id)
        books = status.pool
        state = ""
        if status.health is not None and status.event_id in quarantined:
            state = " [QUARANTINED]"
        print(
            f"{status.event_id}: F1 {status.macro_f1:.3f}, "
            f"cycles {status.next_cycle}/{status.n_cycles}, "
            f"admitted {books['admitted']}, deferred {books['deferred']}, "
            f"shed {books['shed']}, "
            f"spent {status.budget['spent_cents'] / 100:.2f} USD{state}"
        )
    for event_id in quarantined:
        reason = service.health[event_id].quarantine_reason or "breaker open"
        print(f"quarantined {event_id}: {reason}", file=sys.stderr)
    digest = service.combined_digest()
    if args.digest_file:
        Path(args.digest_file).write_text(digest + "\n")
    print(f"serve digest {digest}")
    conserved = service.pool.conserved()
    service.close()
    if not conserved:
        print("pool conservation violated", file=sys.stderr)
        return 4
    if quarantined:
        # Completed-with-casualties: the healthy events drained, the
        # parked ones need operator attention (see docs/SERVING.md).
        return 5
    return 0


def cmd_loadgen(args) -> int:
    """Surge bench over the serving layer; writes BENCH_serve.json."""
    from repro.eval.journal import JournalError
    from repro.eval.persistence import CheckpointIntegrityError
    from repro.serve.loadgen import (
        DEFAULT_OUTPUT,
        check_report,
        render_report,
        resume_loadgen,
        run_loadgen,
        write_report,
    )

    if args.resume and not args.serve_dir:
        print("--resume requires --serve-dir", file=sys.stderr)
        return 2
    try:
        if args.resume:
            report = resume_loadgen(
                args.serve_dir,
                burst_images=args.burst_images,
                burst_seed=args.burst_seed,
                crash_at_tick=args.crash_at_tick,
            )
        else:
            report = run_loadgen(
                seed=args.seed,
                fast=not args.full,
                n_events=args.events,
                capacity=args.capacity,
                policy=args.policy,
                max_backlog=args.max_backlog,
                burst_images=args.burst_images,
                burst_seed=args.burst_seed,
                serve_dir=args.serve_dir,
                crash_at_tick=args.crash_at_tick,
                chaos=args.chaos,
            )
    except (CheckpointIntegrityError, JournalError):
        raise  # exit 3 from main(), not a usage error
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_report(report))
    path = write_report(report, args.output or DEFAULT_OUTPUT)
    print(f"wrote {path}", file=sys.stderr)
    if args.check:
        failures = check_report(report, p99_gate_seconds=args.p99_gate)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        if report.get("chaos") is not None:
            print(
                "loadgen chaos check passed: faulted event quarantined, "
                "blast radius contained, healthy digests byte-identical, "
                "books conserved",
                file=sys.stderr,
            )
        else:
            print(
                "loadgen check passed: fleet drained, query and money "
                "books conserved, and the shared crowd was genuinely "
                "contended",
                file=sys.stderr,
            )
    return 0


def cmd_diagnose(args) -> int:
    from repro.eval.diagnostics import diagnose

    setup = _prepare(args)
    for expert in setup.base_committee.experts:
        report = diagnose(expert, setup.test_set)
        print(report.render())
        innate = report.innate_failure_archetypes()
        if innate:
            print(
                "innate failures (confidently wrong): "
                + ", ".join(a.value for a in innate)
            )
        print()
    return 0


_COMMANDS: dict[str, tuple[Callable, str]] = {
    "run": (cmd_run, "run the CrowdLearn closed loop and print its scores"),
    "pilot": (cmd_pilot, "regenerate Figures 5 & 6 (the pilot study)"),
    "table1": (cmd_table1, "regenerate Table I (CQC vs aggregators)"),
    "table2": (cmd_table2, "regenerate Table II, Figure 7 and Table III"),
    "fig8": (cmd_fig8, "regenerate Figure 8 (IPD vs fixed vs random)"),
    "fig9": (cmd_fig9, "regenerate Figure 9 (query-set size sweep)"),
    "budget": (cmd_budget, "regenerate Figures 10 & 11 (budget sweep)"),
    "chaos": (cmd_chaos, "degradation curves under injected platform faults"),
    "supervise": (
        cmd_supervise,
        "run the loop in a watched child process; restart from the "
        "journal and checkpoint after crashes or hangs",
    ),
    "diagnose": (cmd_diagnose, "per-archetype failure report of each expert"),
    "trace": (cmd_trace, "run with telemetry: stage wall-time/cost breakdown"),
    "bench": (cmd_bench, "time cycle stages and memo wins; write BENCH_cycle.json"),
    "serve": (
        cmd_serve,
        "run N concurrent disaster deployments over one shared crowd",
    ),
    "loadgen": (
        cmd_loadgen,
        "surge-replay bench for the serving layer; write BENCH_serve.json",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CrowdLearn (ICDCS 2019) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--full",
            action="store_true",
            help="paper-scale deployment (960 images, 40 cycles)",
        )
        sub.add_argument("--seed", type=int, default=0, help="root seed")
        if name == "trace":
            sub.add_argument(
                "--jsonl", metavar="PATH",
                help="also export the telemetry event log as JSONL",
            )
            sub.add_argument(
                "--prometheus", metavar="PATH",
                help="also export metrics in Prometheus text format",
            )
        if name in ("run", "chaos", "bench", "supervise"):
            sub.add_argument(
                "--scheduler", action="store_true",
                help="enable the virtual-time scheduler: each sensing "
                     "cycle becomes a real deadline and late responses "
                     "are harvested into later cycles",
            )
        if name == "run":
            sub.add_argument(
                "--warm-start", action="store_true", dest="warm_start",
                help="warm-start incremental retraining: fine-tune "
                     "incumbent weights on new crowd labels + a crowd "
                     "replay sample, with periodic full refits",
            )
        if name in ("run", "supervise"):
            sub.add_argument(
                "--checkpoint", metavar="PATH",
                required=(name == "supervise"),
                help="write a checkpoint after each sensing cycle "
                     "(and resume from it with --resume)",
            )
            sub.add_argument(
                "--journal", metavar="PATH",
                required=(name == "supervise"),
                help="write-ahead journal of intra-cycle stage effects, "
                     "each record fsynced; rotated atomically at each "
                     "checkpoint (requires --checkpoint)",
            )
            sub.add_argument(
                "--digest-file", metavar="PATH", dest="digest_file",
                help="write the run-outcome digest here (parity checks)",
            )
        if name in ("run", "supervise", "chaos"):
            sub.add_argument(
                "--cycles", type=_int_at_least(1), metavar="N",
                help="trim the deployment to N sensing cycles",
            )
            sub.add_argument(
                "--crash-at", action="append", metavar="SPEC",
                dest="crash_at",
                help="inject a crash at stage[:cycle[:occurrence[:action]]] "
                     "(action: raise|kill|hang); repeatable",
            )
        if name == "run":
            sub.add_argument(
                "--resume", action="store_true",
                help="resume from --checkpoint, replaying --journal "
                     "past it (exit 3 on a corrupt checkpoint or "
                     "journal)",
            )
        if name == "supervise":
            sub.add_argument(
                "--watchdog", type=float, default=300.0, metavar="SECONDS",
                help="restart the child if its heartbeat is silent this "
                     "long (default 300)",
            )
            sub.add_argument(
                "--max-restarts", type=int, default=5, metavar="N",
                dest="max_restarts",
                help="restart budget before giving up (default 5)",
            )
            sub.add_argument(
                "--backoff", type=float, default=1.0, metavar="SECONDS",
                help="first restart backoff; doubles per restart",
            )
            sub.add_argument(
                "--heartbeat", metavar="PATH",
                help="heartbeat file (default <journal>.heartbeat)",
            )
        if name == "chaos":
            sub.add_argument(
                "--workers", type=_int_at_least(1), metavar="N",
                help="run the intensity arms across N worker processes",
            )
            sub.add_argument(
                "--crash", action="store_true",
                help="crash-recovery chaos: kill the loop at stage "
                     "boundaries, supervise the restarts, and assert "
                     "digest parity with an uninterrupted run",
            )
        if name in ("serve", "loadgen"):
            sub.add_argument(
                "--events", type=_int_at_least(1), default=3, metavar="N",
                help="number of concurrent disaster events (default 3)",
            )
            sub.add_argument(
                "--capacity", type=_int_at_least(0), metavar="N",
                help="shared crowd capacity in query slots per sensing "
                     "window across all events (serve default: unmetered; "
                     "loadgen default: half the fleet's demand)",
            )
            sub.add_argument(
                "--policy", default="fair-share",
                choices=("fair-share", "priority", "deadline"),
                help="admission policy splitting window capacity",
            )
            sub.add_argument(
                "--max-backlog", type=_int_at_least(0), metavar="N",
                dest="max_backlog",
                help="per-event deferred-query bound; overflow is shed "
                     "(default: unbounded)",
            )
            sub.add_argument(
                "--serve-dir", metavar="DIR", dest="serve_dir",
                help="durable mode: per-event checkpoints/journals plus "
                     "the service manifest and journal live here",
            )
            sub.add_argument(
                "--resume", action="store_true",
                help="resume a crashed fleet from --serve-dir "
                     "(exit 3 on integrity failures)",
            )
            sub.add_argument(
                "--crash-at-tick", type=int, metavar="K",
                dest="crash_at_tick",
                help="SIGKILL the process once K global sensing cycles "
                     "have run (crash/recovery drills)",
            )
        if name == "serve":
            sub.add_argument(
                "--digest-file", metavar="PATH", dest="digest_file",
                help="write the fleet's combined digest here "
                     "(parity checks)",
            )
        if name == "loadgen":
            sub.add_argument(
                "--burst-images", type=int, default=10, metavar="N",
                dest="burst_images",
                help="imagery-burst size injected into the first event "
                     "mid-run (0 disables; default 10)",
            )
            sub.add_argument(
                "--burst-seed", type=int, default=1234, metavar="SEED",
                dest="burst_seed",
                help="seed regenerating the burst (journaled for resume)",
            )
            sub.add_argument(
                "--output", metavar="PATH",
                help="where to write BENCH_serve.json "
                     "(default benchmarks/results/BENCH_serve.json)",
            )
            sub.add_argument(
                "--check", action="store_true",
                help="exit nonzero unless the fleet drained, the books "
                     "conserve, and contention actually occurred",
            )
            sub.add_argument(
                "--p99-gate", type=float, metavar="SECONDS",
                dest="p99_gate",
                help="also fail --check if p99 cycle latency exceeds this",
            )
            sub.add_argument(
                "--chaos", action="store_true",
                help="blast-radius drill: run the fleet clean, then with "
                     "a permanent platform outage scoped to the last "
                     "event; with --check, fail unless the faulted event "
                     "quarantines and every healthy event's digest is "
                     "byte-identical to the clean run",
            )
        if name == "bench":
            sub.add_argument(
                "--fast", action="store_true",
                help="force the fast deployment (the default; explicit "
                     "spelling for CI invocations)",
            )
            sub.add_argument(
                "--output", metavar="PATH",
                help="where to write BENCH_cycle.json "
                     "(default benchmarks/results/BENCH_cycle.json)",
            )
            sub.add_argument(
                "--repeats", type=_int_at_least(1), default=3,
                help="best-of repeats for the holdout-scoring timing, and "
                     "journaled runs the overhead median is taken over",
            )
            sub.add_argument(
                "--check", action="store_true",
                help="exit nonzero unless memoized holdout scoring is at "
                     "least as fast as unmemoized, the loop recorded memo "
                     "hits, and the journaling and warm-start budgets hold",
            )
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A corrupt checkpoint, journal or serve journal escaping any command
    is exit 3.
    """
    from repro.eval.journal import JournalError
    from repro.eval.persistence import CheckpointIntegrityError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointIntegrityError as exc:
        print(
            f"corrupt checkpoint ({exc.check} check failed): {exc}",
            file=sys.stderr,
        )
    except JournalError as exc:  # the serve journal's errors included
        print(f"journal integrity failure: {exc}", file=sys.stderr)
    return 3


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
