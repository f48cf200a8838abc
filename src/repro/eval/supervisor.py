"""Supervising watchdog for crash-tolerant deployments.

The journal (:mod:`repro.eval.journal`) makes a killed run *resumable*;
this module makes recovery *automatic*.  :func:`supervise` runs the
closed loop in a child process and watches two failure signals:

- **exit code** — a child that dies (injected crash, SIGKILL, OOM) is
  restarted with ``--resume`` so it replays its journal past the last
  checkpoint;
- **heartbeat staleness** — the child touches a heartbeat file on every
  journal append; a child that is alive but silent past the watchdog
  timeout is presumed hung, killed, and restarted the same way.

Restarts are bounded (``max_restarts``) with exponential backoff, so a
deterministic crash-on-replay bug degrades into a clean failure instead
of a hot restart loop.  The first launch may carry a crash-point plan
(``REPRO_CRASH_AT``); restarts never do — the resume path disarms
injected crashes, matching :func:`repro.eval.journal.resume_run`.

:func:`run_crash_chaos` is the CI harness on top: it runs a reference
deployment to completion, then re-runs it under the supervisor with a
SIGKILL injected at several stage boundaries and asserts the recovered
digest is byte-identical and the post-recovery audit passed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.eval.journal import load_recovery_info, update_recovery_info
from repro.utils.logging import get_logger
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "SupervisorConfig",
    "SupervisorOutcome",
    "supervise",
    "run_crash_chaos",
    "render_recovery_table",
]

logger = get_logger("supervisor")

#: Exit code a child uses to report an injected crash (EX_TEMPFAIL: the
#: failure is transient by construction — a restart will succeed).
CRASH_EXIT_CODE = 75


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for :func:`supervise`."""

    #: Seconds of heartbeat silence before a live child is declared hung.
    watchdog_seconds: float = 300.0
    #: Restarts allowed before the supervisor gives up.
    max_restarts: int = 5
    #: First backoff delay; doubles per restart (1s, 2s, 4s, ...).
    backoff_base_seconds: float = 1.0
    #: Cap on a single backoff sleep.
    backoff_max_seconds: float = 30.0
    #: How often the watchdog polls the child and the heartbeat file.
    poll_seconds: float = 0.25

    def __post_init__(self) -> None:
        check_positive(self.watchdog_seconds, "watchdog_seconds")
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        check_non_negative(self.backoff_base_seconds, "backoff_base_seconds")
        check_non_negative(self.backoff_max_seconds, "backoff_max_seconds")
        check_positive(self.poll_seconds, "poll_seconds")

    def backoff(self, restart_index: int) -> float:
        """Backoff before restart number ``restart_index`` (1-based)."""
        return min(
            self.backoff_base_seconds * (2 ** max(restart_index - 1, 0)),
            self.backoff_max_seconds,
        )


@dataclass
class SupervisorOutcome:
    """What one supervised deployment did, across all its launches."""

    returncode: int
    restarts: int = 0
    hangs_detected: int = 0
    crashes_detected: int = 0
    gave_up: bool = False
    #: Exit code of each child launch, in order.
    child_exits: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def _heartbeat_age(path: Path, started_at: float) -> float:
    """Seconds since the heartbeat file was last touched.

    Falls back to the launch time if the file vanished (the child is
    then judged by total silence since start, not declared hung at once).
    """
    try:
        last_beat = path.stat().st_mtime
    except OSError:
        last_beat = started_at
    return time.time() - last_beat


def supervise(
    child_args: list[str],
    heartbeat_path: str | Path,
    config: SupervisorConfig | None = None,
    journal_path: str | Path | None = None,
    first_launch_env: dict[str, str] | None = None,
    resume_flag: str = "--resume",
) -> SupervisorOutcome:
    """Run ``child_args`` under a heartbeat watchdog with bounded restarts.

    Parameters
    ----------
    child_args:
        The child command line (e.g. ``[sys.executable, "-m", "repro",
        "run", "--journal", ...]``).  ``resume_flag`` is appended on
        every launch after the first.
    heartbeat_path:
        File the child touches on progress (``REPRO_HEARTBEAT`` is set
        to this path in the child's environment).
    journal_path:
        When given, restart counts are accumulated into the journal's
        recovery sidecar so post-mortem tooling sees them even if the
        final child never resumes (e.g. the budget is exhausted).
    first_launch_env:
        Extra environment for the *first* launch only — typically
        ``{"REPRO_CRASH_AT": ...}``.  Restarts run without it, so an
        injected crash cannot re-fire during recovery.
    """
    if config is None:
        config = SupervisorConfig()
    heartbeat_path = Path(heartbeat_path)
    outcome = SupervisorOutcome(returncode=1)
    attempt = 0
    while True:
        env = dict(os.environ)
        env["REPRO_HEARTBEAT"] = str(heartbeat_path)
        argv = list(child_args)
        if attempt == 0:
            if first_launch_env:
                env.update(first_launch_env)
        else:
            argv.append(resume_flag)
        # Reset the staleness clock: a restart must get a full watchdog
        # window even if the previous child's last beat is ancient.
        started = time.time()
        heartbeat_path.touch()
        logger.info(
            "launching child (attempt %d%s): %s",
            attempt + 1,
            ", resume" if attempt else "",
            " ".join(argv),
        )
        proc = subprocess.Popen(argv, env=env)
        hung = False
        while proc.poll() is None:
            time.sleep(config.poll_seconds)
            if _heartbeat_age(heartbeat_path, started) > config.watchdog_seconds:
                logger.warning(
                    "heartbeat silent for %.1fs (watchdog %.1fs): "
                    "killing hung child pid %d",
                    _heartbeat_age(heartbeat_path, started),
                    config.watchdog_seconds,
                    proc.pid,
                )
                proc.kill()
                proc.wait()
                hung = True
                break
        rc = int(proc.returncode)
        outcome.child_exits.append(rc)
        if hung:
            outcome.hangs_detected += 1
        elif rc != 0:
            outcome.crashes_detected += 1
        if rc == 0 and not hung:
            outcome.returncode = 0
            break
        attempt += 1
        if attempt > config.max_restarts:
            outcome.gave_up = True
            outcome.returncode = rc if rc != 0 else 1
            logger.error(
                "restart budget exhausted (%d restarts): giving up with "
                "exit code %d",
                config.max_restarts,
                outcome.returncode,
            )
            break
        outcome.restarts += 1
        delay = config.backoff(attempt)
        logger.warning(
            "child %s (exit %d): restart %d/%d after %.1fs backoff",
            "hung" if hung else "died",
            rc,
            attempt,
            config.max_restarts,
            delay,
        )
        if delay > 0:
            time.sleep(delay)
    if journal_path is not None:
        update_recovery_info(
            journal_path,
            supervisor_hangs=outcome.hangs_detected,
            supervisor_crashes=outcome.crashes_detected,
            supervisor_gave_up=outcome.gave_up,
        )
    return outcome


def render_recovery_table(
    journal_path: str | Path, outcome: SupervisorOutcome
) -> str:
    """The ``Recovery`` summary block the supervise command prints."""
    info = load_recovery_info(journal_path)
    audit = info.get("audit", {})
    rows = [
        ("child launches", len(outcome.child_exits)),
        ("restarts", outcome.restarts),
        ("crashes detected", outcome.crashes_detected),
        ("hangs detected", outcome.hangs_detected),
        ("journal records replayed", info.get("recovery_replayed_records", 0)),
        (
            "re-queries avoided",
            f"{info.get('recovery_requeries_avoided_cents', 0.0) / 100:.2f} USD",
        ),
        ("in-doubt posts re-executed", info.get("recovery_in_doubt_posts", 0)),
        ("stale journals quarantined",
         info.get("recovery_quarantined_journals", 0)),
    ]
    lines = ["Recovery"]
    for label, value in rows:
        lines.append(f"  {label:<28}{value}")
    if audit:
        verdict = "passed" if audit.get("ok") else "FAILED"
        failed = [k for k, v in audit.get("checks", {}).items() if not v]
        lines.append(
            f"  {'post-recovery audit':<28}{verdict}"
            + (f" ({', '.join(failed)})" if failed else "")
        )
    return "\n".join(lines)


# -- CI crash-chaos harness -------------------------------------------------


def _base_child_args(
    seed: int,
    cycles: int,
    workdir: Path,
    name: str,
    full: bool = False,
) -> tuple[list[str], Path, Path, Path]:
    digest = workdir / f"{name}.digest"
    checkpoint = workdir / f"{name}.ckpt"
    journal = workdir / f"{name}.journal"
    argv = [
        sys.executable, "-m", "repro", "run",
        "--seed", str(seed),
        "--cycles", str(cycles),
        "--checkpoint", str(checkpoint),
        "--journal", str(journal),
        "--digest-file", str(digest),
    ]
    if full:
        argv.append("--full")
    return argv, digest, checkpoint, journal


def run_crash_chaos(
    seed: int = 0,
    cycles: int = 3,
    crash_specs: tuple[str, ...] = ("post:1:0:kill", "cqc:2:0:kill"),
    workdir: str | Path | None = None,
    full: bool = False,
    config: SupervisorConfig | None = None,
) -> int:
    """Kill the loop at stage boundaries, supervise the recovery, compare.

    Runs one uninterrupted reference deployment, then one supervised
    deployment per crash spec, and checks three things per arm: the
    recovered digest equals the reference digest, the post-recovery
    invariant audit passed, and at least one ``recovery_restart`` was
    recorded.  Returns a process exit code (0 = every arm passed).
    """
    import tempfile

    if config is None:
        config = SupervisorConfig(
            watchdog_seconds=600.0, max_restarts=3,
            backoff_base_seconds=0.2,
        )
    owns_workdir = workdir is None
    tmp = tempfile.TemporaryDirectory(prefix="repro-crash-chaos-") if owns_workdir else None
    workdir = Path(tmp.name) if owns_workdir else Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print(
            f"crash chaos: reference run (seed={seed}, cycles={cycles})...",
            file=sys.stderr,
        )
        ref_args, ref_digest, _, _ = _base_child_args(
            seed, cycles, workdir, "reference", full=full
        )
        ref = subprocess.run(ref_args, env=dict(os.environ))
        if ref.returncode != 0:
            print(
                f"FAIL: reference run exited {ref.returncode}",
                file=sys.stderr,
            )
            return 1
        reference = ref_digest.read_text().strip()
        print(f"reference digest {reference[:16]}", file=sys.stderr)
        header = f"{'crash point':<22}{'restarts':>9}{'digest':>8}{'audit':>7}"
        print(header)
        failed = False
        for spec in crash_specs:
            name = spec.replace(":", "_").replace("*", "any")
            argv, digest_path, _, journal = _base_child_args(
                seed, cycles, workdir, name, full=full
            )
            hb = workdir / f"{name}.heartbeat"
            outcome = supervise(
                argv,
                hb,
                config=config,
                journal_path=journal,
                first_launch_env={"REPRO_CRASH_AT": spec},
            )
            info = load_recovery_info(journal)
            digest = (
                digest_path.read_text().strip()
                if digest_path.exists() else "<missing>"
            )
            digest_ok = outcome.ok and digest == reference
            audit_ok = bool(info.get("audit", {}).get("ok"))
            recovered = info.get("recovery_restarts", 0) >= 1
            arm_ok = digest_ok and audit_ok and recovered
            failed = failed or not arm_ok
            print(
                f"{spec:<22}{outcome.restarts:>9}"
                f"{'match' if digest_ok else 'DIFF':>8}"
                f"{'pass' if audit_ok else 'FAIL':>7}"
                + ("" if recovered else "  (no recovery recorded)")
            )
        if failed:
            print("FAIL: at least one crash arm did not recover cleanly",
                  file=sys.stderr)
            return 1
        print(
            "crash chaos passed: every killed run resumed to the "
            "reference digest with a clean audit",
            file=sys.stderr,
        )
        return 0
    finally:
        if tmp is not None:
            tmp.cleanup()
