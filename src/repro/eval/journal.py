"""Write-ahead journal for crash-tolerant sensing cycles.

Checkpoints (:mod:`repro.eval.persistence`) are cycle-granular: a crash
between ``cycle.qss`` and the post-cycle snapshot loses every paid-for
crowd response and, naively resumed, would re-post the same queries and
re-charge the :class:`~repro.bandit.budget.BudgetLedger`.  This module
closes that window with an append-only, checksummed JSONL **write-ahead
log** of intra-cycle stage boundaries and their effects:

==============  =========================================================
stage           payload (effects recorded at the boundary)
==============  =========================================================
rotate          journal base: ``next_cycle`` at the last checkpoint
cycle_start     temporal context of the opening cycle
harvest         straggler events matured into this cycle (scheduler runs)
qss             the selected query indices
post_intent     query about to be posted (index, arm, incentive)
post            the post's full effects: query id, spend, responses,
                scheduler events, platform RNG state, fault-clock state
cqc             fused truthful labels + the query ids they grade
guard           the drift detector's flag decision
retrain         MIC retraining completed
cycle_end       the cycle's total crowd spend
==============  =========================================================

Recovery is **replay by re-execution**: the resumed system re-runs the
interrupted cycle from the checkpointed state, and because every stochastic
component's RNG travels in the checkpoint, each in-memory stage recomputes
bit-identically.  The journal's job is the one stage with *external* side
effects — the crowd post.  A journaled ``post`` record is served back
through :meth:`CrowdsourcingPlatform.restore_posted_query` instead of
re-posting: the recorded query id, charge, responses and scheduler events
are re-applied and the platform RNG is fast-forwarded, so a journaled
query id is never posted twice and the ledger is never double-charged.
Every other re-executed append is verified against the on-disk record
(sequence, cycle, stage and canonical payload must match) — any divergence
raises :class:`JournalReplayError` instead of silently forking history.

**One record log.**  The event journal and ``serve.journal`` differ
only in line shape (:data:`STAGE_LINES`, :data:`ENVELOPE_LINES`): each
line is canonical JSON with a SHA-256 over the record's body, written by
one synced append (:func:`append_synced`, one fsync per record, so only
the last line can be torn) and read by one reader (:func:`read_journal`).
One set of tail rules applies on reopen (:func:`read_intact`,
:func:`repair_tail`): a bad last line is a torn tail and is truncated; a
last record that lost its newline gets it back, so the next append
starts its own line; a bad line with any line after it, even a blank
one, is corruption and is refused, never truncated.  The event journal
is rotated atomically (temp file + ``os.replace``) after each
checkpoint, keeping its base cycle in lockstep with the snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.crowd.tasks import QuestionnaireAnswers, WorkerResponse
from repro.data.metadata import DamageLabel, SceneType
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import CrowdLearnSystem, RunOutcome
    from repro.crowd.scheduler import PendingResponse

__all__ = [
    "JournalError", "JournalReplayError", "CycleJournal",
    "LineFormat", "STAGE_LINES", "ENVELOPE_LINES", "append_synced",
    "JournalReadResult", "read_journal", "read_intact", "repair_tail",
    "wal_tail_summary",
    "encode_response", "decode_response", "encode_pending",
    "RecoveryResult", "restore_run", "resume_run", "audit_recovery",
    "recovery_sidecar_path", "load_recovery_info", "update_recovery_info",
    "heartbeat_writer",
]

#: Stage names the loop journals, in intra-cycle order.
JOURNAL_STAGES: tuple[str, ...] = (
    "rotate", "cycle_start", "harvest", "qss", "post_intent", "post",
    "cqc", "guard", "retrain", "cycle_end",
)

logger = get_logger("journal")


class JournalError(ValueError):
    """A journal file or operation is invalid."""


class JournalReplayError(JournalError):
    """Re-execution diverged from the journaled history.

    Raised when a replayed run appends a record whose (cycle, stage,
    payload) does not match the next on-disk record — the checkpoint and
    journal describe different runs, and continuing would silently fork
    the deployment's history.
    """


def _canonical(body: Any) -> str:
    """Canonical JSON used for checksums and replay verification."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _checksum(body: Any) -> str:
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


@dataclass(frozen=True)
class LineFormat:
    """How a record log seals a record into its checksummed line object;
    ``unseal`` inverts it, raising ``ValueError``/``KeyError``/``TypeError``
    on anything but an intact sealed record."""

    seal: Callable[[Any], dict]
    unseal: Callable[[Any], Any]

    def line(self, record: Any) -> str:
        """The record's line, without its newline."""
        return _canonical(self.seal(record))


def _verified(body: Any, entry: Any) -> Any:
    """``entry``, if its ``sha256`` is ``body``'s checksum."""
    if _checksum(body) != entry["sha256"]:
        raise ValueError("checksum mismatch")
    return entry


#: Event journal lines: ``{seq, cycle, stage, payload, sha256}``.
STAGE_LINES = LineFormat(
    seal=lambda body: {**body, "sha256": _checksum(body)},
    unseal=lambda entry: _verified(
        {k: entry[k] for k in ("seq", "cycle", "stage", "payload")}, entry
    ),
)
#: ``serve.journal`` lines: ``{"record": …, "sha256": …}``.
ENVELOPE_LINES = LineFormat(
    seal=lambda record: {"record": record, "sha256": _checksum(record)},
    unseal=lambda entry: _verified(entry["record"], entry)["record"],
)


def append_synced(fh, record: Any, lines: LineFormat = STAGE_LINES) -> dict:
    """Append one sealed record and make it durable (flush + one fsync);
    returns the sealed line object."""
    sealed = lines.seal(record)
    fh.write(_canonical(sealed) + "\n")
    fh.flush()
    os.fsync(fh.fileno())
    return sealed


def encode_response(response: WorkerResponse) -> dict:
    """JSON-safe form of one worker response (exact, numpy-free)."""
    q = response.questionnaire
    return {
        "worker_id": int(response.worker_id),
        "label": int(response.label),
        "delay": float(response.delay_seconds),
        "questionnaire": None if q is None else {
            "fake": bool(q.says_fake),
            "scene": q.scene.value,
            "danger": bool(q.says_people_in_danger),
        },
    }


def decode_response(data: dict) -> WorkerResponse:
    """Inverse of :func:`encode_response`."""
    q = data.get("questionnaire")
    return WorkerResponse(
        worker_id=int(data["worker_id"]),
        label=DamageLabel(int(data["label"])),
        questionnaire=None if q is None else QuestionnaireAnswers(
            says_fake=bool(q["fake"]),
            scene=SceneType(q["scene"]),
            says_people_in_danger=bool(q["danger"]),
        ),
        delay_seconds=float(data["delay"]),
    )


def encode_pending(event: "PendingResponse") -> dict:
    """JSON-safe form of one scheduled straggler-arrival event."""
    return {
        "arrival_time": float(event.arrival_time),
        "seq": int(event.seq),
        "posted_at": float(event.posted_at),
        "response": encode_response(event.response),
    }


@dataclass
class JournalReadResult:
    """What :func:`read_journal` recovered from a record log."""

    records: list = field(default_factory=list)
    #: Lines from the first bad line to the end of the file, that line
    #: included (blank lines count): 1 is a torn tail, more is corruption.
    torn_lines: int = 0
    #: Byte offset of the end of the last intact record.
    good_bytes: int = 0
    #: 1-based line number of the first unreadable line (``None``: none).
    bad_line: int | None = None
    #: The last intact record ends the file without its newline.
    lost_newline: bool = False

    @property
    def base_cycle(self) -> int | None:
        """The ``next_cycle`` recorded by the leading rotate record."""
        for record in self.records:
            if record["stage"] == "rotate":
                return int(record["payload"]["next_cycle"])
            break
        return None

    @property
    def max_cycle(self) -> int:
        """Highest cycle index with a non-rotate record (−1 if none)."""
        cycles = [r["cycle"] for r in self.records if r["stage"] != "rotate"]
        return max(cycles) if cycles else -1


def read_journal(
    path: str | Path, lines: LineFormat = STAGE_LINES
) -> JournalReadResult:
    """Read a record log, reporting (never repairing) its tail.

    Lines end where :meth:`str.splitlines` ends them.  The first blank,
    non-UTF-8, unparseable or checksum-failing line ends the readable
    prefix; it and every line after it count in ``torn_lines``.
    """
    raw = Path(path).read_bytes()
    result = JournalReadResult()
    text_lines = raw.decode("utf-8", "surrogateescape").splitlines(True)
    for number, line in enumerate(text_lines, start=1):
        try:
            data = line.encode("utf-8")  # fails on non-UTF-8 bytes
            record = lines.unseal(json.loads(line))
        except (ValueError, KeyError, TypeError):
            result.bad_line = number
            result.torn_lines = len(text_lines) - number + 1
            break
        result.records.append(record)
        result.good_bytes += len(data)
    result.lost_newline = (
        result.good_bytes > 0
        and raw[result.good_bytes - 1:result.good_bytes] != b"\n"
    )
    return result


def read_intact(
    path: str | Path,
    lines: LineFormat = STAGE_LINES,
    error: type[JournalError] = JournalError,
) -> JournalReadResult:
    """:func:`read_journal`, raising ``error`` on a bad line with any
    line after it: only the last line can be torn, and truncating intact
    records would re-post and re-charge a dropped ``post``."""
    read = read_journal(path, lines)
    if read.torn_lines > 1:
        raise error(
            f"corrupt journal record at line {read.bad_line} of {path}: "
            f"{read.torn_lines - 1} line(s) follow it, so it is not a "
            "torn tail; refusing to truncate them"
        )
    return read


def repair_tail(path: str | Path, read: JournalReadResult) -> None:
    """Make a log safe to append to: drop its torn tail and give its last
    record back a lost newline, so the next append starts its own line.
    """
    if not (read.torn_lines or read.lost_newline):
        return
    with open(path, "r+b") as fh:
        fh.truncate(read.good_bytes)
        if read.lost_newline:
            fh.seek(read.good_bytes)
            fh.write(b"\n")


def wal_tail_summary(journal_path: str | Path) -> dict:
    """Post-mortem summary of a journal's tail after an aborted cycle.

    When the serving layer's bulkhead quarantines an event mid-cycle,
    the event's write-ahead log is the authoritative record of how far
    the interrupted cycle got — most importantly whether a crowd post is
    in doubt (a ``post_intent`` journaled without its ``post``).  The
    service embeds this summary in the quarantine record so operators can
    assess a parked event without opening its WAL by hand.
    """
    path = Path(journal_path)
    if not path.exists():
        return {"exists": False}
    read = read_journal(path)
    live = [r for r in read.records if r["stage"] != "rotate"]
    last = live[-1] if live else None
    return {
        "exists": True,
        "records": len(read.records),
        "torn_lines": read.torn_lines,
        "base_cycle": read.base_cycle,
        "last_cycle": None if last is None else int(last["cycle"]),
        "last_stage": None if last is None else last["stage"],
        "in_doubt_posts": int(
            last is not None and last["stage"] == "post_intent"
        ),
        "journaled_posts": sum(
            1 for r in live
            if r["stage"] == "post"
            and isinstance(r["payload"], dict)
            and r["payload"].get("kind") == "posted"
        ),
    }


class CycleJournal:
    """Append-only checksummed JSONL write-ahead log for one deployment.

    Parameters
    ----------
    path:
        The journal file.  Use :meth:`create` for a fresh run or
        :meth:`resume` to reopen after a crash.  Every record is fsynced
        as it is written, so each boundary is durable before the next
        stage runs and a crash can tear only the last line.
    crash_injector:
        Optional :class:`~repro.crowd.faults.FaultInjector`; its
        ``on_stage_boundary`` hook fires after each *live* append is
        durable, so an injected crash never loses the record it follows.
    on_record:
        Optional callback invoked with each appended record — the
        supervisor uses it as the child's heartbeat.
    """

    def __init__(
        self,
        path: str | Path,
        crash_injector=None,
        on_record: Callable[[dict], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.crash_injector = crash_injector
        self.on_record = on_record
        self._fh = None
        self._seq = 0
        self._replay_queue: deque[dict] = deque()
        #: Wall time spent writing + syncing (the bench overhead metric).
        self.write_seconds = 0.0
        self.records_written = 0
        self.replayed_records = 0
        #: Spend that recovery served from the journal instead of
        #: re-posting (accumulated by the system's replay path).
        self.requeries_avoided_cents = 0.0
        #: Trailing ``post_intent`` without its ``post``: the crash hit
        #: between deciding to post and recording the outcome.
        self.in_doubt_posts = 0
        #: Query ids of journaled posts (live + replayed), for the auditor.
        self.posted_query_ids: list[int] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        crash_injector=None,
        on_record: Callable[[dict], None] | None = None,
        next_cycle: int = 0,
    ) -> "CycleJournal":
        """Start a fresh journal (truncates any existing file)."""
        journal = cls(path, crash_injector=crash_injector, on_record=on_record)
        journal._open_fresh(next_cycle)
        return journal

    @classmethod
    def resume(
        cls,
        path: str | Path,
        next_cycle: int,
        crash_injector=None,
        on_record: Callable[[dict], None] | None = None,
    ) -> tuple["CycleJournal", dict]:
        """Reopen a journal for recovery at checkpoint cycle ``next_cycle``.

        Returns ``(journal, info)``.  When the journal's base cycle
        matches the checkpoint, its records are queued for replay
        verification, and the record log's tail rules apply
        (:func:`read_intact`, :func:`repair_tail`): a torn tail is
        truncated and a lost final newline restored, so live appends
        continue a clean file, while a bad line with any line after it
        raises :class:`JournalError` naming the line.  When base and
        checkpoint disagree — a crash during rotation left the journal
        stale, or the checkpoint was rolled back under a newer journal —
        the mismatched file is **quarantined** (renamed ``<path>.stale``)
        with a warning and a fresh journal starts: the checkpoint is the
        only authoritative state snapshot, and replaying records from a
        different base would fork history.
        """
        path = Path(path)
        journal = cls(path, crash_injector=crash_injector, on_record=on_record)
        info = {
            "torn_lines": 0,
            "replay_records": 0,
            "in_doubt_posts": 0,
            "quarantined": None,
        }
        if not path.exists():
            journal._open_fresh(next_cycle)
            return journal, info
        read = read_intact(path)
        info["torn_lines"] = read.torn_lines
        base = read.base_cycle
        if base != next_cycle:
            stale = path.with_name(path.name + ".stale")
            os.replace(path, stale)
            newer = "checkpoint" if (base is None or base < next_cycle) \
                else "journal"
            logger.warning(
                "journal %s (base cycle %s) disagrees with checkpoint "
                "(next cycle %d); the %s is newer — quarantined the stale "
                "journal to %s and resuming from the checkpoint alone",
                path, base, next_cycle, newer, stale,
            )
            info["quarantined"] = str(stale)
            journal._open_fresh(next_cycle)
            return journal, info
        repair_tail(path, read)
        journal._fh = open(path, "a", encoding="utf-8")
        journal._seq = read.records[-1]["seq"] + 1 if read.records else 0
        replayable = [r for r in read.records if r["stage"] != "rotate"]
        journal._replay_queue = deque(replayable)
        if replayable and replayable[-1]["stage"] == "post_intent":
            journal.in_doubt_posts = 1
        info["replay_records"] = len(replayable)
        info["in_doubt_posts"] = journal.in_doubt_posts
        return journal, info

    # -- write path -------------------------------------------------------

    def _open_fresh(self, next_cycle: int) -> None:
        """Atomically start a new journal file headed by a rotate record."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        fh = open(tmp, "w", encoding="utf-8")
        old = self._fh
        self._fh = fh
        self._seq = 0
        # The rotate record is synced by _write before the file goes live.
        self._write(next_cycle, "rotate", {"next_cycle": int(next_cycle)})
        os.replace(tmp, self.path)
        if old is not None:
            old.close()

    def _write(self, cycle: int, stage: str, payload: Any) -> dict:
        start = time.perf_counter()
        record = append_synced(self._fh, {
            "seq": self._seq, "cycle": cycle, "stage": stage,
            "payload": payload,
        })
        self._seq += 1
        self.records_written += 1
        self.write_seconds += time.perf_counter() - start
        return record

    def append(self, cycle: int, stage: str, payload: Any) -> dict:
        """Record a stage boundary (or verify it during replay).

        While the replay queue holds records, each append is checked
        against the next one — matching appends are consumed without
        rewriting, a mismatch raises :class:`JournalReplayError`.  Once
        the queue drains, appends write and sync live; *then* any armed crash point for this boundary fires, so
        the record always survives its own crash.
        """
        if self._fh is None:
            raise JournalError("journal is closed")
        if self._replay_queue:
            head = self._replay_queue[0]
            if (
                head["cycle"] != cycle
                or head["stage"] != stage
                or _canonical(head["payload"]) != _canonical(payload)
            ):
                raise JournalReplayError(
                    f"replay diverged at cycle {cycle} stage {stage!r}: "
                    f"journal has cycle {head['cycle']} stage "
                    f"{head['stage']!r} (seq {head['seq']}).  The "
                    "checkpoint and journal describe different runs."
                )
            record = self._replay_queue.popleft()
            self._seq = record["seq"] + 1
            self.replayed_records += 1
            self._note_post(stage, payload)
            if self.on_record is not None:
                self.on_record(record)
            return record
        record = self._write(cycle, stage, payload)
        self._note_post(stage, payload)
        if self.on_record is not None:
            self.on_record(record)
        if self.crash_injector is not None:
            self.crash_injector.on_stage_boundary(stage, cycle)
        return record

    def _note_post(self, stage: str, payload: Any) -> None:
        if stage == "post" and isinstance(payload, dict) \
                and payload.get("kind") == "posted":
            self.posted_query_ids.append(int(payload["query_id"]))

    def peek_replay(self, cycle: int, stage: str) -> Any | None:
        """The queued payload if the next replay record is (cycle, stage).

        The post loop uses this to decide whether a query's outcome is
        already journaled (serve it, never re-post) or must run live.
        """
        if not self._replay_queue:
            return None
        head = self._replay_queue[0]
        if head["cycle"] == cycle and head["stage"] == stage:
            return head["payload"]
        return None

    @property
    def replaying(self) -> bool:
        """Whether journaled records remain to be verified."""
        return bool(self._replay_queue)

    def rotate(self, next_cycle: int) -> None:
        """Atomically start a fresh journal after a checkpoint.

        The replaced file's records are covered by the snapshot that was
        just written, so they are dropped; the new file opens with a
        rotate record naming the checkpoint's resume cycle, which
        :meth:`resume` uses to detect journal/checkpoint disagreement.
        """
        if self._fh is None:
            raise JournalError("journal is closed")
        if self._replay_queue:
            raise JournalReplayError(
                f"{len(self._replay_queue)} journaled records were never "
                "reached by re-execution; the checkpoint and journal "
                "describe different runs"
            )
        # The replaced file's records were each synced as written.
        start = time.perf_counter()
        self._open_fresh(next_cycle)
        self.write_seconds += time.perf_counter() - start
        if self.crash_injector is not None:
            self.crash_injector.on_stage_boundary("rotate", next_cycle)

    def close(self) -> None:
        """Close the journal file (every record is already synced)."""
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None


# -- recovery sidecar (cross-process counters) ----------------------------

#: Sidecar keys that accumulate across restarts (everything else is set).
_SIDECAR_ACCUMULATING = (
    "recovery_restarts",
    "recovery_replayed_records",
    "recovery_requeries_avoided_cents",
    "recovery_in_doubt_posts",
    "recovery_quarantined_journals",
)


def recovery_sidecar_path(journal_path: str | Path) -> Path:
    """The recovery-counter sidecar next to a journal file."""
    journal_path = Path(journal_path)
    return journal_path.with_name(journal_path.name + ".recovery.json")


def load_recovery_info(journal_path: str | Path) -> dict:
    """The accumulated recovery counters for a journal ({} if none)."""
    path = recovery_sidecar_path(journal_path)
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except ValueError:
        return {}


def update_recovery_info(journal_path: str | Path, **updates: Any) -> dict:
    """Merge counters into the journal's recovery sidecar (atomically).

    Keys in ``_SIDECAR_ACCUMULATING`` add to the stored value — the
    sidecar outlives each child process, so it is the channel through
    which a supervisor and CI see ``recovery_*`` totals across restarts —
    and every other key overwrites.  Returns the updated document.
    """
    data = load_recovery_info(journal_path)
    for key, value in updates.items():
        if key in _SIDECAR_ACCUMULATING:
            data[key] = data.get(key, 0) + value
        else:
            data[key] = value
    path = recovery_sidecar_path(journal_path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, sort_keys=True, indent=2))
    os.replace(tmp, path)
    return data


def heartbeat_writer(path: str | Path) -> Callable[..., None]:
    """A callback that freshens ``path``'s mtime (the watchdog signal).

    Touches once immediately — liveness starts at attach time — and on
    every call; pass it as :class:`CycleJournal`'s ``on_record`` so each
    durable stage boundary doubles as a heartbeat.
    """
    path = Path(path)

    def beat(*_args: Any) -> None:
        path.touch()

    beat()
    return beat


# -- post-recovery invariant audit ----------------------------------------


def audit_recovery(
    system: "CrowdLearnSystem",
    outcome: "RunOutcome",
    journal: CycleJournal | None = None,
) -> dict:
    """Check the invariants a recovered run must satisfy.

    * **Ledger conservation** — ``total == spent + remaining`` and the
      charge/refund books balance: ``charged − refunded == spent``.
    * **Spend accounting** — the net ledger spend equals the sum of the
      cycles' ``cost_cents`` (a double-charged replayed post would break
      this before anything else).
    * **No duplicate query ids** — journaled posts carry strictly
      increasing, unique platform query ids.
    * **Label-set consistency** — every cycle's final labels/scores cover
      its dataset exactly, and its query indices are unique and in range.

    Returns ``{"ok": bool, "checks": {...}, "detail": {...}}``; callers
    decide whether a failed audit warns or aborts.
    """
    ledger = system.ledger
    checks: dict[str, bool] = {}
    detail: dict[str, Any] = {}
    checks["ledger_conservation"] = (
        abs(ledger.total - ledger.spent - ledger.remaining) < 1e-6
    )
    net = ledger.total_charged - ledger.total_refunded
    checks["ledger_books_balance"] = abs(net - ledger.spent) < 1e-6
    cost = float(sum(c.cost_cents for c in outcome.cycles))
    checks["spend_matches_outcomes"] = abs(net - cost) < 1e-4
    detail["ledger"] = {
        "total_cents": ledger.total,
        "charged_cents": ledger.total_charged,
        "refunded_cents": ledger.total_refunded,
        "spent_cents": ledger.spent,
        "remaining_cents": ledger.remaining,
        "outcome_cost_cents": cost,
    }
    if journal is not None:
        ids = journal.posted_query_ids
        checks["no_duplicate_query_ids"] = (
            len(ids) == len(set(ids))
            and all(a < b for a, b in zip(ids, ids[1:]))
        )
        detail["journaled_posts"] = len(ids)
    labels_ok = True
    for c in outcome.cycles:
        n = len(c.true_labels)
        indices = c.query_indices.tolist()
        if (
            len(c.final_labels) != n
            or len(c.final_scores) != n
            or len(indices) != len(set(indices))
            or any(i < 0 or i >= n for i in indices)
        ):
            labels_ok = False
            break
    checks["label_sets_consistent"] = labels_ok
    return {"ok": all(checks.values()), "checks": checks, "detail": detail}


# -- recovery orchestration -----------------------------------------------


@dataclass
class RecoveryResult:
    """What :func:`resume_run` produced."""

    outcome: "RunOutcome"
    system: "CrowdLearnSystem"
    #: Recovery counters and the invariant audit for this resume.
    info: dict = field(default_factory=dict)


def restore_run(
    checkpoint_path: str | Path,
    journal_path: str | Path,
    fresh: Callable[[], tuple] | None = None,
    on_record: Callable[[dict], None] | None = None,
) -> tuple:
    """Reopen a journaled deployment at its last checkpoint.

    Loads the checkpoint (or, when none was written yet and ``fresh`` is
    given, rebuilds the deployment from scratch — the journal then replays
    from cycle 0), **disarms crash points** on the restored fault injector
    so an injected crash cannot loop forever, and reopens the journal at
    the checkpoint's cycle with :meth:`CycleJournal.resume`.  Returns
    ``(system, stream, outcome, next_cycle, journal, info)``, ``info``
    being the journal's resume report.  Both :func:`resume_run` and the
    serving layer's per-event restore go through here.
    """
    from repro.eval.persistence import load_checkpoint

    checkpoint_path = Path(checkpoint_path)
    if checkpoint_path.exists():
        system, stream, outcome, next_cycle = load_checkpoint(checkpoint_path)
    else:
        if fresh is None:
            raise FileNotFoundError(
                f"no checkpoint at {checkpoint_path} and no fresh-run "
                "factory to rebuild the deployment from"
            )
        from repro.core.system import RunOutcome

        system, stream = fresh()
        outcome = RunOutcome()
        next_cycle = 0
    injector = system.platform.faults
    if injector is not None:
        injector.disarm_crashes()
    journal, info = CycleJournal.resume(
        journal_path, next_cycle, crash_injector=injector,
        on_record=on_record,
    )
    return system, stream, outcome, next_cycle, journal, info


def resume_run(
    checkpoint_path: str | Path,
    journal_path: str | Path,
    fresh: Callable[[], tuple] | None = None,
    on_record: Callable[[dict], None] | None = None,
) -> RecoveryResult:
    """Resume a journaled deployment after a crash.

    Restores the deployment with :func:`restore_run` and re-runs the
    remaining cycles, checkpointing after each.  Journaled posts are
    served from the log (never re-posted, never re-charged); every other
    re-executed boundary is verified against its record.

    Emits ``recovery_*`` telemetry counters on the system's pipeline,
    accumulates the same counters in the journal's recovery sidecar (the
    cross-process channel a supervisor reads), and finishes with
    :func:`audit_recovery`.
    """
    system, stream, outcome, next_cycle, journal, info = restore_run(
        checkpoint_path, journal_path, fresh=fresh, on_record=on_record,
    )
    info["resumed_at_cycle"] = next_cycle
    update_recovery_info(
        journal_path,
        recovery_restarts=1,
        recovery_in_doubt_posts=info["in_doubt_posts"],
        recovery_quarantined_journals=int(info["quarantined"] is not None),
        last_resume_cycle=next_cycle,
    )
    try:
        outcome = system._run_from(
            stream, outcome, next_cycle, checkpoint_path, journal=journal,
        )
    finally:
        journal.close()
    audit = audit_recovery(system, outcome, journal)
    info["replayed_records"] = journal.replayed_records
    info["requeries_avoided_cents"] = journal.requeries_avoided_cents
    info["audit"] = audit
    tel = system._telemetry()
    if tel.enabled:
        tel.counter(
            "recovery_restarts", help="times a run resumed after a crash"
        ).inc()
        tel.counter(
            "recovery_replayed_records",
            help="journal records verified or served during replay",
        ).inc(journal.replayed_records)
        tel.counter(
            "recovery_requeries_avoided_cents",
            help="crowd spend served from the journal instead of re-posting",
        ).inc(journal.requeries_avoided_cents)
        if journal.in_doubt_posts:
            tel.counter(
                "recovery_in_doubt_posts",
                help="posts interrupted between intent and outcome",
            ).inc(journal.in_doubt_posts)
    update_recovery_info(
        journal_path,
        recovery_replayed_records=journal.replayed_records,
        recovery_requeries_avoided_cents=journal.requeries_avoided_cents,
        audit=audit,
    )
    return RecoveryResult(outcome=outcome, system=system, info=info)
