"""Unit tests for the write-ahead cycle journal (no deployments here;

crash/resume round trips over real runs live in test_crash_recovery.py).
"""

import json

import pytest

from repro.crowd.faults import CrashPoint, FaultInjector, FaultPlan, InjectedCrash
from repro.crowd.tasks import QuestionnaireAnswers, WorkerResponse
from repro.data.metadata import DamageLabel, SceneType
from repro.eval.journal import (
    ENVELOPE_LINES,
    STAGE_LINES,
    CycleJournal,
    JournalError,
    JournalReplayError,
    append_synced,
    decode_response,
    encode_response,
    heartbeat_writer,
    load_recovery_info,
    read_intact,
    read_journal,
    recovery_sidecar_path,
    repair_tail,
    update_recovery_info,
    wal_tail_summary,
)
from repro.serve.service import ServeJournalError
from repro.utils.rng import SeedSequencer


def write_sample(path, n_cycles=2):
    journal = CycleJournal.create(path)
    for cycle in range(n_cycles):
        journal.append(cycle, "cycle_start", {"context": "day"})
        journal.append(cycle, "qss", {"indices": [cycle, cycle + 1]})
        journal.append(cycle, "cycle_end", {"cost_cents": 10.0 * cycle})
    journal.close()
    return journal


def write_serve_sample(path, n_cycles=2):
    """A ``serve.journal``-shaped log: 1 + 3 records per cycle, like
    :func:`write_sample`, appended the way the service appends."""
    with open(path, "w", encoding="utf-8") as fh:
        append_synced(fh, {"kind": "window", "window": 0}, ENVELOPE_LINES)
        for cycle in range(n_cycles):
            for kind in ("admit", "tick", "drained"):
                record = {"kind": kind, "event": "alpha", "cycle": cycle}
                append_synced(fh, record, ENVELOPE_LINES)


def reopen_event_journal(path):
    journal, info = CycleJournal.resume(path, 0)
    journal.close()
    return info["torn_lines"]


def reopen_serve_journal(path):
    """The read-and-repair ``CrowdLearnService.resume`` runs on reopen."""
    read = read_intact(path, ENVELOPE_LINES, ServeJournalError)
    repair_tail(path, read)
    return read.torn_lines


#: Both record logs share one reader and one set of tail rules; each
#: tail-rule test runs on both: (name, line format, sample writer, reopen
#: returning the torn lines it dropped, the error a corrupt log raises,
#: a record to append live).
LOGS = (
    ("event", STAGE_LINES, write_sample, reopen_event_journal, JournalError,
     {"seq": 99, "cycle": 9, "stage": "cqc", "payload": {"labels": [1]}}),
    ("serve", ENVELOPE_LINES, write_serve_sample, reopen_serve_journal,
     ServeJournalError, {"kind": "tick", "event": "bravo", "cycle": 9}),
)


class TestReadWrite:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.journal"
        write_sample(path)
        read = read_journal(path)
        assert read.torn_lines == 0
        assert read.base_cycle == 0
        assert read.max_cycle == 1
        stages = [r["stage"] for r in read.records]
        assert stages[0] == "rotate"
        assert stages.count("cycle_start") == 2
        # seq is dense and ordered
        assert [r["seq"] for r in read.records] == list(range(len(read.records)))

    def test_checksum_failure_ends_prefix(self, tmp_path):
        path = tmp_path / "j.journal"
        write_sample(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["payload"] = {"indices": [99]}  # tamper without re-checksumming
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        read = read_journal(path)
        assert len(read.records) == 2
        assert read.torn_lines == len(lines) - 2

    def test_torn_tail_tolerated(self, tmp_path):
        for name, lines, write, _, _, _ in LOGS:
            path = tmp_path / f"{name}.journal"
            write(path)
            intact = read_journal(path, lines)
            with open(path, "ab") as fh:
                fh.write(b'{"seq": 7, "cycle": 1, "stage": "cqc", "payl')
            read = read_journal(path, lines)
            assert len(read.records) == len(intact.records), name
            assert read.torn_lines == 1, name
            assert read.good_bytes == intact.good_bytes, name

    def test_resume_truncates_torn_tail(self, tmp_path):
        for name, lines, write, reopen, _, _ in LOGS:
            path = tmp_path / f"{name}.journal"
            write(path, n_cycles=1)
            with open(path, "ab") as fh:
                fh.write(b"garbage that never parses")
            assert reopen(path) == 1, name
            assert read_journal(path, lines).torn_lines == 0, name

    def test_resume_refuses_corrupt_middle_record(self, tmp_path):
        """A bad line with intact records after it is not a torn write:
        truncating there would drop the later ``post`` records and
        recovery would re-post and re-charge those queries."""
        for name, _, write, reopen, error, _ in LOGS:
            path = tmp_path / f"{name}.journal"
            write(path, n_cycles=1)
            before = path.read_bytes()
            lines = before.split(b"\n")
            lines[2] = lines[2].replace(b'"cycle"', b'"cyclX"')
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(error, match="line 3 of"):
                reopen(path)
            # Nothing was truncated or quarantined.
            assert path.read_bytes() == b"\n".join(lines), name
            assert not (tmp_path / f"{name}.journal.stale").exists(), name

    @pytest.mark.parametrize("blank", [b"", b"   "])
    def test_resume_refuses_blank_middle_line(self, tmp_path, blank):
        """A blank line is a bad line like any other: with lines after
        it, it cannot be a torn write, so reopening refuses the log."""
        for name, _, write, reopen, error, _ in LOGS:
            path = tmp_path / f"{name}.journal"
            write(path, n_cycles=1)
            lines = path.read_bytes().split(b"\n")
            lines.insert(2, blank)
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(error, match="line 3 of"):
                reopen(path)

    def test_resume_refuses_bad_line_before_blank_line(self, tmp_path):
        """Only the very last line can be torn: a bad line followed by
        even an empty line is corruption."""
        for name, _, write, reopen, error, _ in LOGS:
            path = tmp_path / f"{name}.journal"
            write(path, n_cycles=1)
            with open(path, "ab") as fh:
                fh.write(b'{"seq": 7, "payl\n\n')
            with pytest.raises(error, match="corrupt"):
                reopen(path)

    def test_resume_restores_lost_final_newline(self, tmp_path):
        """An intact last record whose newline was lost gets it back, so
        the next live append starts a line of its own instead of
        fusing onto it."""
        for name, lines, write, reopen, _, record in LOGS:
            path = tmp_path / f"{name}.journal"
            write(path, n_cycles=1)
            intact = read_journal(path, lines)
            path.write_bytes(path.read_bytes()[:-1])
            stripped = read_journal(path, lines)
            assert stripped.records == intact.records, name
            assert stripped.lost_newline, name
            assert reopen(path) == 0, name
            assert path.read_bytes().endswith(b"\n"), name
            with open(path, "a", encoding="utf-8") as fh:
                append_synced(fh, record, lines)
            read = read_journal(path, lines)
            assert read.torn_lines == 0, name
            assert read.records[:-1] == intact.records, name
            assert len(read.records) == len(intact.records) + 1, name

    def test_every_record_synced_once(self, tmp_path, monkeypatch):
        """Each record is fsynced as it is written; rotation and close
        add no sync of their own."""
        import repro.eval.journal as journal_module

        synced = []
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: synced.append(fd)
        )
        path = tmp_path / "j.journal"
        journal = CycleJournal.create(path)
        assert len(synced) == 1  # the rotate record heading the file
        journal.append(0, "qss", {"indices": [1, 2, 3]})
        assert len(synced) == 2
        journal.rotate(1)
        assert len(synced) == 3
        journal.close()
        assert len(synced) == 3
        read = read_journal(path)
        assert [r["stage"] for r in read.records] == ["rotate"]
        assert read.base_cycle == 1

    def test_append_after_close_raises(self, tmp_path):
        journal = CycleJournal.create(tmp_path / "j.journal")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append(0, "qss", {"indices": []})

    def test_rotate_starts_fresh_base(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = CycleJournal.create(path)
        journal.append(0, "cycle_start", {"context": "day"})
        journal.rotate(1)
        journal.append(1, "cycle_start", {"context": "night"})
        journal.close()
        read = read_journal(path)
        assert read.base_cycle == 1
        assert [r["stage"] for r in read.records] == ["rotate", "cycle_start"]


class TestReplay:
    def test_replay_verifies_and_drains(self, tmp_path):
        path = tmp_path / "j.journal"
        write_sample(path, n_cycles=1)
        journal, info = CycleJournal.resume(path, 0)
        assert info["replay_records"] == 3
        assert journal.replaying
        assert journal.peek_replay(0, "cycle_start") == {"context": "day"}
        assert journal.peek_replay(0, "qss") is None
        journal.append(0, "cycle_start", {"context": "day"})
        journal.append(0, "qss", {"indices": [0, 1]})
        journal.append(0, "cycle_end", {"cost_cents": 0.0})
        assert not journal.replaying
        assert journal.replayed_records == 3
        # live appends continue the same file with increasing seq
        record = journal.append(1, "cycle_start", {"context": "day"})
        journal.close()
        assert record["seq"] == 4

    def test_replay_divergence_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        write_sample(path, n_cycles=1)
        journal, _ = CycleJournal.resume(path, 0)
        with pytest.raises(JournalReplayError, match="diverged"):
            journal.append(0, "cycle_start", {"context": "night"})
        journal.close()

    def test_rotate_with_unreached_records_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        write_sample(path, n_cycles=1)
        journal, _ = CycleJournal.resume(path, 0)
        with pytest.raises(JournalReplayError, match="never"):
            journal.rotate(1)
        journal.close()

    def test_trailing_post_intent_is_in_doubt(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = CycleJournal.create(path)
        journal.append(0, "cycle_start", {"context": "day"})
        journal.append(0, "post_intent", {"index": 4, "arm": 1, "incentive": 5.0})
        journal.close()
        resumed, info = CycleJournal.resume(path, 0)
        resumed.close()
        assert info["in_doubt_posts"] == 1

    def test_lost_newline_keeps_journaled_post_for_replay(self, tmp_path):
        """A paid ``post`` that lost only its newline survives a resume,
        its replay, live appends and a second resume: it stays queued
        for replay, so it is never re-posted or re-charged."""
        path = tmp_path / "j.journal"
        post = {"kind": "posted", "query_id": 0, "paid": 5.0}
        journal = CycleJournal.create(path)
        journal.append(0, "cycle_start", {"context": "day"})
        journal.append(0, "post", post)
        journal.close()
        path.write_bytes(path.read_bytes()[:-1])

        journal, info = CycleJournal.resume(path, 0)
        assert info["replay_records"] == 2
        journal.append(0, "cycle_start", {"context": "day"})
        journal.append(0, "post", post)
        journal.append(0, "cqc", {"labels": [1]})
        journal.close()
        read = read_journal(path)
        assert read.torn_lines == 0
        assert [r["stage"] for r in read.records] == [
            "rotate", "cycle_start", "post", "cqc",
        ]

        journal, info = CycleJournal.resume(path, 0)
        assert info["torn_lines"] == 0
        assert info["replay_records"] == 3
        journal.append(0, "cycle_start", {"context": "day"})
        assert journal.peek_replay(0, "post") == post
        journal.close()

    def test_base_mismatch_quarantines(self, tmp_path):
        path = tmp_path / "j.journal"
        write_sample(path, n_cycles=1)
        journal, info = CycleJournal.resume(path, 3)
        journal.close()
        assert info["quarantined"] == str(path) + ".stale"
        assert (tmp_path / "j.journal.stale").exists()
        # the fresh journal is anchored at the checkpoint's cycle
        assert read_journal(path).base_cycle == 3
        # the quarantined file is intact for post-mortems
        assert read_journal(str(path) + ".stale").base_cycle == 0

    def test_missing_file_starts_fresh(self, tmp_path):
        journal, info = CycleJournal.resume(tmp_path / "none.journal", 2)
        journal.close()
        assert info["replay_records"] == 0
        assert read_journal(tmp_path / "none.journal").base_cycle == 2


class TestCrashPoints:
    def test_parse_full_spec(self):
        point = CrashPoint.parse("post:2:1:kill")
        assert (point.stage, point.cycle, point.occurrence, point.action) == (
            "post", 2, 1, "kill"
        )

    def test_parse_defaults(self):
        point = CrashPoint.parse("cqc")
        assert point.stage == "cqc"
        assert point.cycle is None
        assert point.occurrence == 0
        assert point.action == "raise"

    def test_parse_wildcard_cycle(self):
        assert CrashPoint.parse("qss:*").cycle is None
        assert CrashPoint.parse("qss:3").cycle == 3

    @pytest.mark.parametrize("spec", ["", "qss:x", "qss:1:0:explode"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            CrashPoint.parse(spec)

    def test_boundary_fires_at_occurrence(self):
        plan = FaultPlan(crash_points=(CrashPoint.parse("post:1:1"),))
        injector = FaultInjector(plan, SeedSequencer(0).get("faults"))
        injector.on_stage_boundary("post", 0)
        injector.on_stage_boundary("post", 1)  # occurrence 0: no fire
        with pytest.raises(InjectedCrash):
            injector.on_stage_boundary("post", 1)  # occurrence 1

    def test_disarm_prevents_crash_loop(self):
        plan = FaultPlan(crash_points=(CrashPoint.parse("cqc"),))
        injector = FaultInjector(plan, SeedSequencer(0).get("faults"))
        injector.disarm_crashes()
        injector.on_stage_boundary("cqc", 0)  # no raise

    def test_journal_append_survives_its_crash(self, tmp_path):
        plan = FaultPlan(crash_points=(CrashPoint.parse("qss:0"),))
        injector = FaultInjector(plan, SeedSequencer(0).get("faults"))
        path = tmp_path / "j.journal"
        journal = CycleJournal.create(path, crash_injector=injector)
        journal.append(0, "cycle_start", {"context": "day"})
        with pytest.raises(InjectedCrash):
            journal.append(0, "qss", {"indices": [5]})
        # the record the crash followed is already durable on disk
        read = read_journal(path)
        assert [r["stage"] for r in read.records] == [
            "rotate", "cycle_start", "qss",
        ]


class TestSidecarAndHeartbeat:
    def test_sidecar_accumulates_counters(self, tmp_path):
        journal_path = tmp_path / "j.journal"
        update_recovery_info(journal_path, recovery_restarts=1, note="a")
        update_recovery_info(journal_path, recovery_restarts=2, note="b")
        info = load_recovery_info(journal_path)
        assert info["recovery_restarts"] == 3  # accumulating key adds
        assert info["note"] == "b"  # plain key overwrites
        assert recovery_sidecar_path(journal_path).exists()

    def test_sidecar_missing_or_corrupt_is_empty(self, tmp_path):
        journal_path = tmp_path / "j.journal"
        assert load_recovery_info(journal_path) == {}
        recovery_sidecar_path(journal_path).write_text("{not json")
        assert load_recovery_info(journal_path) == {}

    def test_heartbeat_touches_on_attach_and_call(self, tmp_path):
        import os

        hb = tmp_path / "beat"
        beat = heartbeat_writer(hb)
        assert hb.exists()
        past = hb.stat().st_mtime - 100
        os.utime(hb, (past, past))
        beat({"seq": 0})
        assert hb.stat().st_mtime > past + 50


class TestWalTailSummary:
    """The serving layer's quarantine post-mortem over a WAL tail."""

    def test_missing_file(self, tmp_path):
        assert wal_tail_summary(tmp_path / "nope") == {"exists": False}

    def test_in_doubt_post_is_flagged(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = CycleJournal.create(path, next_cycle=3)
        journal.append(3, "cycle_start", {"cycle": 3})
        journal.append(3, "qss", {"indices": [0, 1]})
        journal.append(3, "post_intent", {"index": 0, "arm": 1})
        journal.close()
        summary = wal_tail_summary(path)
        assert summary["exists"] is True
        assert summary["base_cycle"] == 3
        assert summary["last_cycle"] == 3
        assert summary["last_stage"] == "post_intent"
        assert summary["in_doubt_posts"] == 1
        assert summary["journaled_posts"] == 0
        assert summary["torn_lines"] == 0

    def test_clean_rotated_journal_has_nothing_in_doubt(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = CycleJournal.create(path, next_cycle=0)
        journal.append(0, "post_intent", {"index": 0})
        journal.append(0, "post", {"kind": "posted", "query_id": 11})
        journal.append(0, "cycle_end", {"cost_cents": 2.0})
        summary = wal_tail_summary(path)
        assert summary["in_doubt_posts"] == 0
        assert summary["journaled_posts"] == 1
        journal.rotate(1)
        journal.close()
        rotated = wal_tail_summary(path)
        assert rotated == {
            "exists": True, "records": 1, "torn_lines": 0,
            "base_cycle": 1, "last_cycle": None, "last_stage": None,
            "in_doubt_posts": 0, "journaled_posts": 0,
        }


class TestResponseCodec:
    def test_roundtrip_with_questionnaire(self):
        response = WorkerResponse(
            worker_id=7,
            label=DamageLabel.SEVERE,
            questionnaire=QuestionnaireAnswers(
                says_fake=False,
                scene=SceneType.BUILDING,
                says_people_in_danger=True,
            ),
            delay_seconds=123.25,
        )
        decoded = decode_response(encode_response(response))
        assert decoded == response

    def test_roundtrip_without_questionnaire(self):
        response = WorkerResponse(
            worker_id=0, label=DamageLabel.NO_DAMAGE,
            questionnaire=None, delay_seconds=0.5,
        )
        assert decode_response(encode_response(response)) == response

    def test_encoding_is_json_safe(self):
        response = WorkerResponse(
            worker_id=3, label=DamageLabel.MODERATE,
            questionnaire=None, delay_seconds=9.0,
        )
        json.dumps(encode_response(response))
