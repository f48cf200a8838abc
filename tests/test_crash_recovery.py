"""Crash/recovery round trips over real deployments.

The property at stake: killing the loop at ANY journaled stage boundary
and resuming from the journal + checkpoint must produce the same
RunOutcome digest as the uninterrupted run, with no duplicate posted
query ids and a conserved budget ledger.
"""

import dataclasses

import pytest

from repro.core.system import RunOutcome
from repro.crowd.faults import (
    CrashPoint,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
)
from repro.eval.journal import (
    CycleJournal,
    audit_recovery,
    read_journal,
    restore_run,
    resume_run,
)
from repro.eval.persistence import run_outcome_digest
from repro.eval.runner import build_crowdlearn, fast_config, prepare
from repro.telemetry.runtime import Telemetry
from repro.utils.rng import SeedSequencer

SEED = 7
N_CYCLES = 3


@pytest.fixture(scope="module")
def setup():
    config = dataclasses.replace(
        fast_config(), n_cycles=N_CYCLES, images_per_cycle=3
    )
    return prepare(seed=SEED, config=config, fast=True)


def run_cycles(system, stream, journal):
    """Drive every cycle with one journal that is never rotated.

    ``CrowdLearnSystem.run`` refuses a journal without a checkpoint path,
    so the journal-only runs here call ``run_cycle`` directly.
    """
    outcome = RunOutcome()
    for t in range(len(stream)):
        outcome.append(system.run_cycle(stream.cycle(t), journal=journal))
    return outcome


def build(setup, crash_spec=None, scheduler=False, telemetry=None,
          **overrides):
    """The test world's system; ``overrides`` replace config fields."""
    config = dataclasses.replace(setup.config, **overrides)
    if scheduler:
        config = dataclasses.replace(config, scheduler_enabled=True)
    system = build_crowdlearn(setup, config=config, telemetry=telemetry)
    if crash_spec is not None:
        plan = FaultPlan(crash_points=(CrashPoint.parse(crash_spec),))
        system.platform.faults = FaultInjector(
            plan, SeedSequencer(SEED).get("faults")
        )
    return system


@pytest.fixture(scope="module")
def reference(setup, tmp_path_factory):
    """Uninterrupted journaled run: the parity digest + every boundary."""
    tmp = tmp_path_factory.mktemp("crash-reference")
    system = build(setup)
    journal = CycleJournal.create(tmp / "ref.journal")
    try:
        outcome = run_cycles(system, setup.make_stream("crash-ref"), journal)
    finally:
        journal.close()
    records = read_journal(tmp / "ref.journal").records
    return run_outcome_digest(outcome), records


def boundary_specs(records):
    """Every (stage, cycle, occurrence) a crash point could fire at."""
    counts = {}
    specs = []
    for record in records:
        if record["stage"] == "rotate":
            continue
        key = (record["stage"], record["cycle"])
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        specs.append(f"{record['stage']}:{record['cycle']}:{occurrence}:raise")
    return specs


def crash_then_resume(setup, spec, tmp_path, scheduler=False):
    """Run until the injected crash, then resume from journal+checkpoint."""
    safe = spec.replace(":", "_").replace("*", "any")
    ckpt = tmp_path / f"{safe}.ckpt"
    jrn = tmp_path / f"{safe}.journal"
    system = build(setup, crash_spec=spec, scheduler=scheduler)
    journal = CycleJournal.create(
        jrn, crash_injector=system.platform.faults
    )
    stream = setup.make_stream("crash-ref")
    with pytest.raises(InjectedCrash):
        try:
            system.run(stream, checkpoint_path=ckpt, journal=journal)
        finally:
            journal.close()
    crashed_before_checkpoint = not ckpt.exists()

    def fresh():
        return (
            build(setup, scheduler=scheduler),
            setup.make_stream("crash-ref"),
        )

    result = resume_run(ckpt, jrn, fresh=fresh)
    return result, crashed_before_checkpoint


class TestEveryBoundary:
    def test_killed_at_every_boundary_resumes_to_same_digest(
        self, setup, reference, tmp_path
    ):
        ref_digest, records = reference
        specs = boundary_specs(records)
        # 3 cycles x (cycle_start, qss, 3x(post_intent+post), cqc, guard,
        # retrain, cycle_end) boundaries
        assert len(specs) >= N_CYCLES * 10
        fresh_recoveries = 0
        for spec in specs:
            result, was_fresh = crash_then_resume(setup, spec, tmp_path)
            fresh_recoveries += was_fresh
            assert run_outcome_digest(result.outcome) == ref_digest, spec
            audit = result.info["audit"]
            assert audit["ok"], (spec, audit)
            ledger = result.system.ledger
            assert abs(ledger.total - ledger.spent - ledger.remaining) < 1e-6
            assert abs(
                ledger.total_charged - ledger.total_refunded - ledger.spent
            ) < 1e-6, spec
        # cycle-0 crashes happen before the first checkpoint: the resume
        # path must also work from a rebuilt (fresh) deployment
        assert fresh_recoveries > 0

    def test_crash_at_rotation_boundary(self, setup, reference, tmp_path):
        """A crash right after checkpoint+rotate resumes with nothing to
        replay — the snapshot already covers every journaled effect."""
        ref_digest, _ = reference
        result, _ = crash_then_resume(setup, "rotate:1:0:raise", tmp_path)
        assert run_outcome_digest(result.outcome) == ref_digest
        assert result.info["replayed_records"] == 0
        assert result.info["audit"]["ok"]

    def test_sparse_checkpoints_replay_whole_cycles(
        self, setup, reference, tmp_path
    ):
        """Journaled without a checkpoint: the journal alone carries cycles
        0-2, and a fresh rebuild replays all of them."""
        ref_digest, _ = reference
        jrn = tmp_path / "journal-only.journal"
        system = build(setup, crash_spec="cqc:2:0:raise")
        journal = CycleJournal.create(
            jrn, crash_injector=system.platform.faults
        )
        with pytest.raises(InjectedCrash):
            try:
                run_cycles(system, setup.make_stream("crash-ref"), journal)
            finally:
                journal.close()
        assert read_journal(jrn).base_cycle == 0

        def fresh():
            return build(setup), setup.make_stream("crash-ref")

        system, stream, _, next_cycle, journal, info = restore_run(
            tmp_path / "never-written.ckpt", jrn, fresh=fresh
        )
        assert next_cycle == 0
        assert info["replay_records"] > 2 * 10  # cycles 0 and 1 in full
        try:
            outcome = run_cycles(system, stream, journal)
        finally:
            journal.close()
        assert run_outcome_digest(outcome) == ref_digest
        # cycles 0-2's posts were journaled and must be served, not
        # re-posted
        assert journal.requeries_avoided_cents > 0
        assert not journal.replaying
        assert audit_recovery(system, outcome, journal)["ok"]

    def test_scheduler_run_recovers_to_parity_digest(
        self, setup, reference, tmp_path
    ):
        """The virtual-time scheduler keeps the scheduler-off parity
        guarantee across a crash: pending straggler events travel through
        the checkpoint and journaled posts restore their heap entries."""
        ref_digest, _ = reference
        result, _ = crash_then_resume(
            setup, "post:1:1:raise", tmp_path, scheduler=True
        )
        assert run_outcome_digest(result.outcome) == ref_digest
        assert result.info["audit"]["ok"]


class TestRecoveryAccounting:
    def test_replay_serves_posts_and_counts_spend(self, setup, tmp_path):
        result, _ = crash_then_resume(setup, "cqc:1:0:raise", tmp_path)
        info = result.info
        assert info["replayed_records"] > 0
        assert info["requeries_avoided_cents"] > 0
        sidecar_keys = info["audit"]["checks"]
        assert sidecar_keys["no_duplicate_query_ids"]
        assert sidecar_keys["ledger_conservation"]
        assert sidecar_keys["ledger_books_balance"]

    def test_audit_flags_double_charge(self, setup, reference, tmp_path):
        """A genuinely double-charged ledger fails the books-balance check."""
        result, _ = crash_then_resume(setup, "guard:1:0:raise", tmp_path)
        system, outcome = result.system, result.outcome
        assert audit_recovery(system, outcome)["ok"]
        system.ledger._spent -= 1.0  # simulate a lost/duplicated entry
        tampered = audit_recovery(system, outcome)
        assert not tampered["ok"]
        assert not tampered["checks"]["ledger_books_balance"]

    def test_divergent_journal_refuses_replay(self, setup, tmp_path):
        """A journal from a different world must not be replayed into this
        one: re-execution diverges and raises instead of forking history."""
        from repro.eval.journal import JournalReplayError

        ckpt = tmp_path / "div.ckpt"
        jrn = tmp_path / "div.journal"
        system = build(setup, crash_spec="cqc:1:0:raise")
        journal = CycleJournal.create(
            jrn, crash_injector=system.platform.faults
        )
        with pytest.raises(InjectedCrash):
            try:
                system.run(
                    setup.make_stream("crash-ref"),
                    checkpoint_path=ckpt,
                    journal=journal,
                )
            finally:
                journal.close()
        # corrupt the journaled history: flip a qss selection and re-seal
        # the record so the checksum passes but re-execution disagrees
        import json

        from repro.eval.journal import STAGE_LINES

        lines = jrn.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["stage"] == "qss":
                record["payload"]["indices"] = [0] * len(
                    record["payload"]["indices"]
                )
                del record["sha256"]
                lines[i] = STAGE_LINES.line(record)
                break
        jrn.write_text("\n".join(lines) + "\n")

        def fresh():
            return build(setup), setup.make_stream("crash-ref")

        with pytest.raises(JournalReplayError, match="diverged"):
            resume_run(ckpt, jrn, fresh=fresh)


def crowd_books(system):
    """Every worker's track record and every platform/straggler
    instrument's state: what booking a delivered post leaves behind."""
    platform = system.platform
    tracks = {
        worker.worker_id: platform.worker_track_record(worker.worker_id)
        for worker in platform.population.workers
    }
    instruments = {}
    for instrument in system.telemetry.registry:
        if instrument.name.startswith(("platform_", "stragglers_")):
            key = (instrument.name, instrument.labels)
            if instrument.kind == "histogram":
                instruments[key] = (
                    instrument.count, instrument.sum,
                    list(instrument.bucket_counts),
                )
            else:
                instruments[key] = instrument.value
    return tracks, instruments


class TestReplayBooking:
    """A journal-replayed post books exactly what its live post booked."""

    #: Scheduler on, with 150 s cycles and a one-cycle straggler window:
    #: posts see late, scheduled and expired responses alike.
    TIGHT = {"scheduler_enabled": True, "cycle_seconds": 150.0,
             "straggler_max_cycles": 1}

    @pytest.mark.parametrize("world", [{}, TIGHT], ids=["sync", "tight"])
    def test_resumed_crowd_books_match_uninterrupted(
        self, setup, tmp_path, world
    ):
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        system = build(setup, telemetry=Telemetry(), **world)
        journal = CycleJournal.create(ref_dir / "ref.journal")
        try:
            outcome = system.run(
                setup.make_stream("crash-ref"),
                checkpoint_path=ref_dir / "ref.ckpt",
                journal=journal,
            )
        finally:
            journal.close()
        expected = crowd_books(system)
        tracks, instruments = expected
        assert any(graded for graded, _ in tracks.values())
        assert instruments[("platform_queries_total", ())] > 0
        if world:
            assert instruments[("platform_late_responses_total", ())] > 0
            assert instruments[("stragglers_expired_total", ())] > 0

        spec = "post:1:0:raise"
        ckpt, jrn = tmp_path / "crash.ckpt", tmp_path / "crash.journal"
        crashed = build(
            setup, crash_spec=spec, telemetry=Telemetry(), **world
        )
        journal = CycleJournal.create(
            jrn, crash_injector=crashed.platform.faults
        )
        with pytest.raises(InjectedCrash):
            try:
                crashed.run(
                    setup.make_stream("crash-ref"),
                    checkpoint_path=ckpt, journal=journal,
                )
            finally:
                journal.close()
        result = resume_run(ckpt, jrn)
        assert result.info["requeries_avoided_cents"] > 0
        assert run_outcome_digest(result.outcome) == run_outcome_digest(
            outcome
        )
        assert crowd_books(result.system) == expected


class TestJournalNeedsCheckpoint:
    def test_run_refuses_journal_without_checkpoint(self, setup, tmp_path):
        """A journal ``run`` never rotates could not be replayed after a
        crash past cycle 0, so ``run`` refuses it before any cycle runs."""
        system = build(setup)
        journal = CycleJournal.create(tmp_path / "lone.journal")
        written = journal.records_written
        try:
            with pytest.raises(ValueError, match="checkpoint_path"):
                system.run(setup.make_stream("crash-ref"), journal=journal)
        finally:
            journal.close()
        assert journal.records_written == written
        assert system.ledger.spent == 0
