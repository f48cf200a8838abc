"""Crash/recovery tests for the serving layer.

The serve fault model (docs/FAULT_MODEL.md) promises that a SIGKILL at
any point leaves the fleet resumable with byte-identical results.  These
tests cover the kill windows in-process (abandoning a durable service
mid-run), the one genuinely asymmetric window — an event checkpoint made
durable but its serve-journal admission record lost — by truncating the
journal, and the real thing: a subprocess SIGKILLed via
``repro loadgen --crash-at-tick`` and resumed through the CLI.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crowd.faults import CrashPoint, FaultPlan, InjectedCrash
from repro.eval.journal import ENVELOPE_LINES, read_journal
from repro.eval.runner import prepare
from repro.serve import CrowdLearnService, SharedCrowdPool
from repro.serve.service import ServeJournalError


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=13, fast=True)


def make_service(setup, serve_dir=None):
    pool = SharedCrowdPool(capacity_per_cycle=4, max_backlog=3)
    return CrowdLearnService(setup, pool=pool, serve_dir=serve_dir)


def surge_timeline(service, interrupt_after=None):
    """Submit two events, burst the first mid-run, run to drain (or stop)."""
    service.submit_event("alpha", priority=2.0)
    service.submit_event("bravo")
    ticks = 0
    while True:
        if interrupt_after is not None and ticks >= interrupt_after:
            return
        if ticks == 5:
            service.ingest_images("alpha", n_images=8, burst_seed=42)
        if service.step() is None:
            return
        ticks += 1


@pytest.fixture(scope="module")
def reference(setup):
    """Digest and books of the uninterrupted surge timeline."""
    service = make_service(setup)
    surge_timeline(service)
    return service.combined_digest(), service.pool.totals()


class TestResume:
    @pytest.mark.parametrize("interrupt_after", [1, 5, 6, 9])
    def test_abandon_and_resume_matches_uninterrupted(
        self, setup, reference, tmp_path, interrupt_after
    ):
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        surge_timeline(service, interrupt_after=interrupt_after)
        # Simulate a crash: no close(), no further appends.
        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        # The burst must land if the crash predated it (same timeline).
        if not resumed.registry.get("alpha").bursts:
            while resumed.ticks < 5:
                resumed.step()
            resumed.ingest_images("alpha", n_images=8, burst_seed=42)
        resumed.drain()
        digest, totals = reference
        assert resumed.combined_digest() == digest
        assert resumed.pool.totals() == totals
        assert resumed.pool.conserved()
        resumed.close()

    def test_missing_tick_record_is_reconstructed(
        self, setup, reference, tmp_path
    ):
        """Kill window (c): event checkpoint durable, serve append lost."""
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        surge_timeline(service, interrupt_after=7)
        journal_path = serve_dir / "serve.journal"
        lines = journal_path.read_text().splitlines()
        assert json.loads(lines[-1])["record"]["kind"] == "tick"
        journal_path.write_text("\n".join(lines[:-1]) + "\n")

        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        records = read_journal(journal_path, ENVELOPE_LINES).records
        assert records[-1]["kind"] == "tick"
        assert records[-1].get("reconstructed") is True
        resumed.drain()
        digest, totals = reference
        assert resumed.combined_digest() == digest
        assert resumed.pool.totals() == totals
        resumed.close()

    def test_torn_tail_is_tolerated(self, setup, tmp_path):
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        service.submit_event("alpha")
        for _ in range(2):
            service.step()
        journal_path = serve_dir / "serve.journal"
        with open(journal_path, "a") as fh:
            fh.write('{"record": {"kind": "tick", "trunc')
        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        assert resumed.registry.get("alpha").next_cycle == 2
        resumed.close()

    def test_corrupt_middle_record_raises(self, setup, tmp_path):
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        service.submit_event("alpha")
        for _ in range(3):
            service.step()
        journal_path = serve_dir / "serve.journal"
        lines = journal_path.read_text().splitlines()
        lines[1] = lines[1].replace('"kind"', '"kinD"')
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServeJournalError, match="corrupt"):
            CrowdLearnService.resume(serve_dir, setup=setup)

    def test_corrupt_middle_event_journal_record_exits_3(
        self, setup, tmp_path
    ):
        """A bad event-journal line with intact records after it is
        refused, never truncated: dropping the later ``post`` records
        would re-post and re-charge their queries."""
        from repro.cli import main
        from repro.eval.journal import JournalError

        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        plan = FaultPlan(crash_points=(CrashPoint.parse("cqc:1:0:raise"),))
        service.submit_event("alpha", fault_plan=plan)
        with pytest.raises(InjectedCrash):
            while service.step() is not None:
                pass
        journal_path = serve_dir / "event-alpha.journal"
        stages = [r["stage"] for r in read_journal(journal_path).records]
        assert "post" in stages and stages[-1] == "cqc"
        lines = journal_path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"stage"', b'"stagE"')
        journal_path.write_bytes(b"\n".join(lines))

        with pytest.raises(JournalError, match="line 3 of"):
            CrowdLearnService.resume(serve_dir, setup=setup)
        resume = ["--serve-dir", str(serve_dir), "--resume"]
        assert main(["serve", *resume]) == 3
        assert main([
            "loadgen", *resume, "--output", str(tmp_path / "bench.json"),
        ]) == 3
        assert journal_path.read_bytes() == b"\n".join(lines)

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            CrowdLearnService.resume(tmp_path / "nowhere")

    def test_resume_restores_tick_counter(self, setup, tmp_path):
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        surge_timeline(service, interrupt_after=6)
        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        assert resumed.ticks == 6
        resumed.close()


#: The ladder and breaker thresholds exactly as serve manifests recorded
#: them under ``health_policy`` while they were settable.
RECORDED_HEALTH_POLICY = {
    "breaker": {
        "cooldown_windows": 2,
        "failure_threshold": 0.5,
        "max_probe_rounds": 2,
        "min_samples": 3,
        "probe_successes": 1,
        "window": 6,
    },
    "brownout_enter": 0.7,
    "brownout_exit": 0.4,
    "degraded_enter": 0.35,
    "degraded_exit": 0.15,
    "degraded_fraction": 0.5,
    "ewma_alpha": 0.5,
    "readmit_streak": 2,
}


def _set_manifest_health_policy(serve_dir, policy):
    path = serve_dir / "serve.json"
    manifest = json.loads(path.read_text())
    manifest["health_policy"] = policy
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


class TestFixedThresholds:
    """Resume runs the built-in thresholds and refuses a serve dir that
    recorded others, instead of honouring or ignoring them."""

    def test_matching_recorded_thresholds_resume(
        self, setup, reference, tmp_path
    ):
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        surge_timeline(service, interrupt_after=6)
        records = read_journal(serve_dir / "serve.journal", ENVELOPE_LINES).records
        breaker = records[-1]["health"]["alpha"]["breaker"]
        assert breaker["policy"] == RECORDED_HEALTH_POLICY["breaker"]
        _set_manifest_health_policy(serve_dir, RECORDED_HEALTH_POLICY)

        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        resumed.drain()
        digest, totals = reference
        assert resumed.combined_digest() == digest
        assert resumed.pool.totals() == totals
        resumed.close()

    def test_other_manifest_thresholds_are_refused(self, setup, tmp_path):
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        surge_timeline(service, interrupt_after=3)
        policy = dict(RECORDED_HEALTH_POLICY, degraded_fraction=0.25)
        _set_manifest_health_policy(serve_dir, policy)
        with pytest.raises(ServeJournalError, match="health_policy"):
            CrowdLearnService.resume(serve_dir, setup=setup)

    def test_other_journaled_breaker_thresholds_are_refused(
        self, setup, tmp_path
    ):
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        surge_timeline(service, interrupt_after=3)
        journal_path = serve_dir / "serve.journal"
        lines = journal_path.read_text().splitlines()
        record = json.loads(lines[-1])["record"]
        record["health"]["alpha"]["breaker"]["policy"]["window"] = 8
        lines[-1] = ENVELOPE_LINES.line(record)
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServeJournalError, match="breaker policy"):
            CrowdLearnService.resume(serve_dir, setup=setup)


def _set_manifest_fsync(serve_dir, policy):
    path = serve_dir / "serve.json"
    manifest = json.loads(path.read_text())
    manifest["fsync"] = policy
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


class TestOlderManifests:
    def test_recorded_fsync_policy_is_ignored(
        self, setup, reference, tmp_path
    ):
        """Manifests once recorded an fsync policy.  Syncing changes no
        record or digest, so such a serve dir resumes and drains to the
        uninterrupted digests."""
        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        surge_timeline(service, interrupt_after=6)
        _set_manifest_fsync(serve_dir, "rotate")

        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        resumed.drain()
        digest, totals = reference
        assert resumed.combined_digest() == digest
        assert resumed.pool.totals() == totals
        resumed.close()


class TestReopenedEvent:
    """A burst into a drained durable event reopens its write-ahead log."""

    def test_crash_in_reopened_cycle_replays_its_journal(
        self, setup, tmp_path
    ):
        twin = make_service(setup)
        twin.submit_event("alpha")
        twin.drain()
        twin.ingest_images("alpha", n_images=10, burst_seed=7)
        twin.drain()

        serve_dir = tmp_path / "fleet"
        service = make_service(setup, serve_dir=serve_dir)
        reopened_cycle = setup.config.n_cycles
        plan = FaultPlan(
            crash_points=(CrashPoint.parse(f"post:{reopened_cycle}:0:raise"),)
        )
        service.submit_event("alpha", fault_plan=plan)
        service.drain()
        service.ingest_images("alpha", n_images=10, burst_seed=7)
        with pytest.raises(InjectedCrash):
            service.step()

        journal_path = serve_dir / "event-alpha.journal"
        stages = [
            record["stage"]
            for record in read_journal(journal_path).records
            if record["cycle"] == reopened_cycle
        ]
        assert "post" in stages

        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        assert not journal_path.with_name(journal_path.name + ".stale").exists()
        resumed.drain()
        assert resumed.digests() == twin.digests()
        resumed.close()


class TestSigkillSubprocess:
    """The real crash drill: SIGKILL mid-run, supervised CLI resume."""

    def _loadgen(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen",
                "--seed", "13", "--events", "2",
                "--serve-dir", str(tmp_path / "fleet"),
                "--output", str(tmp_path / "bench.json"),
                *extra,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_sigkill_then_resume_reproduces_the_run(self, tmp_path):
        killed = self._loadgen(tmp_path, "--crash-at-tick", "5")
        assert killed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

        resumed = self._loadgen(tmp_path, "--resume", "--check")
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["service"]["drained"]
        assert report["pool"]["conserved"]

        # Same timeline, never interrupted, no durability.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        clean = subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen",
                "--seed", "13", "--events", "2",
                "--output", str(tmp_path / "clean.json"),
            ],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert clean.returncode == 0, clean.stderr
        clean_report = json.loads((tmp_path / "clean.json").read_text())
        assert (
            report["digests"]["combined"]
            == clean_report["digests"]["combined"]
        )
        assert (
            report["pool"]["totals"] == clean_report["pool"]["totals"]
        )
