"""Service-level resilience tests: bulkheads, breakers, blast radius.

The contract under test (docs/SERVING.md): one faulted event never takes
the fleet down.  A tick that raises is caught by the bulkhead and parks
only its own event; a platform outage scoped to one event walks that
event down the degradation ladder into quarantine while every healthy
event's digest stays byte-identical to a no-fault run; the shared pool's
books stay conserved through release and re-water-fill; and the whole
drill survives a SIGKILL mid-quarantine plus a CLI resume.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crowd.faults import FaultPlan
from repro.eval.runner import prepare
from repro.serve import (
    CrowdLearnService,
    SharedCrowdPool,
    create_admission_policy,
    loadgen,
)


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=21, fast=True)


def poison(service, event_id):
    """Make one event's next tick raise mid-cycle (a bulkhead trip)."""
    deployment = service.registry.get(event_id)

    def boom(grant):
        raise RuntimeError("poisoned cycle")

    deployment.run_next_cycle = boom
    return deployment


class TestBulkhead:
    @pytest.fixture(scope="class")
    def clean_digests(self, setup):
        service = CrowdLearnService(setup)
        for event_id in ("a", "b", "c"):
            service.submit_event(event_id)
        service.drain()
        return service.digests()

    def test_poison_tick_quarantines_only_that_event(
        self, setup, clean_digests
    ):
        service = CrowdLearnService(setup)
        for event_id in ("a", "b", "c"):
            service.submit_event(event_id)
        poison(service, "b")
        service.drain()

        assert service.quarantined_events() == ["b"]
        health = service.health["b"]
        assert health.state == "quarantined"
        assert "RuntimeError" in health.quarantine_reason
        # A bulkhead trip is terminal: dirty mid-cycle state never probes.
        assert health.breaker.probe_window() is None
        # The survivors drained untouched, byte for byte.
        for event_id in ("a", "c"):
            assert service.registry.get(event_id).done
            assert service.digests()[event_id] == clean_digests[event_id]
        assert service.pool.conserved()

    def test_bulkhead_releases_grant_into_metered_books(self, setup):
        pool = SharedCrowdPool(
            capacity_per_cycle=4,
            policy=create_admission_policy("fair-share"),
            max_backlog=3,
        )
        service = CrowdLearnService(setup, pool=pool)
        for event_id in ("a", "b", "c"):
            service.submit_event(event_id)
        poison(service, "b")
        service.drain()

        assert service.quarantined_events() == ["b"]
        assert all(
            service.registry.get(event_id).done for event_id in ("a", "c")
        )
        totals = service.pool.totals()
        assert totals["quarantined"] > 0  # the tripped grant was released
        assert service.pool.conserved()
        assert service.pool.ledger("b").conserved()

    def test_quarantine_record_embeds_wal_post_mortem(self, setup, tmp_path):
        serve_dir = tmp_path / "fleet"
        service = CrowdLearnService(setup, serve_dir=serve_dir)
        service.submit_event("a")
        service.submit_event("b")
        service.step()  # one clean tick each, so b's WAL has rotated
        service.step()
        poison(service, "b")
        service.drain()
        service.close()

        records = [
            json.loads(line)["record"]
            for line in (serve_dir / "serve.journal").read_text().splitlines()
        ]
        quarantines = [r for r in records if r["kind"] == "quarantine"]
        assert len(quarantines) == 1
        wal = quarantines[0]["wal"]
        assert wal["exists"] is True
        assert wal["in_doubt_posts"] == 0  # trip hit before any post intent
        assert quarantines[0]["released_budget_cents"] > 0


class TestBreakerCounters:
    def test_clean_probe_counts_one_full_breaker_cycle(self, setup):
        """A transient outage opens the breaker once; after the cooldown
        one half-open probe runs clean and closes it again."""
        service = CrowdLearnService(setup, instrument=True)
        service.submit_event(
            "a", fault_plan=FaultPlan(outage_windows=((0, 8),))
        )
        service.drain()

        assert service.registry.get("a").done
        registry = service.telemetries["a"].registry
        for name in (
            "breaker_opened_total",
            "breaker_half_open_total",
            "breaker_closed_total",
        ):
            assert registry.value(name, event="a") == 1, name


class TestChaosLadder:
    """The full degradation ladder under an event-scoped outage."""

    @pytest.fixture(scope="class")
    def chaos(self, setup):
        clean = loadgen.reference_digests(
            setup, n_events=3, burst_images=6, burst_seed=2
        )
        faulted = loadgen.faulted_event_id(3)
        service = loadgen.build_service(
            setup,
            n_events=3,
            unmetered=True,
            fault_plans={faulted: loadgen.chaos_plan()},
        )
        loadgen.drive(service, burst_images=6, burst_seed=2)
        report = loadgen.build_report(
            service,
            1.0,
            {
                "bench": "serve-loadgen",
                "n_events": 3,
                "capacity_per_cycle": service.pool.capacity_per_cycle,
                "policy": "fair-share",
                "chaos": True,
                "faulted_event": faulted,
            },
            clean_digests=clean,
        )
        yield service, report, faulted
        service.close()

    def test_blast_radius_is_contained(self, chaos):
        service, report, faulted = chaos
        assert loadgen.check_report(report) == []
        section = report["chaos"]
        assert section["blast_radius_contained"]
        assert section["quarantined"] == [faulted]
        assert all(section["healthy_parity"].values())
        assert report["pool"]["conserved"]

    def test_ladder_walked_every_rung(self, chaos):
        service, report, faulted = chaos
        health = service.health[faulted]
        assert health.state == "quarantined"
        breaker = health.breaker
        assert breaker.state == "open"
        assert breaker.opened_total >= 1
        assert breaker.half_open_total >= 1  # recovery was attempted
        assert breaker.probe_window() is None  # ...and its budget spent
        grants = service.registry.get(faulted).grants
        full = grants[0]
        assert full > 0
        assert any(0 < g < full for g in grants)  # DEGRADED reduced batch
        assert 0 in grants  # BROWNOUT committee-only windows
        assert "probe" in report["chaos"]["quarantine_reasons"][faulted]

    def test_render_mentions_the_drill(self, chaos):
        _, report, _ = chaos
        rendered = loadgen.render_report(report)
        assert "[QUARANTINED]" in rendered
        assert "blast radius contained" in rendered

    def test_metered_chaos_keeps_books_conserved(self, setup):
        """Under a metered pool parity is off the table (freed capacity
        re-enters the water-fill), but conservation never is."""
        faulted = loadgen.faulted_event_id(3)
        service = loadgen.build_service(
            setup,
            n_events=3,
            max_backlog=2,
            fault_plans={faulted: loadgen.chaos_plan()},
        )
        loadgen.drive(service, burst_images=6, burst_seed=2)
        assert service.quarantined_events() == [faulted]
        assert all(
            d.done for d in service.registry.all()
            if d.event_id != faulted
        )
        totals = service.pool.totals()
        assert totals["quarantined"] > 0
        assert service.pool.conserved()
        for ledger in service.pool.ledgers.values():
            assert ledger.conserved()


class TestChaosSubprocess:
    """SIGKILL mid-quarantine, CLI resume, and the exit-code contract."""

    def _repro(self, tmp_path, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_sigkill_mid_quarantine_resume_and_exit_codes(self, tmp_path):
        fleet = str(tmp_path / "fleet")
        bench = str(tmp_path / "bench.json")
        killed = self._repro(
            tmp_path, "loadgen", "--chaos", "--serve-dir", fleet,
            "--output", bench, "--crash-at-tick", "15",
        )
        assert killed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

        resumed = self._repro(
            tmp_path, "loadgen", "--resume", "--serve-dir", fleet,
            "--check", "--output", bench,
        )
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads(Path(bench).read_text())
        assert report["chaos"]["blast_radius_contained"]
        assert report["pool"]["conserved"]

        # Exit code 5: completed, but with quarantined events.
        served = self._repro(
            tmp_path, "serve", "--resume", "--serve-dir", fleet,
        )
        assert served.returncode == 5, served.stderr
        assert "[QUARANTINED]" in served.stdout
        assert "quarantined" in served.stderr
