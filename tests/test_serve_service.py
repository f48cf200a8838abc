"""Tests for the multi-event serving core: parity, isolation, backpressure."""

import pytest

from repro.data.stream import SensingCycleStream
from repro.eval.persistence import run_outcome_digest
from repro.eval.runner import build_crowdlearn, prepare
from repro.serve import (
    CrowdLearnService,
    SharedCrowdPool,
    create_admission_policy,
)


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=21, fast=True)


def standalone_digest(setup, event_id):
    """What the single-tenant loop produces under the event's names."""
    system = build_crowdlearn(
        setup,
        platform_name=f"event-{event_id}",
        seed=setup.seeds.seed_for(f"event-{event_id}"),
    )
    stream = SensingCycleStream(
        setup.test_set,
        n_cycles=setup.config.n_cycles,
        images_per_cycle=setup.config.images_per_cycle,
        cycles_per_context=setup.config.cycles_per_context,
        rng=setup.seeds.get(f"stream-event-{event_id}"),
    )
    return run_outcome_digest(system.run(stream))


@pytest.fixture(scope="module")
def alpha_digest(setup):
    return standalone_digest(setup, "alpha")


@pytest.fixture(scope="module")
def bravo_digest(setup):
    return standalone_digest(setup, "bravo")


def contended_service(setup, **kwargs):
    pool = SharedCrowdPool(
        capacity_per_cycle=4,
        policy=create_admission_policy(
            kwargs.pop("policy", "fair-share")
        ),
        max_backlog=kwargs.pop("max_backlog", 3),
    )
    return CrowdLearnService(setup, pool=pool, **kwargs)


class TestSingleEventParity:
    def test_n1_served_is_byte_identical_to_standalone(
        self, setup, alpha_digest
    ):
        service = CrowdLearnService(setup)
        service.submit_event("alpha")
        service.drain()
        assert service.digests()["alpha"] == alpha_digest

    def test_n2_unmetered_events_match_their_standalone_runs(
        self, setup, alpha_digest, bravo_digest
    ):
        """Cross-event isolation: RNG streams, the shared feature store and
        budget ledgers never leak between co-served events."""
        service = CrowdLearnService(setup)
        service.submit_event("alpha")
        service.submit_event("bravo")
        service.drain()
        digests = service.digests()
        assert digests["alpha"] == alpha_digest
        assert digests["bravo"] == bravo_digest
        # The isolation ran *through* the shared store.
        assert service.cache.stats()["feature_hits"] > 0


class TestInterleaving:
    def test_n3_contended_run_is_repeat_stable(self, setup):
        def run():
            service = contended_service(setup)
            for event_id in ("a", "b", "c"):
                service.submit_event(event_id)
            service.drain()
            return service.combined_digest(), service.pool.totals()

        (d1, t1), (d2, t2) = run(), run()
        assert d1 == d2
        assert t1 == t2
        assert t1["deferred"] + t1["shed"] > 0  # genuinely contended

    def test_ticks_round_robin_in_event_id_order(self, setup):
        service = contended_service(setup)
        for event_id in ("c", "a", "b"):  # submission order scrambled
            service.submit_event(event_id)
        order = [service.step() for _ in range(6)]
        assert order == ["a", "b", "c", "a", "b", "c"]

    def test_priority_policy_favours_hot_event(self, setup):
        pool = SharedCrowdPool(
            capacity_per_cycle=2,  # below the fleet's 4-query demand
            policy=create_admission_policy("priority"),
            max_backlog=3,
        )
        service = CrowdLearnService(setup, pool=pool)
        service.submit_event("hot", priority=5.0)
        service.submit_event("cold", priority=1.0)
        service.drain()
        pool = service.pool
        assert pool.ledger("hot").admitted > pool.ledger("cold").admitted
        assert pool.conserved()


class TestSubmission:
    def test_duplicate_event_rejected(self, setup):
        service = CrowdLearnService(setup)
        service.submit_event("dup")
        with pytest.raises(ValueError, match="already registered"):
            service.submit_event("dup")

    def test_path_unsafe_event_id_rejected(self, setup):
        service = CrowdLearnService(setup)
        for bad in ("", "a/b", "a b"):
            with pytest.raises(ValueError, match="path-safe"):
                service.submit_event(bad)

    def test_event_status_books(self, setup):
        service = CrowdLearnService(setup)
        service.submit_event("solo")
        service.drain()
        status = service.event_status("solo")
        assert status.done
        assert status.next_cycle == status.n_cycles
        assert 0.0 < status.macro_f1 <= 1.0
        assert status.pool["requested"] == status.pool["admitted"]
        budget = status.budget
        assert budget["charged_cents"] - budget["refunded_cents"] == (
            pytest.approx(budget["spent_cents"])
        )
        assert status.latency_seconds["p99"] >= status.latency_seconds["p50"]

    def test_checkpoint_time_is_reported_apart_from_cycle_latency(
        self, setup, tmp_path
    ):
        memory = CrowdLearnService(setup)
        memory.submit_event("solo")
        memory.step()
        assert memory.event_status("solo").checkpoint_seconds == {
            "p50": 0.0, "mean": 0.0,
        }
        assert memory.registry.get("solo").checkpoint_wall_seconds == []

        durable = CrowdLearnService(setup, serve_dir=tmp_path / "fleet")
        durable.submit_event("solo")
        durable.step()
        durable.step()
        status = durable.event_status("solo")
        assert status.checkpoint_seconds["p50"] > 0.0
        assert status.checkpoint_seconds["mean"] > 0.0
        deployment = durable.registry.get("solo")
        assert len(deployment.checkpoint_wall_seconds) == 2
        assert len(deployment.cycle_wall_seconds) == 2
        durable.close()


class TestIngest:
    def test_burst_extends_stream_and_reopens_event(self, setup):
        service = CrowdLearnService(setup)
        deployment = service.submit_event("surge")
        service.drain()
        assert deployment.done
        added = service.ingest_images("surge", n_images=12, burst_seed=9)
        assert added == 3  # 12 images / 5 per cycle, ragged final cycle
        assert not deployment.done
        service.drain()
        assert deployment.next_cycle == deployment.n_cycles

    def test_burst_image_ids_never_alias_the_world(self, setup):
        service = CrowdLearnService(setup)
        deployment = service.submit_event("re-id")
        service.ingest_images("re-id", n_images=7, burst_seed=3)
        service.ingest_images("re-id", n_images=7, burst_seed=3)
        ids = [img.metadata.image_id for img in deployment.stream._images]
        assert len(ids) == len(set(ids))  # two identical bursts, no clash

    def test_generated_burst_requires_seed(self, setup):
        service = CrowdLearnService(setup)
        service.submit_event("strict")
        with pytest.raises(ValueError, match="burst_seed"):
            service.ingest_images("strict", n_images=5)


class TestInMemoryRecords:
    def test_no_journal_builds_no_record(self, setup, monkeypatch):
        """Without a serve dir, ticks, windows, bursts and drains build no
        journal record: the pool and health snapshots are never taken."""
        from repro.serve.health import EventHealth

        def refuse(self):
            raise AssertionError("snapshot taken without a journal")

        monkeypatch.setattr(SharedCrowdPool, "snapshot", refuse)
        monkeypatch.setattr(EventHealth, "snapshot", refuse)
        service = contended_service(setup)
        service.submit_event("alpha")
        service.submit_event("bravo")
        service.step()
        service.ingest_images("alpha", n_images=6, burst_seed=4)
        assert service.drain() > 0


class TestTelemetryIsolation:
    def test_two_deployments_have_disjoint_counter_sets(self, setup):
        """Satellite regression: per-event pipelines must not share the
        process-global default (the old singleton bug)."""
        service = contended_service(setup, instrument=True)
        service.submit_event("x")
        service.submit_event("y")
        service.drain()
        keys = {}
        for event_id in ("x", "y"):
            telemetry = service.telemetries[event_id]
            instruments = list(telemetry.registry)
            assert instruments, f"event {event_id} recorded no metrics"
            for instrument in instruments:
                assert ("event", event_id) in instrument.labels
            keys[event_id] = {
                (i.name, i.labels) for i in instruments
            }
        assert keys["x"].isdisjoint(keys["y"])


def _bovw_stores(service, event_id):
    from repro.models.bovw_model import BoVWModel

    system = service.registry.get(event_id).system
    return [
        e.feature_store for e in system.committee.experts
        if isinstance(e, BoVWModel)
    ]


class TestCacheNamespacing:
    def test_events_share_physical_stores_but_not_keys(self, setup):
        """Events share the fleet's one feature store; each event's guard
        keeps its own holdout-score memo, and the service sums them."""
        service = CrowdLearnService(setup)
        service.submit_event("one")
        service.submit_event("two")
        assert _bovw_stores(service, "one") == [service.features]
        assert _bovw_stores(service, "two") == [service.features]
        guard_one = service.registry.get("one").system.guards
        guard_two = service.registry.get("two").system.guards
        assert guard_one.score_stats is not guard_two.score_stats
        service.drain()
        stats = service.cache.stats()
        assert stats["prediction_hits"] == (
            guard_one.score_stats.hits + guard_two.score_stats.hits
        ) > 0
        assert stats["feature_hits"] == service.features.stats.hits > 0

    def test_restored_event_rejoins_the_shared_store(self, setup, tmp_path):
        """An event restored from its checkpoint encodes into the resumed
        fleet's store, not the empty copy its checkpoint carried."""
        serve_dir = tmp_path / "fleet"
        service = CrowdLearnService(setup, serve_dir=serve_dir)
        service.submit_event("one")
        service.submit_event("two")
        for _ in range(4):
            service.step()
        assert service.registry.get("one").next_cycle > 0
        resumed = CrowdLearnService.resume(serve_dir, setup=setup)
        try:
            for event_id in ("one", "two"):
                assert _bovw_stores(resumed, event_id) == [resumed.features]
            misses = resumed.features.stats.misses
            resumed.drain()
            assert resumed.features.stats.misses > misses
            assert resumed.cache.stats()["feature_hits"] > 0
        finally:
            resumed.close()
            service.close()


class TestLoadgen:
    def test_report_passes_its_own_gates(self, setup):
        from repro.serve import loadgen

        service = loadgen.build_service(setup, n_events=2, max_backlog=2)
        loadgen.drive(service, burst_images=6, burst_seed=2)
        report = loadgen.build_report(service, 1.0, {
            "bench": "serve-loadgen", "n_events": 2,
            "capacity_per_cycle": service.pool.capacity_per_cycle,
            "policy": "fair-share",
        })
        assert loadgen.check_report(report) == []
        assert report["service"]["drained"]
        assert report["service"]["checkpoint_latency_seconds"] == {
            "p50": 0.0, "mean": 0.0,
        }
        assert report["pool"]["contended"]
        assert set(report["digests"]["per_event"]) == {
            "event-01", "event-02",
        }
        assert "serve loadgen" in loadgen.render_report(report)

    def test_check_report_catches_violations(self, setup):
        import copy

        from repro.serve import loadgen

        service = loadgen.build_service(setup, n_events=2)
        loadgen.drive(service, burst_images=0)
        report = loadgen.build_report(service, 1.0, {"n_events": 2})
        doctored = copy.deepcopy(report)
        doctored["pool"]["conserved"] = False
        doctored["service"]["drained"] = False
        doctored["pool"]["contended"] = False
        doctored["budget_cents"]["conserved"] = False
        failures = loadgen.check_report(doctored, p99_gate_seconds=0.0)
        assert len(failures) >= 4
        messages = "\n".join(failures)
        assert "conservation" in messages
        assert "drain" in messages
        assert "contention" in messages
        assert "p99" in messages


def _drained_fleet(setup, seeded: bool):
    """Four events on a half-demand fair-share pool, a burst into the first."""
    from repro.core.cache import BoundedCache

    pool = SharedCrowdPool(
        capacity_per_cycle=2 * setup.config.queries_per_cycle,
        policy=create_admission_policy("fair-share"),
    )
    service = CrowdLearnService(setup, pool=pool)
    if not seeded:
        service.features = BoundedCache(service.features.capacity)
    for i, priority in enumerate((2.0, 1.0, 1.5, 2.0)):
        service.submit_event(f"e{i}", priority=priority)
    while service.ticks < 4:
        service.step()
    service.ingest_images("e0", n_images=6, burst_seed=3)
    service.drain()
    return service


class TestSeededFeatureStore:
    def test_a_fleet_encodes_only_test_and_burst_images(self, setup):
        """The fleet's store starts with the base committee's features, so
        no event re-encodes a training or holdout image; outputs do not move."""
        from repro.core.cache import feature_stores

        (base,) = feature_stores(setup.base_committee.experts)
        base_keys = set(base._data)
        base_stats = (len(base), base.stats.hits, base.stats.misses)
        seeded = _drained_fleet(setup, seeded=True)
        empty = _drained_fleet(setup, seeded=False)
        assert seeded.quarantined_events() == []
        assert seeded.combined_digest() == empty.combined_digest()
        assert (len(base), base.stats.hits, base.stats.misses) == base_stats
        assert base_keys <= set(seeded.features._data)
        encoded = set(seeded.features._data) - base_keys
        test_ids = {image.image_id for image in setup.test_set}
        burst = {image_id for _, image_id in encoded if image_id not in test_ids}
        assert burst and min(burst) >= 1_000_000
        assert seeded.features.stats.misses == len(encoded)
        assert empty.features.stats.misses > seeded.features.stats.misses
