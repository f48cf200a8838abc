"""System-level telemetry guarantees.

The contracts every perf PR will lean on: enabling telemetry never changes
what the closed loop computes (outcomes are byte-identical with no-op,
explicit-null, and live telemetry), the instrument values agree with the
outcomes, and telemetry history survives checkpoint/resume.
"""

import pickle

import numpy as np
import pytest

from repro.core.system import RunOutcome
from repro.eval.journal import resume_run
from repro.eval.persistence import load_checkpoint, save_checkpoint
from repro.eval.runner import build_crowdlearn, prepare
from repro.telemetry import NULL_TELEMETRY, Telemetry

STREAM = "tel-int"


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=11, fast=True)


def run_once(setup, telemetry):
    system = build_crowdlearn(
        setup, platform_name=STREAM, telemetry=telemetry
    )
    return system, system.run(setup.make_stream(STREAM))


def assert_outcomes_equal(a: RunOutcome, b: RunOutcome) -> None:
    assert len(a.cycles) == len(b.cycles)
    for ca, cb in zip(a.cycles, b.cycles):
        np.testing.assert_array_equal(ca.final_labels, cb.final_labels)
        np.testing.assert_array_equal(ca.final_scores, cb.final_scores)
        np.testing.assert_array_equal(ca.query_indices, cb.query_indices)
        np.testing.assert_array_equal(ca.incentives_cents, cb.incentives_cents)
        assert ca.crowd_delay == cb.crowd_delay
        assert ca.cost_cents == cb.cost_cents
        assert ca.resilience == cb.resilience


@pytest.fixture(scope="module")
def baseline(setup):
    """The uninstrumented run (process default: no-op singleton)."""
    _, outcome = run_once(setup, telemetry=None)
    return outcome


class TestNoOpIsIdentical:
    def test_explicit_null_outcome_unchanged(self, setup, baseline):
        _, outcome = run_once(setup, telemetry=NULL_TELEMETRY)
        assert_outcomes_equal(outcome, baseline)

    def test_enabled_outcome_unchanged(self, setup, baseline):
        _, outcome = run_once(setup, telemetry=Telemetry())
        assert_outcomes_equal(outcome, baseline)

    def test_null_records_nothing(self, setup, baseline):
        assert NULL_TELEMETRY.tracer.spans == []
        assert len(NULL_TELEMETRY.registry) == 0


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def traced(self, setup):
        telemetry = Telemetry()
        system, outcome = run_once(setup, telemetry=telemetry)
        return telemetry, system, outcome

    def test_every_stage_traced(self, traced):
        telemetry, _, outcome = traced
        names = {s.name for s in telemetry.tracer.spans}
        for stage in ("cycle", "cycle.committee", "cycle.qss", "cycle.crowd",
                      "cycle.ipd.price", "platform.post_query", "cycle.cqc",
                      "cycle.mic.reweight", "cycle.mic.retrain",
                      "cycle.ipd.observe"):
            assert stage in names, f"missing span {stage}"
        assert len(telemetry.tracer.by_name("cycle")) == len(outcome.cycles)

    def test_spans_nest_under_cycle(self, traced):
        telemetry, _, _ = traced
        ids = {s.span_id: s for s in telemetry.tracer.spans}
        for span in telemetry.tracer.by_name("cycle.qss"):
            assert ids[span.parent_id].name == "cycle"

    def test_retrain_spans_reach_attached_telemetry(self, traced):
        """Spans opened deep in MIC and the trainer go to the system's own
        telemetry even when it is not installed as the context default."""
        telemetry, _, _ = traced
        ids = {s.span_id: s for s in telemetry.tracer.spans}

        def ancestors(span):
            while span.parent_id is not None:
                span = ids[span.parent_id]
                yield span.name

        for name in ("cycle.mic.retrain.fit", "trainer.fit", "trainer.epoch"):
            spans = telemetry.tracer.by_name(name)
            assert spans, f"missing span {name}"
            for span in spans:
                assert "cycle" in ancestors(span)

    def test_counters_match_outcome(self, traced):
        telemetry, system, outcome = traced
        reg = telemetry.registry
        n_posted = sum(len(c.query_indices) for c in outcome.cycles)
        assert reg.value("queries_posted_total") == n_posted
        assert reg.value("cost_cents_total") == pytest.approx(
            outcome.total_cost_cents()
        )
        assert reg.value("cycles_total") == len(outcome.cycles)
        assert reg.value("budget_remaining_cents") == pytest.approx(
            system.ledger.remaining
        )
        # the platform saw at least the queries the system kept
        assert reg.value("platform_queries_total") >= n_posted

    def test_incentive_histogram_totals(self, traced):
        telemetry, _, outcome = traced
        hist = telemetry.registry.get("incentive_cents")
        paid = np.concatenate(
            [c.incentives_cents for c in outcome.cycles]
        )
        assert hist.count == len(paid)
        assert hist.sum == pytest.approx(float(paid.sum()))

    def test_resilience_catalog_registered(self, traced):
        telemetry, _, _ = traced
        # fault-free run: the bridge still registers the catalog, all zero
        assert telemetry.registry.value("resilience_retries_total") == 0.0
        assert telemetry.registry.get("resilience_fallbacks_total") is not None


class TestCheckpointTelemetry:
    def test_resume_preserves_history(self, setup, baseline, tmp_path):
        path = tmp_path / "tel.ckpt"
        telemetry = Telemetry()
        system = build_crowdlearn(
            setup, platform_name=STREAM, telemetry=telemetry
        )
        stream = setup.make_stream(STREAM)
        outcome = RunOutcome()
        k = 2  # simulated crash after two completed cycles
        for t in range(k):
            outcome.append(system.run_cycle(stream.cycle(t)))
        cycles_before = telemetry.registry.value("cycles_total")
        assert cycles_before == k
        save_checkpoint(path, system, stream, outcome, k)

        restored_system, _, _, _ = load_checkpoint(path)
        restored_tel = restored_system.telemetry
        assert restored_tel is not None and restored_tel.enabled
        assert restored_tel.registry.value("cycles_total") == k
        assert len(restored_tel.tracer.by_name("cycle")) == k

        resumed = resume_run(path, tmp_path / "tel.journal")
        assert_outcomes_equal(resumed.outcome, baseline)
        # the resumed system's telemetry kept counting past the crash
        final_system, _, _, _ = load_checkpoint(path)
        assert final_system.telemetry.registry.value("cycles_total") == len(
            baseline.cycles
        )

    def test_snapshot_stored_in_payload(self, setup, tmp_path):
        path = tmp_path / "snap.ckpt"
        telemetry = Telemetry()
        system = build_crowdlearn(
            setup, platform_name=STREAM, telemetry=telemetry
        )
        stream = setup.make_stream(STREAM)
        outcome = RunOutcome()
        outcome.append(system.run_cycle(stream.cycle(0)))
        save_checkpoint(path, system, stream, outcome, 1)
        payload = pickle.loads(path.read_bytes())
        snap = payload["telemetry"]
        assert snap["n_spans"] > 0
        assert snap["stages"]["cycle"]["count"] == 1

    def test_uninstrumented_checkpoint_has_no_snapshot(self, setup, tmp_path):
        path = tmp_path / "plain.ckpt"
        system = build_crowdlearn(setup, platform_name=STREAM)
        stream = setup.make_stream(STREAM)
        save_checkpoint(path, system, stream, RunOutcome(), 0)
        payload = pickle.loads(path.read_bytes())
        assert payload["telemetry"] is None
