"""System-level tests for the learning-loop guardrails.

Covers the three deployment-shaped guarantees from the guards work:

- a *lenient but enabled* policy (thresholds no real run can cross) is
  byte-identical to a guards-disabled run, so the guarded code path itself
  is side-effect-free;
- a checkpointed deployment with hardened guards under adversarial label
  faults resumes bit-for-bit, guard memory included;
- the paired guard-chaos experiment shows guards-on holding up at least as
  well as guards-off with interventions actually on record.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.core.guards import GuardPolicy, Snapshot, SnapshotRing
from repro.core.system import CrowdLearnSystem, RunOutcome
from repro.crowd.faults import FaultInjector
from repro.eval.experiments import adversarial_label_plan, run_guard_chaos
from repro.eval.journal import resume_run
from repro.eval.persistence import run_outcome_digest, save_checkpoint
from repro.eval.runner import build_crowdlearn, prepare
from repro.models.base import DDAModel


def lenient_policy() -> GuardPolicy:
    """Every mechanism on, every threshold impossible to cross.

    Accuracies live in [0, 1] and disagreement rates in [0, 1], so none of
    these bounds can trigger; the run must match a disabled-guards run
    byte for byte.
    """
    return GuardPolicy(
        regression_tolerance=1.0,
        quarantine_threshold=0.0,
        readmit_threshold=0.0,
        drift_min_disagreement=1.0,
        max_update_ratio=1e9,
    )


def assert_runs_equal(a: RunOutcome, b: RunOutcome, guards: bool = True):
    assert len(a.cycles) == len(b.cycles)
    for ca, cb in zip(a.cycles, b.cycles):
        assert ca.cycle_index == cb.cycle_index
        np.testing.assert_array_equal(ca.true_labels, cb.true_labels)
        np.testing.assert_array_equal(ca.final_labels, cb.final_labels)
        np.testing.assert_array_equal(ca.final_scores, cb.final_scores)
        np.testing.assert_array_equal(ca.query_indices, cb.query_indices)
        np.testing.assert_array_equal(
            ca.incentives_cents, cb.incentives_cents
        )
        assert ca.crowd_delay == cb.crowd_delay
        assert ca.cost_cents == cb.cost_cents
        np.testing.assert_array_equal(ca.expert_weights, cb.expert_weights)
        if guards:
            assert ca.guards == cb.guards


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=0, fast=True)


class TestGuardParity:
    def test_lenient_enabled_matches_disabled(self, setup):
        """The guarded code path is inert when no guard ever intervenes.

        Stream, platform and system seeds are shared by name, so the only
        difference between the two runs is whether ``run_cycle`` goes
        through the guard plumbing at all.
        """
        outcomes = {}
        for name, policy in (
            ("lenient", lenient_policy()),
            ("disabled", GuardPolicy.disabled()),
        ):
            system = build_crowdlearn(
                setup, platform_name="guard-parity", guards=policy
            )
            outcomes[name] = system.run(setup.make_stream("guard-parity"))
        totals = outcomes["lenient"].guard_totals()
        assert not totals.any()  # snapshots only, no interventions
        assert totals.snapshots > 0  # ...but the guarded path really ran
        assert_runs_equal(
            outcomes["lenient"], outcomes["disabled"], guards=False
        )


class TestGuardedCheckpointResume:
    def build(self, setup) -> CrowdLearnSystem:
        injector = FaultInjector(
            adversarial_label_plan(),
            rng=setup.seeds.get("guard-resume-faults"),
        )
        return build_crowdlearn(
            setup,
            faults=injector,
            platform_name="guard-resume",
            guards=GuardPolicy.hardened(),
        )

    def test_resume_with_guards_matches_uninterrupted(self, setup, tmp_path):
        """Crash mid-run with live guard state, resume -> identical outcome.

        The hostile plan makes the hardened guards actually intervene, so
        the checkpoint must round-trip snapshot rings, accuracy EWMAs and
        the drift history, not just the committee and RNGs.
        """
        uninterrupted = self.build(setup).run(
            setup.make_stream("guard-resume")
        )
        assert uninterrupted.guard_totals().any()

        path = tmp_path / "guarded.ckpt"
        system = self.build(setup)
        stream = setup.make_stream("guard-resume")
        outcome = RunOutcome()
        k = 3  # crash after three completed cycles
        for t in range(k):
            outcome.append(system.run_cycle(stream.cycle(t)))
        save_checkpoint(path, system, stream, outcome, k)

        resumed = resume_run(path, tmp_path / "guarded.journal")
        assert_runs_equal(resumed.outcome, uninterrupted)


class TestSnapshotReuseParity:
    """Snapshots taken once per model version change no outcome."""

    def hostile_run(self, setup) -> RunOutcome:
        injector = FaultInjector(
            adversarial_label_plan(),
            rng=setup.seeds.get("guard-reuse-5-faults"),
        )
        system = build_crowdlearn(
            setup,
            faults=injector,
            platform_name="guard-reuse-5",
            guards=GuardPolicy.hardened(),
        )
        return system.run(setup.make_stream("guard-reuse-5"))

    def test_hardened_adversarial_run_matches_always_pickle(
        self, setup, monkeypatch
    ):
        reused = self.hostile_run(setup)
        totals = reused.guard_totals()
        assert totals.rollbacks >= 1
        assert totals.retrains_skipped >= 1

        def always_pickle_push(ring, obj, tag=""):
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            snapshot = Snapshot(
                payload=payload,
                sha256=hashlib.sha256(payload).hexdigest(),
                tag=tag,
            )
            ring._latest = snapshot
            return snapshot

        monkeypatch.setattr(SnapshotRing, "push", always_pickle_push)
        always = self.hostile_run(setup)
        assert always.guard_totals() == totals
        assert run_outcome_digest(always) == run_outcome_digest(reused)

    def test_no_retrain_run_pickles_each_expert_once(self, setup, monkeypatch):
        pickled = []
        real_dumps = pickle.dumps

        def counting_dumps(obj, *args, **kwargs):
            if isinstance(obj, DDAModel):
                pickled.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        config = dataclasses.replace(setup.config, mic_retrain=False)
        system = build_crowdlearn(
            setup, config=config, platform_name="guard-no-retrain"
        )
        outcome = system.run(setup.make_stream("guard-no-retrain"))
        n_experts = len(system.committee.experts)
        assert len(outcome.cycles) > 1
        for cycle in outcome.cycles:
            assert cycle.guards.snapshots == n_experts
        assert len(pickled) == n_experts
        assert {id(e) for e in pickled} == {
            id(e) for e in system.committee.experts
        }


class TestIncumbentSnapshotOnly:
    def test_guard_pickles_one_snapshot_per_expert(self, setup):
        """A retraining run leaves exactly the incumbents in the guard.

        The regression gate only ever restores the newest snapshot, so
        the pickled guard is its holdout slice plus one payload per
        expert and a little bookkeeping.
        """
        system = build_crowdlearn(setup, platform_name="guard-incumbent")
        outcome = system.run(setup.make_stream("guard-incumbent"))
        assert len(outcome.cycles) == setup.config.n_cycles
        assert outcome.guard_totals().snapshots > 0
        guard = system.guards
        restored = pickle.loads(pickle.dumps(guard))
        payload_bytes = 0
        for ring in restored._rings:
            held = []
            for value in vars(ring).values():
                held.extend(value if isinstance(value, list) else [value])
            snapshots = [value for value in held if isinstance(value, Snapshot)]
            assert len(snapshots) == 1
            payload_bytes += len(snapshots[0].payload)
        holdout_bytes = len(
            pickle.dumps(guard.holdout, protocol=pickle.HIGHEST_PROTOCOL)
        )
        guard_bytes = len(pickle.dumps(guard, protocol=pickle.HIGHEST_PROTOCOL))
        assert guard_bytes < holdout_bytes + payload_bytes + 64 * 1024


class TestGuardChaos:
    @pytest.fixture(scope="class")
    def data(self, setup):
        return run_guard_chaos(setup)

    def test_arms_and_completion(self, data, setup):
        assert data.arms == ("guards-on", "guards-off")
        for arm in data.arms:
            assert data.cycles_completed[arm] == setup.config.n_cycles
            assert 0.0 <= data.f1[arm] <= 1.0
            assert data.fault_events[arm] > 0

    def test_guards_hold_up_under_hostile_labels(self, data):
        """The acceptance bar: guards-on final-half F1 >= guards-off, with
        at least one rollback or quarantine actually recorded."""
        assert data.final_f1["guards-on"] >= data.final_f1["guards-off"]
        assert data.guards["rollbacks"] + data.guards["quarantines"] >= 1

    def test_interventions_bridge_to_telemetry(self, data):
        assert data.telemetry  # guards-on arm ran with a live registry
        for name, value in data.guards.items():
            assert data.telemetry[name] == value

    def test_render_mentions_everything(self, data):
        text = data.render()
        assert "Guard chaos" in text
        assert "guards-on" in text
        assert "guards-off" in text
        assert "final_half_f1" in text
        assert "Guard interventions" in text
