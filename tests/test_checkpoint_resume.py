"""Tests for deployment checkpointing (crash-recovery round trips)."""

import numpy as np
import pytest

from repro.core.system import RunOutcome
from repro.eval.journal import resume_run
from repro.eval.persistence import (
    cycle_outcome_from_dict,
    cycle_outcome_to_dict,
    load_checkpoint,
    run_outcome_from_dict,
    run_outcome_to_dict,
    save_checkpoint,
)
from repro.eval.runner import build_crowdlearn, prepare


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=5, fast=True)


@pytest.fixture(scope="module")
def uninterrupted(setup):
    system = build_crowdlearn(setup)
    return system.run(setup.make_stream("ckpt"))


def assert_outcomes_equal(a: RunOutcome, b: RunOutcome) -> None:
    assert len(a.cycles) == len(b.cycles)
    for ca, cb in zip(a.cycles, b.cycles):
        assert ca.cycle_index == cb.cycle_index
        assert ca.context == cb.context
        np.testing.assert_array_equal(ca.true_labels, cb.true_labels)
        np.testing.assert_array_equal(ca.final_labels, cb.final_labels)
        np.testing.assert_array_equal(ca.final_scores, cb.final_scores)
        np.testing.assert_array_equal(ca.query_indices, cb.query_indices)
        np.testing.assert_array_equal(ca.incentives_cents, cb.incentives_cents)
        assert ca.crowd_delay == cb.crowd_delay
        assert ca.cost_cents == cb.cost_cents
        np.testing.assert_array_equal(ca.expert_weights, cb.expert_weights)
        assert ca.resilience == cb.resilience
        assert ca.guards == cb.guards


class TestCheckpointResume:
    def test_resume_matches_uninterrupted(self, setup, uninterrupted, tmp_path):
        """Crash after cycle k, resume → bit-identical final outcome."""
        path = tmp_path / "deployment.ckpt"
        system = build_crowdlearn(setup)
        stream = setup.make_stream("ckpt")
        outcome = RunOutcome()
        k = 3  # simulate a crash after three completed cycles
        for t in range(k):
            outcome.append(system.run_cycle(stream.cycle(t)))
        save_checkpoint(path, system, stream, outcome, k)

        resumed = resume_run(path, tmp_path / "deployment.journal")
        assert_outcomes_equal(resumed.outcome, uninterrupted)

    def test_run_with_checkpointing_matches_plain_run(
        self, setup, uninterrupted, tmp_path
    ):
        path = tmp_path / "live.ckpt"
        system = build_crowdlearn(setup)
        outcome = system.run(setup.make_stream("ckpt"), checkpoint_path=path)
        assert_outcomes_equal(outcome, uninterrupted)
        # The final snapshot records the whole completed run.
        _, _, saved_outcome, next_cycle = load_checkpoint(path)
        assert next_cycle == setup.config.n_cycles
        assert_outcomes_equal(saved_outcome, uninterrupted)

    def test_atomic_write_leaves_no_tmp(self, setup, tmp_path):
        path = tmp_path / "a.ckpt"
        system = build_crowdlearn(setup)
        stream = setup.make_stream("ckpt")
        save_checkpoint(path, system, stream, RunOutcome(), 0)
        save_checkpoint(path, system, stream, RunOutcome(), 0)
        assert path.exists()
        assert not (tmp_path / "a.ckpt.tmp").exists()

    def test_invalid_inputs(self, setup, tmp_path):
        system = build_crowdlearn(setup)
        stream = setup.make_stream("ckpt")
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x", system, stream, RunOutcome(), -1)

    def test_version_mismatch_rejected(self, setup, tmp_path):
        import pickle

        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({"checkpoint_version": 999}))
        with pytest.raises(ValueError, match="checkpoint version"):
            load_checkpoint(path)

    def test_corrupt_file_rejected(self, setup, tmp_path):
        import pickle

        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"\x80\x04not really a pickle")
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_checkpoint(path)
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="not a snapshot"):
            load_checkpoint(path)

    def test_integrity_check_rejects_tampered_state(self, setup, tmp_path):
        """A bit flip inside the pickled state fails the SHA-256 check."""
        import pickle

        path = tmp_path / "tampered.ckpt"
        system = build_crowdlearn(setup)
        stream = setup.make_stream("ckpt")
        save_checkpoint(path, system, stream, RunOutcome(), 0)
        envelope = pickle.loads(path.read_bytes())
        state = bytearray(envelope["state"])
        state[len(state) // 2] ^= 0xFF
        envelope["state"] = bytes(state)
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ValueError, match="integrity check"):
            load_checkpoint(path)

    def test_missing_digest_rejected(self, setup, tmp_path):
        import pickle

        path = tmp_path / "nodigest.ckpt"
        system = build_crowdlearn(setup)
        stream = setup.make_stream("ckpt")
        save_checkpoint(path, system, stream, RunOutcome(), 0)
        envelope = pickle.loads(path.read_bytes())
        del envelope["sha256"]
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ValueError, match="not a snapshot"):
            load_checkpoint(path)


class TestOutcomeJsonRoundtrip:
    def test_cycle_outcome_roundtrip(self, uninterrupted):
        cycle = uninterrupted.cycles[0]
        restored = cycle_outcome_from_dict(cycle_outcome_to_dict(cycle))
        assert restored.cycle_index == cycle.cycle_index
        assert restored.context == cycle.context
        np.testing.assert_array_equal(restored.final_labels, cycle.final_labels)
        np.testing.assert_allclose(restored.final_scores, cycle.final_scores)
        assert restored.resilience == cycle.resilience
        assert restored.guards == cycle.guards

    def test_guards_default_when_absent(self, uninterrupted):
        """Pre-guardrails archives (no "guards" key) still load."""
        from repro.core.guards import GuardCounters

        data = cycle_outcome_to_dict(uninterrupted.cycles[0])
        del data["guards"]
        restored = cycle_outcome_from_dict(data)
        assert restored.guards == GuardCounters()

    def test_run_outcome_roundtrip_is_json_safe(self, uninterrupted):
        import json

        data = json.loads(json.dumps(run_outcome_to_dict(uninterrupted)))
        restored = run_outcome_from_dict(data)
        assert_outcomes_equal(restored, uninterrupted)

    def test_missing_field_raises(self, uninterrupted):
        data = cycle_outcome_to_dict(uninterrupted.cycles[0])
        del data["final_labels"]
        with pytest.raises(ValueError, match="missing field"):
            cycle_outcome_from_dict(data)


class TestIntegrityCheckNames:
    """CheckpointIntegrityError names the specific failing check."""

    @pytest.fixture()
    def checkpoint(self, setup, tmp_path):
        path = tmp_path / "named.ckpt"
        system = build_crowdlearn(setup)
        save_checkpoint(path, system, setup.make_stream("named"), RunOutcome(), 0)
        return path

    @staticmethod
    def _tamper(path, mutate):
        import pickle

        envelope = pickle.loads(path.read_bytes())
        mutate(envelope)
        path.write_bytes(pickle.dumps(envelope))

    def _check_of(self, path):
        from repro.eval.persistence import CheckpointIntegrityError

        with pytest.raises(CheckpointIntegrityError) as excinfo:
            load_checkpoint(path)
        return excinfo.value.check

    def test_format(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a pickle at all")
        assert self._check_of(path) == "format"

    def test_version(self, checkpoint):
        self._tamper(
            checkpoint, lambda env: env.update(checkpoint_version=999)
        )
        assert self._check_of(checkpoint) == "version"

    def test_version_5_refused(self, checkpoint):
        """A version-5 file pickles the old guard policy and snapshot ring
        layout; it is refused up front instead of failing mid-run."""
        self._tamper(checkpoint, lambda env: env.update(checkpoint_version=5))
        assert self._check_of(checkpoint) == "version"

    def test_version_6_refused(self, tmp_path):
        """A version-6 file pickles the deleted ``PredictionCache``; it is
        refused by the version check before its state is unpickled."""
        import hashlib
        import pickle

        state = b"crepro.core.cache\nPredictionCache\n)\x81."
        with pytest.raises(AttributeError):
            pickle.loads(state)  # what unpickling the state would do
        path = tmp_path / "v6.ckpt"
        path.write_bytes(pickle.dumps({
            "checkpoint_version": 6,
            "sha256": hashlib.sha256(state).hexdigest(),
            "length": len(state),
            "state": state,
        }))
        assert self._check_of(path) == "version"

    def test_length(self, checkpoint):
        self._tamper(
            checkpoint, lambda env: env.update(length=env["length"] + 1)
        )
        assert self._check_of(checkpoint) == "length"

    def test_sha256(self, checkpoint):
        def flip_one_byte(env):
            state = bytearray(env["state"])
            state[len(state) // 2] ^= 0xFF
            env["state"] = bytes(state)

        self._tamper(checkpoint, flip_one_byte)
        assert self._check_of(checkpoint) == "sha256"

    def test_error_is_value_error(self):
        from repro.eval.persistence import CheckpointIntegrityError

        assert issubclass(CheckpointIntegrityError, ValueError)
