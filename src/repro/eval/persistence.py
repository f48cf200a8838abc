"""Persistence for experiment results and deployment state.

Long benchmark runs deserve durable, diffable artifacts.  This module
serializes :class:`~repro.eval.baselines.SchemeResult` collections (the
output of :func:`~repro.eval.runner.run_all_schemes`) and per-cycle
:class:`~repro.core.system.CycleOutcome` records to plain JSON and back,
so runs can be archived, compared across seeds, or post-processed without
re-running anything.

It also provides *deployment checkpoints*: a binary snapshot of a live
:class:`~repro.core.system.CrowdLearnSystem` mid-run (committee parameters,
bandit posteriors, ledger, every RNG state, completed outcomes), written
atomically after each sensing cycle so a crashed deployment resumes from the
last completed cycle and reproduces the uninterrupted run bit-for-bit.
Checkpoints use :mod:`pickle` — they capture live numpy generator state,
which JSON cannot represent faithfully — and are therefore a same-version
crash-recovery format, not an archival one; use the JSON helpers for
archival.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.guards import GuardCounters
from repro.core.resilience import ResilienceCounters
from repro.eval.baselines import SchemeResult
from repro.utils.clock import TemporalContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports eval)
    from repro.core.system import CrowdLearnSystem, CycleOutcome, RunOutcome
    from repro.data.stream import SensingCycleStream
    from repro.eval.journal import CycleJournal

__all__ = ["scheme_result_to_dict", "scheme_result_from_dict",
           "save_results", "load_results",
           "cycle_outcome_to_dict", "cycle_outcome_from_dict",
           "run_outcome_to_dict", "run_outcome_from_dict",
           "json_digest", "run_outcome_digest",
           "CheckpointIntegrityError",
           "save_checkpoint", "commit_cycle", "load_checkpoint"]

_FORMAT_VERSION = 1
# Version 2 wraps the pickled deployment state in an envelope carrying its
# SHA-256 digest, so a truncated or bit-flipped checkpoint fails loudly at
# load time instead of resuming a silently corrupted deployment.
# Version 3 adds the state's byte length, so truncation is distinguishable
# from bit corruption (length vs sha256) in the load error.
# Version 4 requires every attribute a feature added after the first
# checkpoints (system scheduler/journal/cache/query cap, an always-present
# guard, cache namespace, telemetry base labels, platform post observer);
# older files fail the version check rather than loading without them.
# Version 5 drops the fused conv blocks, which a version-4 file may pickle.
# Version 6 collapses the guard policy to one switch and keeps one snapshot
# per expert; a version-5 file pickles the old policy and ring layout.
# Version 7 replaces the system's prediction cache with the guard's
# holdout-score memo and BoVW's own feature store; a version-6 file
# pickles the deleted ``PredictionCache``.
_CHECKPOINT_VERSION = 7


class CheckpointIntegrityError(ValueError):
    """A checkpoint failed to load, with the failing check identified.

    ``check`` names the first integrity check that failed: ``"format"``
    (unreadable pickle / not a snapshot envelope), ``"version"`` (written
    by an incompatible code version), ``"length"`` (state truncated or
    padded), or ``"sha256"`` (state bytes corrupted in place).  Subclasses
    :class:`ValueError` so existing ``except ValueError`` callers and
    tests keep working; ``repro run --resume`` maps it to a distinct
    nonzero exit code.
    """

    def __init__(self, message: str, check: str):
        super().__init__(message)
        self.check = check


def scheme_result_to_dict(result: SchemeResult) -> dict:
    """A JSON-safe dict capturing one scheme's full result."""
    return {
        "name": result.name,
        "y_true": result.y_true.tolist(),
        "y_pred": result.y_pred.tolist(),
        "scores": result.scores.tolist(),
        "crowd_delays": list(result.crowd_delays),
        "crowd_delay_contexts": [c.value for c in result.crowd_delay_contexts],
        "cost_cents": result.cost_cents,
    }


def scheme_result_from_dict(data: dict) -> SchemeResult:
    """Inverse of :func:`scheme_result_to_dict`."""
    try:
        return SchemeResult(
            name=data["name"],
            y_true=np.asarray(data["y_true"], dtype=np.int64),
            y_pred=np.asarray(data["y_pred"], dtype=np.int64),
            scores=np.asarray(data["scores"], dtype=np.float64),
            crowd_delays=[float(d) for d in data["crowd_delays"]],
            crowd_delay_contexts=[
                TemporalContext(c) for c in data["crowd_delay_contexts"]
            ],
            cost_cents=float(data["cost_cents"]),
        )
    except KeyError as missing:
        raise ValueError(f"result dict is missing field {missing}") from None


def save_results(
    results: dict[str, SchemeResult],
    path: str | Path,
    metadata: dict | None = None,
) -> Path:
    """Persist a scheme-name → result mapping to JSON.

    ``metadata`` (seed, config summary, timestamps...) is stored verbatim
    under the ``"metadata"`` key.
    """
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "metadata": metadata or {},
        "results": {
            name: scheme_result_to_dict(result)
            for name, result in results.items()
        },
    }
    # Temp file + rename: a crash mid-write can never leave a truncated
    # JSON file where a previous good result set used to be.
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
    return path


def load_results(path: str | Path) -> tuple[dict[str, SchemeResult], dict]:
    """Load (results, metadata) previously written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported results format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    results = {
        name: scheme_result_from_dict(data)
        for name, data in payload["results"].items()
    }
    return results, payload.get("metadata", {})


def cycle_outcome_to_dict(outcome: "CycleOutcome") -> dict:
    """A JSON-safe dict capturing one sensing cycle's full outcome."""
    return {
        "cycle_index": outcome.cycle_index,
        "context": outcome.context.value,
        "true_labels": outcome.true_labels.tolist(),
        "final_labels": outcome.final_labels.tolist(),
        "final_scores": outcome.final_scores.tolist(),
        "query_indices": outcome.query_indices.tolist(),
        "incentives_cents": outcome.incentives_cents.tolist(),
        "crowd_delay": outcome.crowd_delay,
        "cost_cents": outcome.cost_cents,
        "expert_weights": outcome.expert_weights.tolist(),
        "resilience": outcome.resilience.as_dict(),
        "guards": outcome.guards.as_dict(),
    }


def cycle_outcome_from_dict(data: dict) -> "CycleOutcome":
    """Inverse of :func:`cycle_outcome_to_dict`."""
    from repro.core.system import CycleOutcome

    try:
        return CycleOutcome(
            cycle_index=int(data["cycle_index"]),
            context=TemporalContext(data["context"]),
            true_labels=np.asarray(data["true_labels"], dtype=np.int64),
            final_labels=np.asarray(data["final_labels"], dtype=np.int64),
            final_scores=np.asarray(data["final_scores"], dtype=np.float64),
            query_indices=np.asarray(data["query_indices"], dtype=np.int64),
            incentives_cents=np.asarray(
                data["incentives_cents"], dtype=np.float64
            ),
            crowd_delay=float(data["crowd_delay"]),
            cost_cents=float(data["cost_cents"]),
            expert_weights=np.asarray(data["expert_weights"], dtype=np.float64),
            resilience=ResilienceCounters.from_dict(data.get("resilience", {})),
            guards=GuardCounters.from_dict(data.get("guards", {})),
        )
    except KeyError as missing:
        raise ValueError(f"cycle dict is missing field {missing}") from None


def run_outcome_to_dict(outcome: "RunOutcome") -> dict:
    """A JSON-safe dict capturing a whole deployment's outcomes."""
    return {
        "format_version": _FORMAT_VERSION,
        "cycles": [cycle_outcome_to_dict(c) for c in outcome.cycles],
    }


def run_outcome_from_dict(data: dict) -> "RunOutcome":
    """Inverse of :func:`run_outcome_to_dict`."""
    from repro.core.system import RunOutcome

    return RunOutcome(
        cycles=[cycle_outcome_from_dict(c) for c in data.get("cycles", [])]
    )


def json_digest(data: Any) -> str:
    """SHA-256 over ``data``'s key-sorted JSON form."""
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_outcome_digest(outcome: "RunOutcome") -> str:
    """SHA-256 over a run's canonical JSON form.

    Two runs are byte-identical in every label, score, spend, counter and
    delay iff their digests match — the primitive behind the
    scheduler-off parity guarantee (a disabled scheduler must reproduce
    the synchronous loop exactly) and the CI parity smoke job.
    """
    return json_digest(run_outcome_to_dict(outcome))


def save_checkpoint(
    path: str | Path,
    system: "CrowdLearnSystem",
    stream: "SensingCycleStream",
    outcome: "RunOutcome",
    next_cycle: int,
) -> Path:
    """Atomically snapshot a live deployment after a completed cycle.

    The snapshot contains everything a resumed run needs to be
    deterministic: the system (with all RNG states, bandit posteriors,
    committee parameters, guard state and the ledger), the stream, the
    outcomes of the ``next_cycle`` completed cycles, and the resume index.
    The write goes through a temporary file + rename, so a crash
    mid-checkpoint leaves the previous checkpoint intact, and the pickled
    state is wrapped in an envelope carrying its SHA-256 digest, which
    :func:`load_checkpoint` verifies before unpickling anything.

    A telemetry pipeline attached to the system (see
    :mod:`repro.telemetry`) is pickled along with it, so a resumed run
    keeps its spans, metrics and events; its JSON-safe
    :meth:`~repro.telemetry.runtime.Telemetry.snapshot` is additionally
    stored under the envelope's ``"telemetry"`` key so operators can
    inspect a checkpoint without unpickling the deployment state.
    """
    if next_cycle < 0:
        raise ValueError(f"next_cycle must be >= 0, got {next_cycle}")
    path = Path(path)
    telemetry = system.telemetry
    scheduler = system.scheduler
    state = pickle.dumps(
        {
            "next_cycle": int(next_cycle),
            "system": system,
            "stream": stream,
            "outcome": outcome,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    envelope = {
        "checkpoint_version": _CHECKPOINT_VERSION,
        "sha256": hashlib.sha256(state).hexdigest(),
        "length": len(state),
        "state": state,
        # Advisory inspection copy; the digest covers only the restorable
        # state, so a telemetry-only diff never invalidates a checkpoint.
        "telemetry": None if telemetry is None else telemetry.snapshot(),
        # Advisory too: the scheduler's live event heap travels inside the
        # pickled system (pending straggler arrivals survive a resume);
        # this JSON summary lets operators see how many responses are in
        # flight without unpickling anything.
        "scheduler": None if scheduler is None else scheduler.snapshot(),
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def commit_cycle(
    path: str | Path,
    system: "CrowdLearnSystem",
    stream: "SensingCycleStream",
    outcome: "RunOutcome",
    next_cycle: int,
    journal: "CycleJournal | None" = None,
) -> None:
    """The durable step that ends a cycle: checkpoint, then rotate.

    Everything the journal recorded is now inside the snapshot, so the
    journal restarts at a fresh file whose base names the checkpoint's
    resume cycle.  ``CrowdLearnSystem.run`` and the serving layer's
    ``Deployment.run_next_cycle`` both end each cycle here.
    """
    save_checkpoint(path, system, stream, outcome, next_cycle)
    if journal is not None:
        journal.rotate(next_cycle)


def load_checkpoint(
    path: str | Path,
) -> tuple["CrowdLearnSystem", "SensingCycleStream", "RunOutcome", int]:
    """Load ``(system, stream, outcome, next_cycle)`` from a checkpoint.

    The deployment state's byte length and SHA-256 digest are verified
    before the state is unpickled; a mismatch means the file was corrupted
    after it was written (bad disk, interrupted copy, manual edit) and
    raises a :class:`CheckpointIntegrityError` whose ``check`` attribute
    names the failing check — ``format``, ``version``, ``length`` or
    ``sha256`` — so the operator (and the ``repro run --resume`` exit
    path) can tell truncation from bit rot from a version skew.
    """
    try:
        envelope = pickle.loads(Path(path).read_bytes())
    except (pickle.UnpicklingError, EOFError) as exc:
        raise CheckpointIntegrityError(
            f"corrupt checkpoint file {path}: {exc}", check="format"
        ) from exc
    if not isinstance(envelope, dict):
        raise CheckpointIntegrityError(
            f"corrupt checkpoint file {path}: not a snapshot", check="format"
        )
    version = envelope.get("checkpoint_version")
    if version != _CHECKPOINT_VERSION:
        raise CheckpointIntegrityError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {_CHECKPOINT_VERSION})",
            check="version",
        )
    state = envelope.get("state")
    recorded = envelope.get("sha256")
    length = envelope.get("length")
    if (
        not isinstance(state, bytes)
        or not isinstance(recorded, str)
        or not isinstance(length, int)
    ):
        raise CheckpointIntegrityError(
            f"corrupt checkpoint file {path}: not a snapshot", check="format"
        )
    if len(state) != length:
        raise CheckpointIntegrityError(
            f"checkpoint {path} failed its integrity check (length): "
            f"recorded {length} state bytes, found {len(state)}.  The "
            "snapshot was truncated or padded after it was written; resume "
            "from an older checkpoint or restart the deployment.",
            check="length",
        )
    computed = hashlib.sha256(state).hexdigest()
    if computed != recorded:
        raise CheckpointIntegrityError(
            f"checkpoint {path} failed its integrity check (sha256): "
            f"recorded {recorded[:12]}..., computed {computed[:12]}....  The "
            "file was corrupted after it was written; resume from an older "
            "checkpoint or restart the deployment from scratch.",
            check="sha256",
        )
    payload = pickle.loads(state)
    return (
        payload["system"],
        payload["stream"],
        payload["outcome"],
        int(payload["next_cycle"]),
    )
