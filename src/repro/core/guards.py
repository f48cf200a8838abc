"""Learning-loop guardrails (model-side graceful degradation).

:mod:`repro.core.resilience` protects the closed loop from a misbehaving
*crowd platform*; this module protects it from misbehaving *learning*.  The
loop's last unguarded edge is MIC's calibration step: whatever labels CQC
produced flow straight into every expert's parameters and into the
committee weights, so one poisoned cycle (the paper's adversarial-worker
scenario, §VI) can permanently corrupt the machine half of the system.

Four mechanisms, configured by :class:`GuardPolicy` and orchestrated by
:class:`ModelGuard`; the policy switches them on or off together:

- **regression-gated retraining** — before each MIC retrain, every expert's
  incumbent is snapshotted into a checksummed :class:`SnapshotRing`
  (pickled once per model version) and scored on a small golden holdout
  slice; a candidate whose holdout accuracy regresses beyond a tolerance
  is rolled back to its incumbent, bit-for-bit;
- **divergence sentinel** — :class:`DivergenceSentinel`, installed as the
  process default around guarded retrains, lets
  :meth:`~repro.nn.trainer.Trainer.fit` abort an epoch whose loss goes
  NaN/inf or whose update norm explodes, restore the last good weights,
  and retry once at a reduced learning rate before giving up cleanly;
- **committee-member quarantine** — a member whose accuracy on the golden
  holdout slice collapses (the query set is adversarially hard by
  construction, so holdout accuracy is the collapse signal) is excluded
  from the committee vote, QSS entropy and the exponential-weights update;
  re-admission needs sustained recovery (hysteresis), so a flapping expert
  cannot whipsaw the committee's uncertainty estimates;
- **label-drift detector** — a cycle whose CQC output disagrees
  anomalously with the committee consensus (relative to the run's own
  history) while the responding workers' historical reliability is poor is
  flagged, and retraining, reweighting and offloading are *skipped* on the
  flagged batch rather than merely down-weighted.

Every intervention is tallied in :class:`GuardCounters` (surfaced per
cycle on :class:`~repro.core.system.CycleOutcome`, aggregated by
:class:`~repro.core.system.RunOutcome.guard_totals` and bridged into
telemetry as ``guard_*_total`` counters).  A system always has a guard;
under ``GuardPolicy.disabled()`` every mechanism is inert (no snapshots,
no sentinel, no quarantine, no drift flag) and the loop is byte-identical
to an unguarded one.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.cache import CacheStats
from repro.telemetry.runtime import Telemetry, get_telemetry
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.committee import Committee
    from repro.core.mic import MachineIntelligenceCalibrator
    from repro.data.dataset import DisasterDataset, DisasterImage

__all__ = [
    "GuardPolicy",
    "GuardCounters",
    "Snapshot",
    "SnapshotChecksumError",
    "SnapshotRing",
    "DivergenceSentinel",
    "get_divergence_sentinel",
    "set_divergence_sentinel",
    "use_divergence_sentinel",
    "ModelGuard",
]


@dataclass(frozen=True)
class GuardPolicy:
    """How the learning loop defends itself against bad training signal.

    The default policy is deliberately conservative: on a healthy (fault
    free) deployment none of its branches trigger, so guarded runs are
    byte-identical to unguarded ones.  :meth:`hardened` is the sensitive
    profile the adversarial chaos arm uses; :meth:`disabled` turns every
    mechanism off.

    Parameters
    ----------
    enabled:
        Run all four mechanisms (regression gate, divergence sentinel,
        quarantine, drift detector); off, the guard never intervenes or
        snapshots.
    holdout_size:
        Number of golden training images reserved as the validation slice
        every candidate expert is scored on.
    regression_tolerance:
        Maximum tolerated drop in holdout accuracy (incumbent - candidate)
        before the candidate is rolled back.  The default leaves headroom
        over the sampling noise of a small holdout (ordinary healthy
        retrains move a 24-image slice by up to ~4 images); the hardened
        profile tolerates no regression at all.
    max_update_ratio:
        Sentinel threshold: an epoch whose parameter update norm exceeds
        this multiple of the pre-epoch parameter norm is treated as
        divergent (NaN/inf loss or parameters always are).
    lr_backoff_factor:
        Learning-rate multiplier for the sentinel's single retry.
    quarantine_threshold:
        EWMA golden-holdout accuracy below which a member is quarantined.
    readmit_threshold, readmit_patience:
        Hysteresis: a quarantined member returns only after its EWMA
        accuracy stays >= ``readmit_threshold`` for ``readmit_patience``
        consecutive cycles.
    accuracy_ewma_alpha:
        Smoothing factor of the per-member accuracy EWMA.
    drift_warmup:
        Cycles of history required before the detector may flag.
    drift_sigma:
        A cycle is anomalous when its disagreement exceeds the history
        mean by this many standard deviations...
    drift_min_disagreement:
        ...and exceeds this absolute floor (guards against tiny-variance
        histories flagging ordinary noise).
    drift_reliability_floor:
        Cycles whose responding workers have a graded historical accuracy
        at or above this floor are trusted and never flagged.
    """

    enabled: bool = True
    # Regression-gated retraining.
    holdout_size: int = 24
    regression_tolerance: float = 0.25
    # Divergence sentinel.
    max_update_ratio: float = 2.0
    lr_backoff_factor: float = 0.5
    # Committee-member quarantine.
    quarantine_threshold: float = 0.1
    readmit_threshold: float = 0.4
    readmit_patience: int = 2
    accuracy_ewma_alpha: float = 0.4
    # Label-drift detector.
    drift_warmup: int = 3
    drift_sigma: float = 3.0
    drift_min_disagreement: float = 0.85
    drift_reliability_floor: float = 0.8

    def __post_init__(self) -> None:
        check_positive(self.holdout_size, "holdout_size")
        check_non_negative(self.regression_tolerance, "regression_tolerance")
        check_positive(self.max_update_ratio, "max_update_ratio")
        if not 0.0 < self.lr_backoff_factor < 1.0:
            raise ValueError(
                f"lr_backoff_factor must be in (0, 1), got {self.lr_backoff_factor}"
            )
        if not 0.0 <= self.quarantine_threshold <= self.readmit_threshold <= 1.0:
            raise ValueError(
                "need 0 <= quarantine_threshold <= readmit_threshold <= 1, got "
                f"{self.quarantine_threshold} / {self.readmit_threshold}"
            )
        if self.readmit_patience < 1:
            raise ValueError(
                f"readmit_patience must be >= 1, got {self.readmit_patience}"
            )
        if not 0.0 < self.accuracy_ewma_alpha <= 1.0:
            raise ValueError(
                f"accuracy_ewma_alpha must be in (0, 1], got {self.accuracy_ewma_alpha}"
            )
        if self.drift_warmup < 1:
            raise ValueError(
                f"drift_warmup must be >= 1, got {self.drift_warmup}"
            )
        check_non_negative(self.drift_sigma, "drift_sigma")
        check_probability(self.drift_min_disagreement, "drift_min_disagreement")
        check_probability(
            self.drift_reliability_floor, "drift_reliability_floor"
        )

    @staticmethod
    def disabled() -> "GuardPolicy":
        """Every mechanism off: the guard never intervenes or snapshots."""
        return GuardPolicy(enabled=False)

    @staticmethod
    def hardened() -> "GuardPolicy":
        """A sensitive profile for hostile-label environments.

        Trades a little learning speed for safety: tight regression
        tolerance, an eager drift detector, and a quicker quarantine
        trigger.  Used by the adversarial arm of the chaos experiment.
        """
        return GuardPolicy(
            regression_tolerance=0.05,
            quarantine_threshold=0.25,
            readmit_threshold=0.5,
            drift_warmup=2,
            # sigma 0 makes the absolute floor dominate: in a hostile
            # environment the run's own history is itself suspect, so
            # "unusually high for this run" is a weaker signal than
            # "majority disagreement with the committee".
            drift_sigma=0.0,
            drift_min_disagreement=0.45,
            drift_reliability_floor=0.9,
        )


@dataclass
class GuardCounters:
    """Structured counters of every guard intervention in a run/cycle."""

    snapshots: int = 0
    rollbacks: int = 0
    sentinel_aborts: int = 0
    sentinel_retries: int = 0
    sentinel_failures: int = 0
    quarantines: int = 0
    readmissions: int = 0
    drift_flags: int = 0
    retrains_skipped: int = 0
    reweights_skipped: int = 0
    offloads_skipped: int = 0

    def merge(self, other: "GuardCounters") -> "GuardCounters":
        """Accumulate ``other`` into this instance (returns self)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def any(self) -> bool:
        """Whether any guard intervened at all (snapshots don't count)."""
        return any(
            getattr(self, f.name) for f in fields(self) if f.name != "snapshots"
        )

    def as_dict(self) -> dict[str, float]:
        """JSON-safe mapping of counter name to value."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "GuardCounters":
        """Inverse of :meth:`as_dict` (ignores unknown keys)."""
        known = {f.name for f in fields(GuardCounters)}
        return GuardCounters(**{k: v for k, v in data.items() if k in known})


# ---------------------------------------------------------------------------
# Snapshot ring
# ---------------------------------------------------------------------------


class SnapshotChecksumError(RuntimeError):
    """A snapshot's payload no longer matches its recorded SHA-256 digest."""


@dataclass(frozen=True)
class Snapshot:
    """One checksummed, pickled object state."""

    payload: bytes
    sha256: str
    tag: str = ""

    def verify(self) -> None:
        """Raise :class:`SnapshotChecksumError` if the payload is corrupt."""
        digest = hashlib.sha256(self.payload).hexdigest()
        if digest != self.sha256:
            raise SnapshotChecksumError(
                f"snapshot {self.tag!r} failed its integrity check: stored "
                f"sha256 {self.sha256[:12]}..., computed {digest[:12]}...; "
                "the snapshot bytes were corrupted in memory or on disk"
            )

    def restore(self) -> Any:
        """Verify the checksum and unpickle the stored object."""
        self.verify()
        return pickle.loads(self.payload)


class SnapshotRing:
    """The checksummed snapshot of one object's incumbent state.

    Used per expert by :class:`ModelGuard`: pushing pickles the object and
    records its SHA-256, replacing the previous snapshot (a rollback only
    ever restores the incumbent); restoring verifies the digest before
    unpickling, so a rollback can never silently resurrect corrupted
    parameters.

    A snapshot is taken once per parameter state.  Objects that expose a
    ``model_version`` (every :class:`~repro.models.base.DDAModel`) bump it
    on every parameter change, so pushing the *same object* at the *same
    version* as the held snapshot returns that frozen snapshot instead of
    re-pickling and re-hashing identical state.  Objects without a version
    are pickled on every push.
    """

    #: ``(weak reference, model_version)`` of the object the snapshot was
    #: taken of.  Never pickled: a resumed ring's first push pickles afresh.
    _source: "tuple[weakref.ref, int] | None" = None
    _latest: Snapshot | None = None

    def __len__(self) -> int:
        return int(self._latest is not None)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_source", None)
        return state

    def push(self, obj: Any, tag: str = "") -> Snapshot:
        """Snapshot ``obj`` (pickle + SHA-256), replacing the held one.

        Returns the held snapshot unchanged when it already holds this
        object at its current ``model_version``.
        """
        version = getattr(obj, "model_version", None)
        source = self._source
        if (
            version is not None
            and source is not None
            and source[0]() is obj
            and source[1] == version
        ):
            return self._latest
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._latest = Snapshot(
            payload=payload, sha256=hashlib.sha256(payload).hexdigest(), tag=tag
        )
        self._source = None
        if version is not None:
            try:
                self._source = (weakref.ref(obj), version)
            except TypeError:  # not weak-referenceable: always pickle
                pass
        return self._latest

    def latest(self) -> Snapshot:
        """The held snapshot (raises :class:`LookupError` if empty)."""
        if self._latest is None:
            raise LookupError("snapshot ring is empty")
        return self._latest

    def restore_latest(self) -> Any:
        """Verify and unpickle the held snapshot."""
        return self.latest().restore()


# ---------------------------------------------------------------------------
# Divergence sentinel
# ---------------------------------------------------------------------------


@dataclass
class DivergenceSentinel:
    """Detects divergent training epochs for :class:`~repro.nn.trainer.Trainer`.

    An epoch is *divergent* when its mean loss or any parameter is
    non-finite, or when the epoch's total parameter update norm exceeds
    ``max_update_ratio`` times the pre-epoch parameter norm.  The trainer
    reacts by restoring the pre-epoch weights and retrying once at
    ``lr_backoff_factor`` times the learning rate; a second divergence
    stops the fit cleanly (the last good weights stay in place).

    The sentinel is stateful only in its counters, which
    :class:`ModelGuard` drains into the cycle's :class:`GuardCounters`.
    """

    max_update_ratio: float = 2.0
    lr_backoff_factor: float = 0.5
    aborts: int = 0
    retries: int = 0
    failures: int = 0

    def diverged(
        self,
        loss: float,
        params_before: list[np.ndarray],
        params_after: list[np.ndarray],
    ) -> bool:
        """Whether the epoch that moved ``before`` to ``after`` diverged."""
        if not math.isfinite(loss):
            return True
        sq_update = 0.0
        sq_before = 0.0
        for before, after in zip(params_before, params_after):
            if not np.all(np.isfinite(after)):
                return True
            delta = after - before
            sq_update += float(np.sum(delta * delta))
            sq_before += float(np.sum(before * before))
        update_norm = math.sqrt(sq_update)
        base_norm = math.sqrt(sq_before)
        return update_norm > self.max_update_ratio * (base_norm + 1e-12)

    def counter_state(self) -> tuple[int, int, int]:
        """(aborts, retries, failures) — for delta bookkeeping."""
        return (self.aborts, self.retries, self.failures)


#: Context-local default sentinel.  A :class:`~contextvars.ContextVar`
#: rather than a module global so two interleaved deployments (asyncio
#: tasks, copied contexts) can never observe each other's guard state.
_sentinel_default: ContextVar[DivergenceSentinel | None] = ContextVar(
    "repro_divergence_sentinel", default=None
)


def get_divergence_sentinel() -> DivergenceSentinel | None:
    """The context-default sentinel (``None`` unless a guard installed one)."""
    return _sentinel_default.get()


def set_divergence_sentinel(
    sentinel: DivergenceSentinel | None,
) -> DivergenceSentinel | None:
    """Install ``sentinel`` as the context default; returns the previous one.

    Mirrors :func:`repro.telemetry.runtime.set_telemetry`: trainers are
    constructed deep inside the expert models, so the guard reaches them
    through a context-local default rather than threading a parameter
    through every model.
    """
    previous = _sentinel_default.get()
    _sentinel_default.set(sentinel)
    return previous


@contextmanager
def use_divergence_sentinel(
    sentinel: DivergenceSentinel | None,
) -> Iterator[DivergenceSentinel | None]:
    """Scoped :func:`set_divergence_sentinel` (restores the previous one)."""
    previous = set_divergence_sentinel(sentinel)
    try:
        yield sentinel
    finally:
        set_divergence_sentinel(previous)


# ---------------------------------------------------------------------------
# The guard orchestrator
# ---------------------------------------------------------------------------


class ModelGuard:
    """Orchestrates all four guard mechanisms for one deployment.

    Holds each expert's incumbent snapshot, the golden holdout slice, the
    quarantine state machine and the drift detector's history.  The whole
    object is plain picklable state, so it rides inside deployment
    checkpoints and a resumed run keeps its guard memory.

    Construct via :meth:`build` (reserves the holdout from the golden
    training pool) or directly with a pre-built holdout dataset.
    """

    def __init__(
        self,
        policy: GuardPolicy,
        holdout: "DisasterDataset",
        n_experts: int,
    ) -> None:
        if policy.enabled and len(holdout) == 0:
            raise ValueError("enabled guards require a non-empty holdout")
        self.policy = policy
        self.holdout = holdout
        #: Holdout scores by ``id(expert)``: ``(weak reference, model
        #: version, accuracy)``; see :meth:`holdout_accuracy`.
        self._scores: dict[int, tuple[weakref.ref, int, float]] = {}
        #: Lookups in that memo (the ``prediction_*`` cache counters).
        self.score_stats = CacheStats()
        self._disagreement_history: list[float] = []
        self.rebind(n_experts)
        self._sentinel = DivergenceSentinel(
            max_update_ratio=policy.max_update_ratio,
            lr_backoff_factor=policy.lr_backoff_factor,
        )

    def __getstate__(self) -> dict:
        # A resumed process restarts the version counter, so a kept score
        # could alias a new parameter state: a pickled guard's memo starts
        # empty, counters included.
        state = self.__dict__.copy()
        state["_scores"] = {}
        state["score_stats"] = CacheStats()
        return state

    @classmethod
    def build(
        cls,
        policy: GuardPolicy,
        golden_pool: "DisasterDataset",
        n_experts: int,
        rng: np.random.Generator,
    ) -> "ModelGuard":
        """Reserve the holdout slice from the golden training pool.

        The slice is drawn with the guard's own named generator, so adding
        a guard to a deployment perturbs no other component's randomness.
        """
        if len(golden_pool) == 0:
            raise ValueError("cannot build a guard from an empty golden pool")
        take = min(policy.holdout_size, len(golden_pool))
        chosen = rng.choice(len(golden_pool), size=take, replace=False)
        return cls(policy, golden_pool.subset(np.sort(chosen)), n_experts)

    def rebind(self, n_experts: int) -> None:
        """Reset per-expert state for a differently-sized committee.

        Swapping a new committee into a live system (the custom-committee
        example does exactly that) invalidates all per-expert memory:
        snapshot rings, quarantine flags and accuracy EWMAs describe
        experts that no longer exist.  The holdout slice and the drift
        detector's history survive — the former is committee-independent,
        the latter tracks the label stream, not the experts.
        :meth:`CrowdLearnSystem.run_cycle` calls this automatically when it
        notices the committee size changed.
        """
        if n_experts <= 0:
            raise ValueError(f"n_experts must be positive, got {n_experts}")
        self.n_experts = n_experts
        self._rings = [SnapshotRing() for _ in range(n_experts)]
        self._quarantined = np.zeros(n_experts, dtype=bool)
        self._accuracy_ewma = np.full(n_experts, np.nan)
        self._recovery_streak = np.zeros(n_experts, dtype=np.int64)

    # -- quarantine ------------------------------------------------------

    def active_mask(self) -> np.ndarray | None:
        """Boolean mask of non-quarantined experts; ``None`` when all active.

        Returning ``None`` on the all-active path keeps the committee's
        arithmetic bit-identical to the unguarded loop.
        """
        if not self._quarantined.any():
            return None
        return ~self._quarantined

    @property
    def quarantined(self) -> np.ndarray:
        """Copy of the per-expert quarantine flags."""
        return self._quarantined.copy()

    def observe_committee(
        self, committee: "Committee", counters: GuardCounters
    ) -> None:
        """Score every member on the golden holdout and update quarantine.

        The query set is selected *because* the committee is uncertain on
        it, so query-set accuracy cannot separate a collapsed expert from a
        healthy one having a hard cycle; the golden holdout can.
        """
        if not self.policy.enabled:
            return
        accuracies = np.array(
            [self.holdout_accuracy(expert) for expert in committee.experts]
        )
        self.observe_member_accuracy(accuracies, counters)

    def observe_member_accuracy(
        self, accuracies: np.ndarray, counters: GuardCounters
    ) -> None:
        """Feed per-member holdout accuracy into the quarantine machine.

        Quarantine triggers when a member's EWMA accuracy falls below
        ``quarantine_threshold``; re-admission requires the EWMA to hold at
        or above ``readmit_threshold`` for ``readmit_patience`` consecutive
        cycles.  At least one member always stays active — an uncertainty
        estimate from zero experts is no estimate at all.
        """
        if not self.policy.enabled:
            return
        accuracies = np.asarray(accuracies, dtype=np.float64).ravel()
        if accuracies.shape[0] != self.n_experts:
            raise ValueError(
                f"need {self.n_experts} member accuracies, got {accuracies.shape[0]}"
            )
        alpha = self.policy.accuracy_ewma_alpha
        for m in range(self.n_experts):
            previous = self._accuracy_ewma[m]
            current = (
                accuracies[m]
                if np.isnan(previous)
                else alpha * accuracies[m] + (1.0 - alpha) * previous
            )
            self._accuracy_ewma[m] = current
            if not self._quarantined[m]:
                collapsed = current < self.policy.quarantine_threshold
                last_active = (~self._quarantined).sum() <= 1
                if collapsed and not last_active:
                    self._quarantined[m] = True
                    self._recovery_streak[m] = 0
                    counters.quarantines += 1
            else:
                if current >= self.policy.readmit_threshold:
                    self._recovery_streak[m] += 1
                    if self._recovery_streak[m] >= self.policy.readmit_patience:
                        self._quarantined[m] = False
                        self._recovery_streak[m] = 0
                        counters.readmissions += 1
                else:
                    self._recovery_streak[m] = 0

    # -- label drift -----------------------------------------------------

    def observe_labels(
        self,
        consensus_labels: np.ndarray,
        truthful_labels: np.ndarray,
        worker_reliability: float | None,
        counters: GuardCounters,
    ) -> bool:
        """Record one cycle's CQC-vs-committee disagreement; returns the flag.

        ``worker_reliability`` is the graded historical accuracy of the
        workers who answered this cycle (``None`` when nothing has been
        graded yet).  A flagged cycle's disagreement is *not* added to the
        history — poisoned cycles must not teach the detector that poison
        is normal.
        """
        if not self.policy.enabled:
            return False
        consensus_labels = np.asarray(consensus_labels).ravel()
        truthful_labels = np.asarray(truthful_labels).ravel()
        if consensus_labels.shape != truthful_labels.shape:
            raise ValueError("consensus and truthful labels must align")
        if consensus_labels.size == 0:
            return False
        disagreement = float(np.mean(consensus_labels != truthful_labels))
        trusted_workers = (
            worker_reliability is not None
            and worker_reliability >= self.policy.drift_reliability_floor
        )
        flagged = False
        history = self._disagreement_history
        if len(history) >= self.policy.drift_warmup and not trusted_workers:
            mean = float(np.mean(history))
            std = float(np.std(history))
            threshold = max(
                self.policy.drift_min_disagreement,
                mean + self.policy.drift_sigma * std,
            )
            flagged = disagreement > threshold
        if flagged:
            counters.drift_flags += 1
        else:
            history.append(disagreement)
        return flagged

    # -- regression-gated retraining -------------------------------------

    def holdout_accuracy(self, expert) -> float:
        """An expert's accuracy on the reserved golden holdout slice.

        Called up to three times per expert per cycle (quarantine scoring,
        incumbent scoring, candidate scoring), and all but the candidate
        call see the incumbent's parameters.  So the score is remembered
        for the expert *object* at its ``model_version`` — the test
        :class:`SnapshotRing` uses — and a rolled-back or swapped-in
        expert, being another object, is always scored afresh.  Experts
        without a ``model_version`` are scored on every call.
        """
        version = getattr(expert, "model_version", None)
        held = self._scores.get(id(expert))
        if held is not None and held[0]() is expert:
            if held[1] == version:
                self.score_stats.hits += 1
                return held[2]
            self.score_stats.invalidations += 1
        self.score_stats.misses += 1
        score = float(np.mean(expert.predict(self.holdout) == self.holdout.labels()))
        if version is not None:
            self._scores[id(expert)] = (weakref.ref(expert), version, score)
        return score

    def snapshot_ring(self, index: int) -> SnapshotRing:
        """The incumbent snapshot of expert ``index`` (for inspection/tests)."""
        return self._rings[index]

    def guarded_retrain(
        self,
        mic: "MachineIntelligenceCalibrator",
        committee: "Committee",
        query_images: list["DisasterImage"],
        truthful_labels: np.ndarray,
        replay_pool: "DisasterDataset",
        rng: np.random.Generator,
        counters: GuardCounters,
        telemetry: Telemetry | None = None,
    ) -> None:
        """MIC retraining wrapped in snapshot, sentinel and rollback.

        Each expert's incumbent is snapshotted (pickled with a SHA-256
        digest once per model version; see :class:`SnapshotRing`) and
        scored on the holdout before the retrain; afterwards any candidate
        whose holdout accuracy regressed beyond the policy tolerance is
        replaced, bit-for-bit, by its verified snapshot.  The divergence
        sentinel is installed as the process default for the duration so
        trainers constructed deep inside the experts see it.

        Each push runs in a ``guard.snapshot`` span (``expert``,
        ``reused``, ``bytes``); candidate scoring and any rollbacks run in
        one ``guard.score`` span.  ``telemetry`` defaults to the context
        default.
        """
        tel = telemetry if telemetry is not None else get_telemetry()
        if len(committee.experts) != self.n_experts:
            raise ValueError(
                f"guard was built for {self.n_experts} experts, committee has "
                f"{len(committee.experts)}"
            )
        enabled = self.policy.enabled
        incumbent_accuracy: list[float] = []
        if enabled:
            for m, expert in enumerate(committee.experts):
                tag = f"{expert.name}[{m}]"
                with tel.span("guard.snapshot", expert=tag) as span:
                    ring = self._rings[m]
                    newest = ring._latest
                    snapshot = ring.push(expert, tag=tag)
                    if tel.enabled:
                        span.set(
                            reused=int(snapshot is newest),
                            bytes=len(snapshot.payload),
                        )
                incumbent_accuracy.append(self.holdout_accuracy(expert))
                counters.snapshots += 1
        sentinel = self._sentinel
        before = sentinel.counter_state()
        with use_divergence_sentinel(sentinel if enabled else None):
            mic.retrain_experts(
                committee, query_images, truthful_labels, replay_pool, rng
            )
        if not enabled:
            return
        aborts, retries, failures = sentinel.counter_state()
        counters.sentinel_aborts += aborts - before[0]
        counters.sentinel_retries += retries - before[1]
        counters.sentinel_failures += failures - before[2]
        tolerance = self.policy.regression_tolerance
        with tel.span("guard.score", experts=self.n_experts):
            for m in range(self.n_experts):
                candidate = self.holdout_accuracy(committee.experts[m])
                if candidate < incumbent_accuracy[m] - tolerance:
                    restored = self._rings[m].restore_latest()
                    store = getattr(committee.experts[m], "feature_store", None)
                    if store is not None:
                        # Features depend on the codebook version, not on
                        # the rolled-back head: keep the store the candidate
                        # used (in a fleet, the one every event shares).
                        restored.feature_store = store
                    committee.experts[m] = restored
                    counters.rollbacks += 1
