"""Fault injection for the crowd–AI closed loop (chaos engineering).

The reproduction's default platform is perfectly behaved: every posted query
returns exactly ``workers_per_query`` responses, on time, every time.  Real
crowdsourcing deployments are not — workers abandon HITs mid-task, spammers
answer at random, adversaries answer *wrong on purpose*, response times
spike, the platform itself goes down.  This module makes those conditions
reproducible: a declarative :class:`FaultPlan` describes *what* goes wrong
and a stateful :class:`FaultInjector` (with its own RNG, so the fault-free
draw sequence is untouched) decides *when*.

The injector plugs into :class:`~repro.crowd.platform.CrowdsourcingPlatform`
via its optional ``faults`` field; with ``faults=None`` (the default) the
platform's behaviour is bit-for-bit what it was before this module existed.

Fault taxonomy (see ``docs/FAULT_MODEL.md``):

==================  ========================================================
fault               effect on one posted query
==================  ========================================================
outage window       :class:`PlatformUnavailable` raised before any charge
abandonment         a sampled worker never submits a response
spam                a response's label and questionnaire are random noise
adversarial         a response is deliberately wrong (label and evidence)
delay spike         a response's delay is multiplied by a large factor
duplicate           a response is submitted twice (double bookkeeping)
malformed           a response arrives unattributable (``worker_id = -1``)
==================  ========================================================
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from repro.crowd.tasks import QuestionnaireAnswers, WorkerResponse
from repro.data.metadata import DamageLabel, ImageMetadata, SceneType
from repro.utils.validation import check_probability

__all__ = ["PlatformUnavailable", "InjectedCrash", "CrashPoint",
           "FaultPlan", "FaultInjector"]

#: Names of the per-fault event counters a :class:`FaultInjector` keeps.
FAULT_KINDS: tuple[str, ...] = (
    "outages",
    "abandonments",
    "spam",
    "adversarial",
    "delay_spikes",
    "duplicates",
    "malformed",
    "crashes",
)

#: Actions a :class:`CrashPoint` may take when its boundary is reached.
CRASH_ACTIONS: tuple[str, ...] = ("raise", "kill", "hang")


class PlatformUnavailable(RuntimeError):
    """Raised when a query is posted during a platform outage window.

    Raised *before* the ledger is charged — an unreachable platform cannot
    take your money — so the caller can retry or give up without refunding.
    """


class InjectedCrash(RuntimeError):
    """Raised by a :class:`CrashPoint` with ``action="raise"``.

    Models a process that dies mid-cycle with a Python-level failure (the
    ``"kill"`` action models the harder SIGKILL case).  The loop never
    catches it: it propagates out of ``run_cycle`` so the process exits and
    the supervisor (or a test) resumes from checkpoint + journal.
    """


@dataclass(frozen=True)
class CrashPoint:
    """Crash the process at a named journal stage boundary.

    Boundaries are the write-ahead-journal record points inside
    ``run_cycle`` (``cycle_start``, ``harvest``, ``qss``, ``post_intent``,
    ``post``, ``cqc``, ``guard``, ``retrain``, ``cycle_end``) plus the
    checkpoint-time ``rotate``.  The crash fires the ``occurrence``-th time
    (0-based) the ``(stage, cycle)`` boundary is reached in this process.

    Parameters
    ----------
    stage:
        Journal stage name to crash at.
    cycle:
        Cycle index to match, or ``None`` for any cycle.
    occurrence:
        Which occurrence of the boundary within the matched cycle (0-based;
        e.g. ``post`` fires once per posted query).
    action:
        ``"raise"`` raises :class:`InjectedCrash`; ``"kill"`` SIGKILLs the
        process (no chance to clean up); ``"hang"`` sleeps forever so a
        supervisor's watchdog must detect the stall.
    """

    stage: str
    cycle: int | None = None
    occurrence: int = 0
    action: str = "raise"

    def __post_init__(self) -> None:
        if not self.stage:
            raise ValueError("crash point needs a stage name")
        if self.cycle is not None and self.cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {self.cycle}")
        if self.occurrence < 0:
            raise ValueError(
                f"occurrence must be >= 0, got {self.occurrence}"
            )
        if self.action not in CRASH_ACTIONS:
            raise ValueError(
                f"action must be one of {CRASH_ACTIONS}, got {self.action!r}"
            )

    def matches(self, stage: str, cycle: int, occurrence: int) -> bool:
        """Whether this point fires at the given boundary occurrence."""
        return (
            stage == self.stage
            and (self.cycle is None or cycle == self.cycle)
            and occurrence == self.occurrence
        )

    def spec(self) -> str:
        """The ``stage[:cycle[:occurrence[:action]]]`` string form."""
        cycle = "*" if self.cycle is None else str(self.cycle)
        return f"{self.stage}:{cycle}:{self.occurrence}:{self.action}"

    @classmethod
    def parse(cls, spec: str) -> "CrashPoint":
        """Parse ``stage[:cycle[:occurrence[:action]]]`` (cycle ``*`` = any).

        Examples: ``post``, ``cqc:1``, ``post:1:2``, ``retrain:2:0:kill``.
        """
        parts = spec.strip().split(":")
        if not parts or not parts[0]:
            raise ValueError(f"empty crash-point spec: {spec!r}")
        if len(parts) > 4:
            raise ValueError(
                f"crash-point spec has too many fields: {spec!r} "
                "(want stage[:cycle[:occurrence[:action]]])"
            )
        stage = parts[0]
        cycle = None
        if len(parts) > 1 and parts[1] not in ("", "*"):
            cycle = int(parts[1])
        occurrence = int(parts[2]) if len(parts) > 2 and parts[2] else 0
        action = parts[3] if len(parts) > 3 and parts[3] else "raise"
        return cls(stage=stage, cycle=cycle, occurrence=occurrence,
                   action=action)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject.

    All rates are independent per-event probabilities in ``[0, 1]``.
    ``outage_windows`` are half-open ``[start, end)`` intervals counted in
    *post attempts* (every :meth:`CrowdsourcingPlatform.post_query` call,
    including ones that fail): a plan can take the platform down for a
    stretch of the deployment and bring it back.

    Parameters
    ----------
    abandonment_rate:
        Probability a sampled worker abandons the HIT (no response).
    spam_rate:
        Probability a response is replaced with uniform-random noise.
    adversarial_rate:
        Probability a response is deliberately wrong: a non-true label and
        inverted questionnaire evidence.
    delay_spike_rate, delay_spike_factor:
        Probability a response's delay is multiplied by the factor.
    duplicate_rate:
        Probability a response is submitted twice.
    malformed_rate:
        Probability a response arrives unattributable: ``worker_id = -1``
        and a uniform-random label (broken client / dropped metadata).
    outage_windows:
        ``[start, end)`` post-attempt intervals during which every post
        raises :class:`PlatformUnavailable`.
    crash_points:
        :class:`CrashPoint` instances that terminate the process at named
        journal stage boundaries (crash-recovery chaos).
    """

    abandonment_rate: float = 0.0
    spam_rate: float = 0.0
    adversarial_rate: float = 0.0
    delay_spike_rate: float = 0.0
    delay_spike_factor: float = 5.0
    duplicate_rate: float = 0.0
    malformed_rate: float = 0.0
    outage_windows: tuple[tuple[int, int], ...] = ()
    crash_points: tuple[CrashPoint, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "abandonment_rate",
            "spam_rate",
            "adversarial_rate",
            "delay_spike_rate",
            "duplicate_rate",
            "malformed_rate",
        ):
            check_probability(getattr(self, name), name)
        if not (
            math.isfinite(self.delay_spike_factor)
            and self.delay_spike_factor >= 1.0
        ):
            raise ValueError(
                "delay_spike_factor must be finite and >= 1, got "
                f"{self.delay_spike_factor}"
            )
        for window in self.outage_windows:
            if len(window) != 2:
                raise ValueError(f"outage window must be (start, end): {window}")
            start, end = window
            if start < 0 or end <= start:
                raise ValueError(
                    f"outage window must satisfy 0 <= start < end: {window}"
                )
        for point in self.crash_points:
            if not isinstance(point, CrashPoint):
                raise ValueError(f"not a CrashPoint: {point!r}")

    def as_dict(self) -> dict:
        """JSON-safe form; crash points serialize as their spec strings.

        The serving layer's manifest persists per-event fault plans this
        way so :meth:`CrowdLearnService.resume` can re-arm injectors for
        events rebuilt without a checkpoint.
        """
        return {
            "abandonment_rate": self.abandonment_rate,
            "spam_rate": self.spam_rate,
            "adversarial_rate": self.adversarial_rate,
            "delay_spike_rate": self.delay_spike_rate,
            "delay_spike_factor": self.delay_spike_factor,
            "duplicate_rate": self.duplicate_rate,
            "malformed_rate": self.malformed_rate,
            "outage_windows": [
                [int(start), int(end)] for start, end in self.outage_windows
            ],
            "crash_points": [point.spec() for point in self.crash_points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`as_dict` (ignores unknown keys)."""
        rates = {
            name: data[name]
            for name in (
                "abandonment_rate", "spam_rate", "adversarial_rate",
                "delay_spike_rate", "delay_spike_factor",
                "duplicate_rate", "malformed_rate",
            )
            if name in data
        }
        return cls(
            outage_windows=tuple(
                (int(start), int(end))
                for start, end in data.get("outage_windows", ())
            ),
            crash_points=tuple(
                CrashPoint.parse(spec)
                for spec in data.get("crash_points", ())
            ),
            **rates,
        )

    def is_noop(self) -> bool:
        """Whether this plan injects nothing at all."""
        return (
            self.abandonment_rate == 0.0
            and self.spam_rate == 0.0
            and self.adversarial_rate == 0.0
            and self.delay_spike_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.malformed_rate == 0.0
            and not self.outage_windows
            and not self.crash_points
        )

    def scaled(self, intensity: float) -> "FaultPlan":
        """This plan with every rate multiplied by ``intensity`` (clipped).

        Outage windows and crash points are kept as-is for any positive
        intensity and dropped at zero — they either exist or they do not.
        """
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        clip = lambda r: float(min(1.0, r * intensity))  # noqa: E731
        return dataclasses.replace(
            self,
            abandonment_rate=clip(self.abandonment_rate),
            spam_rate=clip(self.spam_rate),
            adversarial_rate=clip(self.adversarial_rate),
            delay_spike_rate=clip(self.delay_spike_rate),
            duplicate_rate=clip(self.duplicate_rate),
            malformed_rate=clip(self.malformed_rate),
            outage_windows=self.outage_windows if intensity > 0 else (),
            crash_points=self.crash_points if intensity > 0 else (),
        )


@dataclass
class FaultInjector:
    """Applies a :class:`FaultPlan` to a platform's query traffic.

    The injector draws from its *own* generator: a no-op plan consumes no
    randomness, so wiring an injector into a platform does not perturb the
    fault-free response sequence.

    Parameters
    ----------
    plan:
        What to inject.
    rng:
        Randomness source for fault decisions (independent of the
        platform's worker/delay draws).
    """

    plan: FaultPlan
    rng: np.random.Generator
    counters: dict[str, int] = field(init=False)
    _attempts: int = field(default=0, init=False)
    _boundary_counts: dict[tuple[str, int], int] = field(init=False)

    def __post_init__(self) -> None:
        self.counters = {kind: 0 for kind in FAULT_KINDS}
        self._boundary_counts = {}

    @property
    def attempts(self) -> int:
        """Post attempts seen so far (including ones that hit an outage)."""
        return self._attempts

    def on_stage_boundary(self, stage: str, cycle: int) -> None:
        """Fire any armed :class:`CrashPoint` matching this boundary.

        Called by the journal layer *after* the boundary record is durable,
        so a crash here never loses the record it follows.  Occurrence
        counts are per ``(stage, cycle)`` within this process; resume
        disarms ``plan.crash_points`` so a restarted run cannot crash-loop.
        """
        if not self.plan.crash_points:
            return
        key = (stage, cycle)
        occurrence = self._boundary_counts.get(key, 0)
        self._boundary_counts[key] = occurrence + 1
        for point in self.plan.crash_points:
            if not point.matches(stage, cycle, occurrence):
                continue
            self.counters["crashes"] += 1
            if point.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if point.action == "hang":  # wait for the watchdog to fire
                while True:  # pragma: no cover - killed externally
                    time.sleep(3600)
            raise InjectedCrash(
                f"injected crash at stage boundary {stage!r} "
                f"(cycle {cycle}, occurrence {occurrence})"
            )

    def disarm_crashes(self) -> None:
        """Drop all crash points (used after a recovery resume)."""
        if self.plan.crash_points:
            self.plan = dataclasses.replace(self.plan, crash_points=())

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the injector's mutable state.

        Captures the attempt clock, counters and the fault RNG state so a
        journal replay can restore the injector exactly as it was after a
        journaled post (``_boundary_counts`` is deliberately process-local:
        it exists only to aim crash points).
        """
        return {
            "attempts": int(self._attempts),
            "counters": {k: int(v) for k, v in self.counters.items()},
            "rng_state": self.rng.bit_generator.state,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._attempts = int(state["attempts"])
        for kind in FAULT_KINDS:
            self.counters[kind] = int(state["counters"].get(kind, 0))
        self.rng.bit_generator.state = state["rng_state"]

    def on_post_attempt(self) -> None:
        """Advance the attempt clock; raise during an outage window."""
        attempt = self._attempts
        self._attempts += 1
        for start, end in self.plan.outage_windows:
            if start <= attempt < end:
                self.counters["outages"] += 1
                raise PlatformUnavailable(
                    f"platform outage at post attempt {attempt} "
                    f"(window [{start}, {end}))"
                )

    def worker_abandons(self) -> bool:
        """Whether the next sampled worker abandons the HIT."""
        if self.plan.abandonment_rate <= 0.0:
            return False
        if self.rng.random() < self.plan.abandonment_rate:
            self.counters["abandonments"] += 1
            return True
        return False

    def transform_response(
        self, response: WorkerResponse, metadata: ImageMetadata
    ) -> list[WorkerResponse]:
        """Apply response-level faults; returns the response(s) that arrive.

        Spam, adversarial and malformed corruptions are mutually exclusive
        (first matching draw wins); delay spikes and duplication then apply
        independently on top of whatever survived.
        """
        plan = self.plan
        if plan.spam_rate > 0.0 and self.rng.random() < plan.spam_rate:
            self.counters["spam"] += 1
            response = dataclasses.replace(
                response,
                label=self._random_label(),
                questionnaire=self._random_questionnaire(),
            )
        elif (
            plan.adversarial_rate > 0.0
            and self.rng.random() < plan.adversarial_rate
        ):
            self.counters["adversarial"] += 1
            response = dataclasses.replace(
                response,
                label=self._wrong_label(metadata.true_label),
                questionnaire=QuestionnaireAnswers(
                    says_fake=not metadata.is_fake,
                    scene=self._wrong_scene(metadata.scene),
                    says_people_in_danger=not metadata.people_in_danger,
                ),
            )
        elif plan.malformed_rate > 0.0 and self.rng.random() < plan.malformed_rate:
            self.counters["malformed"] += 1
            response = dataclasses.replace(
                response, worker_id=-1, label=self._random_label()
            )
        if plan.delay_spike_rate > 0.0 and self.rng.random() < plan.delay_spike_rate:
            self.counters["delay_spikes"] += 1
            response = dataclasses.replace(
                response,
                delay_seconds=response.delay_seconds * plan.delay_spike_factor,
            )
        if plan.duplicate_rate > 0.0 and self.rng.random() < plan.duplicate_rate:
            self.counters["duplicates"] += 1
            return [response, dataclasses.replace(response)]
        return [response]

    def total_events(self) -> int:
        """Total fault events injected so far."""
        return sum(self.counters.values())

    def _random_label(self) -> DamageLabel:
        return list(DamageLabel)[int(self.rng.integers(DamageLabel.count()))]

    def _wrong_label(self, true_label: DamageLabel) -> DamageLabel:
        others = [label for label in DamageLabel if label != true_label]
        return others[int(self.rng.integers(len(others)))]

    def _wrong_scene(self, true_scene: SceneType) -> SceneType:
        others = [scene for scene in SceneType if scene != true_scene]
        return others[int(self.rng.integers(len(others)))]

    def _random_questionnaire(self) -> QuestionnaireAnswers:
        return QuestionnaireAnswers(
            says_fake=bool(self.rng.random() < 0.5),
            scene=list(SceneType)[int(self.rng.integers(len(SceneType)))],
            says_people_in_danger=bool(self.rng.random() < 0.5),
        )
