"""Pins the structure of a sensing cycle: journal stages and span tree.

Crash recovery re-executes a cycle and checks every journal append
against the log, and crash points (``--crash-at post:1:0``) are keyed on
journal stage names, so the per-cycle stage sequence is part of the
durable format.  The span tree is what traces and ``repro bench``
aggregate.  Both are compared, cycle by cycle, against literal lists, and
the full journal content (payloads included) against a digest.

Four runs are covered: the default fast deployment, the tight scheduler
run (harvests and all-late queries), a hardened guard run under hostile
labels (flagged cycles), and a cycle that posts nothing but retrains on
harvested stragglers.
"""

import hashlib
import json

import pytest

from repro.core.guards import GuardPolicy
from repro.crowd.faults import FaultInjector
from repro.eval.experiments import adversarial_label_plan
from repro.eval.journal import CycleJournal, read_journal
from repro.eval.runner import build_crowdlearn, prepare
from repro.telemetry.runtime import Telemetry, use_telemetry

from tests.test_scheduler_integration import tight_config


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=0, fast=True)


class Recorder:
    """Runs a system cycle by cycle with a journal and live telemetry."""

    def __init__(self, setup, tmp_path, name, **build_kwargs):
        self.telemetry = Telemetry()
        self.system = build_crowdlearn(
            setup, platform_name=name, telemetry=self.telemetry,
            **build_kwargs,
        )
        self.stream = setup.make_stream(name)
        self.path = tmp_path / f"{name}.journal"
        self.journal = CycleJournal.create(self.path)
        #: The pool grant each cycle runs under (``None``: uncapped).
        self.query_cap = None
        self.outcomes = []

    def run_cycle(self):
        cycle = self.stream.cycle(len(self.outcomes))
        with use_telemetry(self.telemetry):
            outcome = self.system.run_cycle(
                cycle, journal=self.journal, query_cap=self.query_cap
            )
        self.outcomes.append(outcome)
        return outcome

    def run(self):
        while len(self.outcomes) < len(self.stream):
            self.run_cycle()
        return self

    def records(self):
        self.journal.close()
        return [
            r for r in read_journal(self.path).records
            if r["stage"] != "rotate"
        ]

    def journal_stages(self):
        """One space-joined stage sequence per cycle."""
        by_cycle: dict[int, list[str]] = {}
        for record in self.records():
            by_cycle.setdefault(record["cycle"], []).append(record["stage"])
        return [" ".join(by_cycle[c]) for c in sorted(by_cycle)]

    def journal_digest(self):
        body = [
            [r["cycle"], r["stage"], r["payload"]] for r in self.records()
        ]
        return hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()

    def span_trees(self):
        """One compact span tree per cycle, rooted at its ``cycle`` span.

        ``name(child,child)`` with consecutive identical sibling subtrees
        folded to ``subtree*N``.  Epochs inside ``trainer.fit`` are left
        out: their count is training detail, not cycle structure.
        """
        spans = self.telemetry.tracer.spans
        children: dict[int, list] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)

        def render(span):
            if span.name == "trainer.fit":
                return span.name
            kids = sorted(children.get(span.span_id, []),
                          key=lambda s: s.span_id)
            if not kids:
                return span.name
            parts: list[list] = []
            for text in map(render, kids):
                if parts and parts[-1][0] == text:
                    parts[-1][1] += 1
                else:
                    parts.append([text, 1])
            inner = ",".join(
                text if n == 1 else f"{text}*{n}" for text, n in parts
            )
            return f"{span.name}({inner})"

        roots = sorted(
            (s for s in spans if s.name == "cycle"), key=lambda s: s.span_id
        )
        return [render(root) for root in roots]


# Journal stage sequences.
POSTED = (
    "cycle_start qss post_intent post post_intent post cqc guard retrain "
    "cycle_end"
)
HARVEST_POSTED = (
    "cycle_start harvest qss post_intent post post_intent post cqc guard "
    "retrain cycle_end"
)
#: Every post was late: no CQC, but harvested stragglers are retrained on.
HARVEST_ALL_LATE = (
    "cycle_start harvest qss post_intent post post_intent post retrain "
    "cycle_end"
)
HARVEST_NOTHING_POSTED = "cycle_start harvest qss cycle_end"
HARVEST_STRAGGLERS_ONLY = "cycle_start harvest qss retrain cycle_end"

# Span trees.
TREE_POSTED = (
    "cycle(cycle.committee,cycle.qss,cycle.crowd(cycle.ipd.price,"
    "platform.post_query,cycle.ipd.price,platform.post_query),cycle.cqc,"
    "cycle.mic.reweight,cycle.mic.retrain(guard.snapshot*3,"
    "cycle.mic.retrain.fit(trainer.fit*4),guard.score),cycle.ipd.observe)"
)
#: A flagged cycle opens the retrain span but skips the retrain.
TREE_FLAGGED = (
    "cycle(cycle.committee,cycle.qss,cycle.crowd(cycle.ipd.price,"
    "platform.post_query,cycle.ipd.price,platform.post_query),cycle.cqc,"
    "cycle.mic.reweight,cycle.mic.retrain,cycle.ipd.observe)"
)
TREE_HARVEST_POSTED = (
    "cycle(scheduler.harvest,cycle.committee,cycle.qss,cycle.crowd("
    "cycle.ipd.price,platform.post_query,cycle.ipd.price,platform.post_query"
    "),cycle.cqc,cycle.mic.reweight,cycle.mic.retrain(guard.snapshot*3,"
    "cycle.mic.retrain.fit(trainer.fit*4),guard.score),cycle.ipd.observe)"
)
TREE_HARVEST_ALL_LATE = (
    "cycle(scheduler.harvest,cycle.committee,cycle.qss,cycle.crowd("
    "cycle.ipd.price,platform.post_query,cycle.ipd.price,platform.post_query"
    "),cycle.mic.retrain(guard.snapshot*3,cycle.mic.retrain.fit("
    "trainer.fit*4),guard.score))"
)
TREE_HARVEST_NOTHING_POSTED = (
    "cycle(scheduler.harvest,cycle.committee,cycle.qss,cycle.crowd)"
)
TREE_HARVEST_STRAGGLERS_ONLY = (
    "cycle(scheduler.harvest,cycle.committee,cycle.qss,cycle.crowd,"
    "cycle.mic.retrain(guard.snapshot*3,cycle.mic.retrain.fit("
    "trainer.fit*4),guard.score))"
)


@pytest.fixture(scope="module")
def straggler_run(setup, tmp_path_factory):
    """Post in cycle 0, then post nothing until stragglers are harvested.

    Returns the recorder, the first cycle that harvests under a query cap
    of zero (it retrains on stragglers alone), and the
    ``stragglers_retrained_total`` counter just before that cycle.
    """
    recorder = Recorder(
        setup, tmp_path_factory.mktemp("straggler"), "structure-straggler",
        config=tight_config(setup),
    )
    recorder.run_cycle()
    assert recorder.system.scheduler.pending_count > 0
    recorder.query_cap = 0
    registry = recorder.telemetry.registry
    while True:
        retrained = registry.value("stragglers_retrained_total")
        outcome = recorder.run_cycle()
        if outcome.resilience.stragglers_harvested:
            return recorder, outcome, retrained
        assert len(recorder.outcomes) < len(recorder.stream)


class TestCycleStructure:
    def test_default_fast_run(self, setup, tmp_path):
        recorder = Recorder(setup, tmp_path, "structure-default").run()
        assert recorder.span_trees() == [TREE_POSTED] * 8
        assert recorder.journal_stages() == [POSTED] * 8
        assert recorder.journal_digest() == (
            "16ac6bddbdba4c1fbff7c791d88d2bc3320e23954d962ae52be3bb4999264dd1"
        )

    def test_tight_scheduler_run(self, setup, tmp_path):
        recorder = Recorder(
            setup, tmp_path, "structure-tight", config=tight_config(setup)
        ).run()
        assert recorder.span_trees() == [
            TREE_HARVEST_POSTED,
            TREE_HARVEST_POSTED,
            TREE_HARVEST_POSTED,
            TREE_HARVEST_POSTED,
            TREE_HARVEST_ALL_LATE,
            TREE_HARVEST_ALL_LATE,
            TREE_HARVEST_POSTED,
            TREE_HARVEST_ALL_LATE,
        ]
        assert recorder.journal_stages() == [
            HARVEST_POSTED,
            HARVEST_POSTED,
            HARVEST_POSTED,
            HARVEST_POSTED,
            HARVEST_ALL_LATE,
            HARVEST_ALL_LATE,
            HARVEST_POSTED,
            HARVEST_ALL_LATE,
        ]
        assert recorder.journal_digest() == (
            "ba6cb18dac54c24ba99463b2dddf0b043168be8cdcc191d695b9e8e9ea301606"
        )

    def test_hardened_hostile_run(self, setup, tmp_path):
        injector = FaultInjector(
            adversarial_label_plan(),
            rng=setup.seeds.get("structure-hostile-faults"),
        )
        recorder = Recorder(
            setup, tmp_path, "structure-hostile",
            faults=injector, guards=GuardPolicy.hardened(),
        ).run()
        flags = [o.guards.drift_flags for o in recorder.outcomes]
        assert flags == [0, 0, 0, 1, 1, 0, 0, 1]
        assert recorder.span_trees() == [
            TREE_FLAGGED if flag else TREE_POSTED for flag in flags
        ]
        assert recorder.journal_stages() == [POSTED] * 8
        flagged = [
            r["payload"]["flagged"]
            for r in recorder.records() if r["stage"] == "guard"
        ]
        assert flagged == [bool(flag) for flag in flags]
        assert recorder.journal_digest() == (
            "8c15c6fcec4a3fe7c264f3628451b133f16594a5e9b9fb1bba110ebeddfb4324"
        )

    def test_straggler_only_run(self, straggler_run):
        recorder, outcome, _ = straggler_run
        assert outcome.cycle_index == 2
        assert recorder.span_trees() == [
            TREE_HARVEST_POSTED,
            TREE_HARVEST_NOTHING_POSTED,
            TREE_HARVEST_STRAGGLERS_ONLY,
        ]
        assert recorder.journal_stages() == [
            HARVEST_POSTED,
            HARVEST_NOTHING_POSTED,
            HARVEST_STRAGGLERS_ONLY,
        ]
        assert recorder.journal_digest() == (
            "dd664c0bf63121a62ce4070db164eb5c77caeaa0392e0527f07f0fb1c585df0b"
        )


class TestStragglerOnlyCycle:
    """A cycle that posts nothing still retrains on harvested stragglers."""

    def test_retrains_on_stragglers_alone(self, straggler_run):
        recorder, outcome, retrained_before = straggler_run
        assert outcome.query_indices.size == 0
        stages = [
            r["stage"] for r in recorder.records()
            if r["cycle"] == outcome.cycle_index
        ]
        assert "retrain" in stages
        assert "cqc" not in stages and "guard" not in stages
        assert outcome.guards.snapshots == recorder.system.committee.n_experts
        registry = recorder.telemetry.registry
        assert registry.value("stragglers_retrained_total") > retrained_before
