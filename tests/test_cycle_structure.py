"""Pins the structure of a sensing cycle: journal stages and span tree.

Crash recovery re-executes a cycle and checks every journal append
against the log, and crash points (``--crash-at post:1:0``) are keyed on
journal stage names, so the per-cycle stage sequence is part of the
durable format.  The span tree is what traces and ``repro bench``
aggregate.  Both are compared, cycle by cycle, with the lists in
``tests/golden/cycle_structure.json``, and the full journal content
(payloads included) with a digest there.

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

from tests.golden import Family
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


#: Per run: the journal stage sequence and span tree of every cycle and the
#: journal digest, plus the hostile run's per-cycle drift flags and the
#: cycle at which the straggler run first harvests.
GOLDEN = Family("cycle_structure", ["default", "tight", "hostile", "straggler"])


def pinned_structure(recorder, **extra) -> dict:
    """What the golden file holds for one run."""
    return {
        "span_trees": recorder.span_trees(),
        "journal_stages": recorder.journal_stages(),
        "journal_digest": recorder.journal_digest(),
        **extra,
    }


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
    def test_default_fast_run(self, setup, tmp_path, golden):
        recorder = Recorder(setup, tmp_path, "structure-default").run()
        golden("default", pinned_structure(recorder))

    def test_tight_scheduler_run(self, setup, tmp_path, golden):
        recorder = Recorder(
            setup, tmp_path, "structure-tight", config=tight_config(setup)
        ).run()
        golden("tight", pinned_structure(recorder))

    def test_hardened_hostile_run(self, setup, tmp_path, golden):
        injector = FaultInjector(
            adversarial_label_plan(),
            rng=setup.seeds.get("structure-hostile-faults"),
        )
        recorder = Recorder(
            setup, tmp_path, "structure-hostile",
            faults=injector, guards=GuardPolicy.hardened(),
        ).run()
        flags = [o.guards.drift_flags for o in recorder.outcomes]
        golden("hostile", pinned_structure(recorder, drift_flags=flags))
        flagged = [
            r["payload"]["flagged"]
            for r in recorder.records() if r["stage"] == "guard"
        ]
        assert flagged == [bool(flag) for flag in flags]
        # A flagged cycle opens the retrain span but skips the retrain.
        fits = ["trainer.fit" in tree for tree in recorder.span_trees()]
        assert fits == [not flag for flag in flags]

    def test_straggler_only_run(self, straggler_run, golden):
        recorder, outcome, _ = straggler_run
        golden(
            "straggler",
            pinned_structure(recorder, harvest_cycle=outcome.cycle_index),
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
