"""Table I: aggregated label accuracy of CQC vs Voting / TD-EM / Filtering.

For each temporal context a batch of test images is posted to the platform;
each aggregator turns the same raw responses into labels, scored against the
golden truth.  The Filtering baseline's worker histories are primed with a
graded warm-up phase on training images (on real MTurk, requesters grade
earlier HITs the same way).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cqc import CrowdQualityControl
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.tasks import QueryResult
from repro.eval.reporting import format_context_table
from repro.eval.runner import ExperimentSetup
from repro.truth import MajorityVote, QualityFilter, TruthDiscoveryEM
from repro.utils.clock import TemporalContext

__all__ = ["Table1Data", "run_table1"]

_INCENTIVE = 6.0  # a plateau-range incentive; quality barely varies past 2c


@dataclass(frozen=True)
class Table1Data:
    """Per-context aggregated label accuracy for each quality-control scheme."""

    accuracy: dict[str, dict[str, float]]  # scheme -> context value -> accuracy

    def overall(self, scheme: str) -> float:
        values = self.accuracy[scheme]
        return float(np.mean(list(values.values())))

    def render(self) -> str:
        return format_context_table(
            "Scheme",
            self.accuracy,
            [c.value for c in TemporalContext.ordered()],
            title="Table I: aggregated label accuracy",
        )


def _prime_worker_histories(
    platform: CrowdsourcingPlatform,
    setup: ExperimentSetup,
    rng: np.random.Generator,
    n_queries: int,
) -> None:
    """Post graded warm-up queries so Filtering has worker track records."""
    n_queries = min(n_queries, len(setup.train_set))
    chosen = rng.choice(len(setup.train_set), size=n_queries, replace=False)
    for index in chosen:
        image = setup.train_set[int(index)]
        for context in TemporalContext.ordered():
            result = platform.post_query(image.metadata, _INCENTIVE, context)
            platform.reveal_ground_truth(
                result.query.query_id, int(image.true_label)
            )


def run_table1(
    setup: ExperimentSetup, queries_per_context: int = 50
) -> Table1Data:
    """Regenerate Table I.

    Parameters
    ----------
    queries_per_context:
        Test queries posted per temporal context (shrunk in fast setups).
    """
    if setup.fast:
        queries_per_context = min(queries_per_context, 12)
    queries_per_context = min(queries_per_context, len(setup.test_set))
    rng = setup.seeds.get("table1")
    platform = setup.make_platform("table1")
    _prime_worker_histories(platform, setup, rng, n_queries=20)

    pilot_results, pilot_labels = setup.pilot.all_labeled_results()
    aggregators = {
        "CQC": CrowdQualityControl().fit(
            pilot_results,
            np.array(pilot_labels),
            rng=setup.seeds.get("table1-cqc"),
        ),
        "Voting": MajorityVote(),
        "TD-EM": TruthDiscoveryEM(),
        "Filtering": QualityFilter(platform=platform),
    }

    # The paper scores aggregation on the queries the deployment actually
    # sends — QSS's picks, not random images.  Mimic that mix: mostly the
    # committee's most-uncertain test images, plus the ε share of random
    # ones.
    entropy = setup.base_committee.committee_entropy(setup.test_set)
    ranked = np.argsort(-entropy, kind="stable")
    epsilon = setup.config.qss_epsilon
    n_uncertain = int(round((1.0 - epsilon) * queries_per_context))
    uncertain_pool = ranked[: max(4 * queries_per_context, n_uncertain)]

    accuracy: dict[str, dict[str, float]] = {name: {} for name in aggregators}
    for context in TemporalContext.ordered():
        uncertain = rng.choice(uncertain_pool, size=n_uncertain, replace=False)
        explore = rng.choice(
            len(setup.test_set),
            size=queries_per_context - n_uncertain,
            replace=False,
        )
        chosen = np.concatenate([uncertain, explore])
        results: list[QueryResult] = []
        truths: list[int] = []
        for index in chosen:
            image = setup.test_set[int(index)]
            results.append(
                platform.post_query(image.metadata, _INCENTIVE, context)
            )
            truths.append(int(image.true_label))
        golden = np.array(truths, dtype=np.int64)
        for name, aggregator in aggregators.items():
            labels = aggregator.truthful_labels(results)
            accuracy[name][context.value] = float(np.mean(labels == golden))
    return Table1Data(accuracy=accuracy)
