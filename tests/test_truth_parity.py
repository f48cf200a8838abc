"""Pins the crowd aggregators' end-to-end outputs on fast seeds 0 and 1.

Table I scores every aggregator on the same crowd responses, and the
Hybrid-Para/Hybrid-AL baselines majority-vote theirs, so any change to
label aggregation shows up in Table I's accuracy dict or in one of the
seven ``run_all_schemes`` results.  Both are compared exactly with
``tests/golden/truth.json``, together with sha256 digests of the TD-EM
and Dawid-Skene EM posteriors on the pilot's responses.  A refactor of
``repro.truth`` must leave every one of them unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.eval.experiments.table1 import run_table1
from repro.eval.runner import prepare, run_all_schemes
from repro.truth.dawid_skene import DawidSkene
from repro.truth.tdem import TruthDiscoveryEM

from tests.golden import Family

SEEDS = (0, 1)

#: Per seed: Table I's accuracy per scheme and context, the digest of each
#: ``run_all_schemes`` result, and the digests of the EM posteriors.
GOLDEN = Family(
    "truth",
    [
        f"seed{seed}/{part}"
        for seed in SEEDS
        for part in ("table1", "schemes", "posteriors")
    ],
)


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.fixture(
    scope="module", params=SEEDS, ids=[f"seed{seed}" for seed in SEEDS]
)
def setup(request):
    return prepare(seed=request.param, fast=True)


def test_table1_accuracy(setup, golden):
    golden(f"seed{setup.seed}/table1", run_table1(setup).accuracy)


def test_run_all_schemes(setup, golden):
    digests = {
        name: _sha256(
            result.y_true,
            result.y_pred,
            result.scores,
            np.asarray(result.crowd_delays, dtype=np.float64),
            np.float64(result.cost_cents),
        )
        for name, result in run_all_schemes(setup).items()
    }
    golden(f"seed{setup.seed}/schemes", digests)


def test_em_posteriors(setup, golden):
    results, _ = setup.pilot.all_labeled_results()
    digests = {
        "TD-EM": _sha256(TruthDiscoveryEM().fit(results)[0]),
        "Dawid-Skene": _sha256(DawidSkene().fit(results)[0]),
    }
    golden(f"seed{setup.seed}/posteriors", digests)
