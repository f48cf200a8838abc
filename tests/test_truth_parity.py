"""Pins the crowd aggregators' end-to-end outputs on fast seeds 0 and 1.

Table I scores every aggregator on the same crowd responses, and the
Hybrid-Para/Hybrid-AL baselines majority-vote theirs, so any change to
label aggregation shows up in Table I's accuracy dict or in one of the
seven ``run_all_schemes`` results.  Both are compared against literal
values, together with sha256 digests of the TD-EM and Dawid-Skene EM
posteriors on the pilot's responses.  A refactor of ``repro.truth`` must
leave every one of them unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.eval.experiments.table1 import run_table1
from repro.eval.runner import prepare, run_all_schemes
from repro.truth.dawid_skene import DawidSkene
from repro.truth.tdem import TruthDiscoveryEM

# Correct labels out of the 12 queries per context, in context order.
TABLE1 = {
    0: {
        "CQC": (12, 11, 10, 11),
        "Voting": (12, 11, 10, 12),
        "TD-EM": (12, 10, 10, 12),
        "Filtering": (12, 10, 11, 12),
    },
    1: {
        "CQC": (12, 11, 10, 12),
        "Voting": (12, 11, 10, 12),
        "TD-EM": (12, 11, 10, 12),
        "Filtering": (10, 11, 10, 11),
    },
}

SCHEMES = {
    0: {
        "CrowdLearn": "1956eb67d9ad10b3e08a8b02b6bdc0820a94df9be0cbe1fbb8e30403df77b7ec",
        "VGG16": "98efc64cfa33f6f068784338c24c031d64944b6e18b1af039dfa3a6672f63476",
        "BoVW": "b9256098947ca2340626be7d0ddcc0872e8fb319c904137623650c501c71dfb7",
        "DDM": "ad30a9e64fd2b6097e423c6144a17170048ed84cd220035f3870c3e175bb6e03",
        "Ensemble": "8d53c8ebc603bfe2c3e296814ba9bfc86a334e4f47c0ee32b98c660439048365",
        "Hybrid-Para": "913608a72a4a2fa1013b46266c31876f92cc7d4c7290a584ede3df3e51d17d13",
        "Hybrid-AL": "1de9e36a9478df047c46d8fe7ae2a1dd2fdd8ee8229d1131e11e0276ffca64f1",
    },
    1: {
        "CrowdLearn": "e523a6312f0bd4d65d632e2b5dc511801defebbb75a5f4878388753bf74e1da2",
        "VGG16": "bf69208c2bb736543ebd28fc5adaed283588b1ae0d6860506261fd10f023fb2e",
        "BoVW": "2ea4c8b463078f8096f33d8f5f8f0b4a8409f414685c16c5a8f11ead399ae38a",
        "DDM": "a2216b66851d5568f431365e9fca653f152d5e111f1f27293459cfb4d5916b75",
        "Ensemble": "a3b3c5ad0a7bbefe0b7a497a33475b82d98ae0243c28c18e4939c55933ea2d08",
        "Hybrid-Para": "5cd4926fac745d912aa039cc92d77261da29fd4a854d15b98773ae7bd4d82fef",
        "Hybrid-AL": "b44cf07fae6648e5f0e240999c5130a7d3b7cfdac1f26314d1378772d134cba7",
    },
}

POSTERIORS = {
    0: {
        "TD-EM": "179e412c397f6f038b4e3e9449e6d1d1db146444638bd1c00acfcd8714f111c7",
        "Dawid-Skene": "2874df3995c551069bf95124ee2cea677fb917c57e5341ad35e7ad38fc49f3ac",
    },
    1: {
        "TD-EM": "33a3d96e052a905b4a33e9e67f6388f1eece303713492ebfdcfb36b030968270",
        "Dawid-Skene": "28640e82111c12550445bef9b94717adff3ba50af782b022318dce3ff9138926",
    },
}

CONTEXTS = ("morning", "afternoon", "evening", "midnight")


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=[0, 1], ids=["seed0", "seed1"])
def setup(request):
    return prepare(seed=request.param, fast=True)


def test_table1_accuracy(setup):
    expected = {
        scheme: {context: n / 12 for context, n in zip(CONTEXTS, correct)}
        for scheme, correct in TABLE1[setup.seed].items()
    }
    assert run_table1(setup).accuracy == expected


def test_run_all_schemes(setup):
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
    assert digests == SCHEMES[setup.seed]


def test_em_posteriors(setup):
    results, _ = setup.pilot.all_labeled_results()
    digests = {
        "TD-EM": _sha256(TruthDiscoveryEM().fit(results)[0]),
        "Dawid-Skene": _sha256(DawidSkene().fit(results)[0]),
    }
    assert digests == POSTERIORS[setup.seed]
