"""Property tests: the compiled array walk equals a node-by-node walk.

``RegressionTree.predict`` and ``GradientBoostedClassifier.decision_function``
walk flat node arrays.  The reference here follows ``tree.root`` one node at
a time, the way prediction used to work, and both must agree bit for bit on
random trees, tied feature values, thresholds hit exactly, NaN and +-inf,
and on 0- and 1-row inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boosting.gbt import GradientBoostedClassifier
from repro.boosting.tree import RegressionTree, TreeNode

FAST = settings(max_examples=40, deadline=None)


def reference_value(node: TreeNode, row: np.ndarray) -> float:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def reference_predict(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    return np.array(
        [reference_value(tree.root, row) for row in x], dtype=np.float64
    )


def reference_logits(model: GradientBoostedClassifier, x: np.ndarray) -> np.ndarray:
    logits = np.tile(model._base_score, (x.shape[0], 1))
    for round_trees in model._rounds:
        for cls, tree in enumerate(round_trees):
            logits[:, cls] += model.learning_rate * reference_predict(tree, x)
    return logits


def training_matrix(rng: np.random.Generator, n: int, d: int, levels: int):
    """Features on a grid of ``levels`` values, so ties are common."""
    return np.floor(rng.uniform(0, levels, size=(n, d))) / levels


def query_matrix(
    rng: np.random.Generator, x_train: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Rows mixing training values, exact thresholds, NaN and +-inf."""
    n, d = 6, x_train.shape[1]
    pool = np.concatenate(
        [x_train.ravel(), thresholds, [np.nan, np.inf, -np.inf, 0.0, 1.0]]
    )
    return rng.choice(pool, size=(n, d))


def compiled_thresholds(trees: list[RegressionTree]) -> np.ndarray:
    parts = [t.compiled().threshold[t.compiled().feature >= 0] for t in trees]
    return np.concatenate(parts) if parts else np.empty(0)


class TestRegressionTreeWalk:
    @FAST
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        d=st.integers(1, 4),
        depth=st.integers(0, 5),
        min_samples_leaf=st.integers(1, 6),
        levels=st.integers(1, 8),
    )
    def test_predict_matches_node_walk(
        self, seed, n, d, depth, min_samples_leaf, levels
    ):
        rng = np.random.default_rng(seed)
        x = training_matrix(rng, n, d, levels)
        grad = rng.normal(size=n)
        hess = rng.uniform(0.1, 1.0, size=n)
        tree = RegressionTree(
            max_depth=depth, min_samples_leaf=min_samples_leaf
        ).fit(x, grad, hess)
        query = query_matrix(rng, x, compiled_thresholds([tree]))
        for rows in (x, query, query[:0], query[:1]):
            np.testing.assert_array_equal(
                tree.predict(rows), reference_predict(tree, rows)
            )
        assert tree.depth() <= depth


class TestBoostedWalk:
    @FAST
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 40),
        d=st.integers(1, 4),
        n_classes=st.integers(2, 4),
        n_estimators=st.integers(1, 5),
        depth=st.integers(0, 5),
        min_samples_leaf=st.integers(1, 6),
        levels=st.integers(1, 8),
        subsample=st.sampled_from([0.5, 1.0]),
    )
    def test_decision_function_matches_node_walk(
        self, seed, n, d, n_classes, n_estimators, depth, min_samples_leaf,
        levels, subsample,
    ):
        rng = np.random.default_rng(seed)
        x = training_matrix(rng, n, d, levels)
        y = rng.integers(0, n_classes, size=n)
        model = GradientBoostedClassifier(
            n_estimators=n_estimators,
            max_depth=depth,
            min_samples_leaf=min_samples_leaf,
            subsample=subsample,
        ).fit(x, y, rng=rng, n_classes=n_classes)
        trees = [tree for round_trees in model._rounds for tree in round_trees]
        query = query_matrix(rng, x, compiled_thresholds(trees))
        for rows in (x, query, query[:0], query[:1]):
            logits = model.decision_function(rows)
            assert logits.shape == (rows.shape[0], n_classes)
            np.testing.assert_array_equal(logits, reference_logits(model, rows))
