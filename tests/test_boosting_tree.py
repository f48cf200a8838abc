"""Tests for repro.boosting.tree."""

import pickle

import numpy as np
import pytest

from repro.boosting.tree import RegressionTree, TreeNode


class TestTreeNode:
    def test_leaf_flag(self):
        assert TreeNode().is_leaf
        assert not TreeNode(feature=0, threshold=0.5).is_leaf


class TestRegressionTree:
    def test_fits_step_function(self, rng):
        x = rng.uniform(0, 1, size=(200, 1))
        target = np.where(x[:, 0] > 0.5, 2.0, -1.0)
        # Fit against gradients of squared loss from a zero prediction:
        # grad = -(target), Newton leaf ≈ mean(target) for lambda -> 0.
        tree = RegressionTree(max_depth=2, reg_lambda=1e-6)
        tree.fit(x, -target)
        pred = tree.predict(x)
        np.testing.assert_allclose(pred, target, atol=0.05)

    def test_depth_zero_is_single_leaf(self, rng):
        x = rng.normal(size=(50, 3))
        grad = rng.normal(size=50)
        tree = RegressionTree(max_depth=0).fit(x, grad)
        assert tree.n_leaves() == 1
        assert tree.depth() == 0

    def test_leaf_value_is_newton_step(self, rng):
        x = rng.normal(size=(20, 2))
        grad = rng.normal(size=20)
        hess = np.abs(rng.normal(size=20)) + 0.1
        tree = RegressionTree(max_depth=0, reg_lambda=2.0).fit(x, grad, hess)
        expected = -grad.sum() / (hess.sum() + 2.0)
        assert tree.predict(x)[0] == pytest.approx(expected)

    def test_respects_max_depth(self, rng):
        x = rng.normal(size=(300, 4))
        grad = rng.normal(size=300)
        tree = RegressionTree(max_depth=3).fit(x, grad)
        assert tree.depth() <= 3

    def test_min_samples_leaf(self, rng):
        x = rng.normal(size=(20, 1))
        grad = rng.normal(size=20)
        tree = RegressionTree(max_depth=8, min_samples_leaf=8).fit(x, grad)
        # With 20 samples and 8 per leaf, at most 2 leaves.
        assert tree.n_leaves() <= 2

    def test_constant_feature_no_split(self):
        x = np.ones((30, 1))
        grad = np.linspace(-1, 1, 30)
        tree = RegressionTree(max_depth=3).fit(x, grad)
        assert tree.n_leaves() == 1

    def test_picks_informative_feature(self, rng):
        x = np.column_stack([rng.normal(size=100), np.linspace(0, 1, 100)])
        grad = np.where(x[:, 1] > 0.5, 1.0, -1.0)
        tree = RegressionTree(max_depth=1).fit(x, grad)
        assert tree.root is not None and tree.root.feature == 1

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((2, 2)))

    def test_predict_wrong_width_raises(self, rng):
        tree = RegressionTree(max_depth=1).fit(
            rng.normal(size=(20, 3)), rng.normal(size=20)
        )
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 2)))

    def test_misaligned_inputs_raise(self, rng):
        with pytest.raises(ValueError):
            RegressionTree().fit(rng.normal(size=(10, 2)), rng.normal(size=5))

    def test_negative_hessian_raises(self, rng):
        with pytest.raises(ValueError):
            RegressionTree().fit(
                rng.normal(size=(5, 1)), np.ones(5), hess=-np.ones(5)
            )

    def test_invalid_hyperparams_raise(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=-1)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            RegressionTree(reg_lambda=-1.0)


class TestCompiledTree:
    def test_leaves_point_at_themselves(self, rng):
        x = rng.normal(size=(60, 2))
        tree = RegressionTree(max_depth=3).fit(x, rng.normal(size=60))
        flat = tree.compiled()
        leaves = np.flatnonzero(flat.feature < 0)
        assert leaves.size == tree.n_leaves()
        np.testing.assert_array_equal(flat.left[leaves], leaves)
        np.testing.assert_array_equal(flat.right[leaves], leaves)
        assert flat.depth == tree.depth()

    def test_split_counts_match_nodes(self, rng):
        x = rng.normal(size=(80, 3))
        tree = RegressionTree(max_depth=3).fit(x, rng.normal(size=80))
        counts = np.zeros(3, dtype=np.int64)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                counts[node.feature] += 1
                stack.extend((node.left, node.right))
        np.testing.assert_array_equal(tree.feature_split_counts(), counts)

    def test_pickle_keeps_only_nodes(self, rng):
        x = rng.normal(size=(40, 2))
        tree = RegressionTree(max_depth=2).fit(x, rng.normal(size=40))
        before = tree.predict(x)
        payload = pickle.dumps(tree)
        assert b"_flat" not in payload
        np.testing.assert_array_equal(pickle.loads(payload).predict(x), before)

    def test_refit_recompiles(self, rng):
        x = rng.normal(size=(40, 2))
        tree = RegressionTree(max_depth=2).fit(x, rng.normal(size=40))
        first = tree.compiled()
        tree.fit(x, rng.normal(size=40))
        assert tree.compiled() is not first

    def test_compiled_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().compiled()
