"""Property tests: the one-pass split search against the per-feature loop.

``RegressionTree._build`` scores every feature of a node in one pass over
an ``(n, d)`` matrix.  ``_reference_build`` below is a copy of the
per-feature loop it replaced.  Both must grow the same tree: the same
features, and thresholds and leaf values with the same bytes, including on
tied values, constant columns, NaN gains and ``min_samples_leaf`` edges.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boosting.gbt import GradientBoostedClassifier
from repro.boosting.tree import RegressionTree, TreeNode

pytestmark = [
    pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning"),
]


def _reference_build(self, x, grad, hess, depth):
    """The split search as a loop over features, one sort per feature."""
    node = TreeNode(value=self._leaf_value(grad, hess))
    n = x.shape[0]
    if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
        return node
    best_gain = self.min_gain
    best = None
    parent_score = self._score(grad.sum(), hess.sum())
    for feature in range(x.shape[1]):
        column = x[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_vals = column[order]
        g_cum = np.cumsum(grad[order])
        h_cum = np.cumsum(hess[order])
        g_total, h_total = g_cum[-1], h_cum[-1]
        positions = np.arange(self.min_samples_leaf - 1, n - self.min_samples_leaf)
        if positions.size == 0:
            continue
        valid = sorted_vals[positions] < sorted_vals[positions + 1]
        positions = positions[valid]
        if positions.size == 0:
            continue
        g_left = g_cum[positions]
        h_left = h_cum[positions]
        gains = (
            self._score_vec(g_left, h_left)
            + self._score_vec(g_total - g_left, h_total - h_left)
            - parent_score
        )
        idx = int(np.argmax(gains))
        if gains[idx] > best_gain:
            best_gain = float(gains[idx])
            pos = positions[idx]
            threshold = 0.5 * (sorted_vals[pos] + sorted_vals[pos + 1])
            best = (feature, threshold, column <= threshold)
    if best is None:
        return node
    feature, threshold, mask = best
    node.feature = feature
    node.threshold = threshold
    node.left = _reference_build(self, x[mask], grad[mask], hess[mask], depth + 1)
    node.right = _reference_build(self, x[~mask], grad[~mask], hess[~mask], depth + 1)
    return node


def _nodes(node):
    """Preorder (feature, threshold, value) of a tree, floats as typed bytes."""
    def typed(v):
        return type(v).__name__, np.float64(v).tobytes()

    out = [(node.feature, typed(node.threshold), typed(node.value))]
    if not node.is_leaf:
        out += _nodes(node.left) + _nodes(node.right)
    return out


def _both(x, grad, hess, **params):
    new = RegressionTree(**params).fit(x, grad, hess)
    old = RegressionTree(**params)
    old._build = _reference_build.__get__(old)
    old.fit(x, grad, hess)
    return _nodes(new.root), _nodes(old.root)


def _matrix(rng, n, d, levels, constant):
    """Values on ``levels`` grid points (ties), some columns constant."""
    x = rng.integers(0, levels, size=(n, d)).astype(np.float64) / 2
    x[:, rng.random(d) < constant] = 1.5
    return x


class TestSplitSearchParity:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),  # rows
        st.integers(1, 6),  # features
        st.integers(1, 6),  # value levels (1: every column constant)
        st.integers(1, 5),  # min_samples_leaf
        st.integers(0, 4),  # max_depth
        st.sampled_from([0.0, 1.0]),  # reg_lambda (0 with zero hess: NaN gains)
        st.sampled_from([1e-7, 0.0, -np.inf]),  # min_gain
    )
    def test_same_tree(self, seed, n, d, levels, leaf, depth, lam, min_gain):
        rng = np.random.default_rng(seed)
        x = _matrix(rng, n, d, levels, constant=0.3)
        grad = np.round(rng.normal(size=n) * 4) / 4
        hess = np.where(rng.random(n) < 0.2, 0.0, rng.random(n))
        new, old = _both(
            x, grad, hess, max_depth=depth, min_samples_leaf=leaf,
            min_gain=min_gain, reg_lambda=lam,
        )
        assert new == old

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    @pytest.mark.parametrize("leaf", [1, 3, 7])
    def test_min_samples_leaf_edges(self, leaf, extra):
        """Nodes of exactly ``2 * leaf`` rows, and one either side of it."""
        rng = np.random.default_rng(10 * leaf + extra)
        n = 2 * leaf + extra
        x = _matrix(rng, n, 4, levels=5, constant=0.25)
        grad, hess = rng.normal(size=n), rng.random(n)
        new, old = _both(x, grad, hess, max_depth=3, min_samples_leaf=leaf)
        assert new == old

    def test_equal_gains_pick_the_earliest_feature(self):
        x = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [1.0, 1.0, 5.0], [1.0, 1.0, 5.0]])
        grad = np.array([-1.0, -1.0, 1.0, 1.0])
        new, old = _both(x, grad, np.ones(4), max_depth=1)
        assert new == old and new[0][0] == 0

    @pytest.mark.parametrize("subsample", [0.6, 0.8, 1.0])
    def test_boosted_pickles_are_byte_identical(self, monkeypatch, subsample):
        """Trees grown on subsampled rows, as CQC fits them, pickle the same."""
        rng = np.random.default_rng(int(subsample * 10))
        x = _matrix(rng, 90, 7, levels=9, constant=0.2)
        y = rng.integers(0, 3, size=90)

        def fit():
            return GradientBoostedClassifier(
                n_estimators=6, max_depth=3, min_samples_leaf=2, subsample=subsample
            ).fit(x, y, rng=np.random.default_rng(1))

        new = pickle.dumps(fit())
        monkeypatch.setattr(RegressionTree, "_build", _reference_build)
        assert new == pickle.dumps(fit())
