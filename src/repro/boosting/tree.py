"""CART regression trees, the weak learner under gradient boosting.

Trees are grown greedily on exact splits with variance reduction as the
criterion.  For gradient boosting, leaves fit the Newton step
``-sum(grad) / (sum(hess) + lambda)`` so the same tree class serves both
plain regression and second-order boosting.

A fitted tree is a linked :class:`TreeNode` structure (what pickles) plus a
compiled :class:`FlatTrees` form (what predicts): preorder node arrays in
which leaves point at themselves, so every row takes exactly ``depth``
vectorised steps.  Several trees concatenate into one :class:`FlatTrees`,
which lets a boosted ensemble walk all of its trees in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FlatTrees", "TreeNode", "RegressionTree"]


@dataclass
class TreeNode:
    """A node of a binary regression tree.

    Leaves have ``feature == -1`` and carry the prediction in ``value``.
    """

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class FlatTrees:
    """One or more trees as concatenated preorder node arrays.

    ``feature`` is -1 at leaves, and a leaf's ``left`` and ``right`` are its
    own index, so a walk parks on a leaf once it gets there.  ``roots``
    holds the index of each tree's root; ``depth`` is the deepest tree's.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def compile(cls, root: TreeNode) -> "FlatTrees":
        """Flatten the tree under ``root`` in preorder."""
        nodes: list[TreeNode] = []
        left: list[int] = []
        right: list[int] = []

        def visit(node: TreeNode, level: int) -> int:
            """Append ``node``'s subtree; return its deepest level."""
            index = len(nodes)
            nodes.append(node)
            left.append(index)
            right.append(index)
            if node.is_leaf:
                return level
            assert node.left is not None and node.right is not None
            left[index] = len(nodes)
            left_depth = visit(node.left, level + 1)
            right[index] = len(nodes)
            return max(left_depth, visit(node.right, level + 1))

        depth = visit(root, 0)
        return cls(
            feature=np.array([n.feature for n in nodes], dtype=np.intp),
            threshold=np.array([n.threshold for n in nodes], dtype=np.float64),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array([n.value for n in nodes], dtype=np.float64),
            roots=np.zeros(1, dtype=np.intp),
            depth=depth,
        )

    @classmethod
    def concatenate(cls, trees: "list[FlatTrees]") -> "FlatTrees":
        """Stack several compiled trees, shifting their node indices."""
        offsets = np.cumsum([0] + [t.value.size for t in trees[:-1]])
        return cls(
            feature=np.concatenate([t.feature for t in trees]),
            threshold=np.concatenate([t.threshold for t in trees]),
            left=np.concatenate([t.left + o for t, o in zip(trees, offsets)]),
            right=np.concatenate([t.right + o for t, o in zip(trees, offsets)]),
            value=np.concatenate([t.value for t in trees]),
            roots=np.concatenate([t.roots + o for t, o in zip(trees, offsets)]),
            depth=max(t.depth for t in trees),
        )

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row, shape ``(trees, n)``.

        A row goes left when ``x[row, feature] <= threshold``, so NaN goes
        right, as in the node-by-node walk.
        """
        n, d = x.shape
        flat_x = x.ravel()
        row_start = np.arange(n, dtype=np.intp) * d
        node = np.repeat(self.roots[:, None], n, axis=1)
        for _ in range(self.depth):
            # At a leaf, feature -1 still reads a valid cell; the result is
            # ignored because both branches lead back to the leaf.
            go_left = flat_x[row_start + self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


class RegressionTree:
    """Greedy CART regression tree with Newton-style leaf values.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root at depth 0).
    min_samples_leaf:
        Minimum samples each child must retain for a split to be valid.
    min_gain:
        Minimum split gain; splits below it become leaves.
    reg_lambda:
        L2 regularization on leaf values (the XGBoost ``lambda``).
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        min_gain: float = 1e-7,
        reg_lambda: float = 1.0,
    ) -> None:
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if reg_lambda < 0:
            raise ValueError(f"reg_lambda must be >= 0, got {reg_lambda}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.reg_lambda = reg_lambda
        self.root: TreeNode | None = None
        self.n_features: int | None = None
        self._flat: FlatTrees | None = None

    def __getstate__(self) -> dict:
        # The compiled arrays are derived from ``root``: leave them out so
        # pickles hold only the node structure.
        state = self.__dict__.copy()
        del state["_flat"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat = None

    def fit(
        self,
        x: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit the tree to gradients (and optional Hessians).

        With ``hess=None`` all Hessians are 1, which reduces to fitting the
        negative mean gradient per leaf — i.e., ordinary least-squares
        regression on ``-grad``.
        """
        x = np.asarray(x, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64).ravel()
        if x.ndim != 2 or x.shape[0] != grad.shape[0]:
            raise ValueError(
                f"x must be (n, d) aligned with grad, got {x.shape} "
                f"and {grad.shape}"
            )
        if hess is None:
            hess = np.ones_like(grad)
        else:
            hess = np.asarray(hess, dtype=np.float64).ravel()
            if hess.shape != grad.shape:
                raise ValueError("hess must be parallel to grad")
            if np.any(hess < 0):
                raise ValueError("hess must be non-negative")
        self.n_features = x.shape[1]
        self.root = self._build(x, grad, hess, depth=0)
        self._flat = None
        return self

    def compiled(self) -> FlatTrees:
        """The fitted tree as flat node arrays, compiled on first use."""
        if self.root is None:
            raise RuntimeError("tree not fitted")
        if self._flat is None:
            self._flat = FlatTrees.compile(self.root)
        return self._flat

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf value for each row of ``x``."""
        if self.root is None or self.n_features is None:
            raise RuntimeError("RegressionTree.predict called before fit")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"x must be (n, {self.n_features}), got shape {x.shape}"
            )
        return self.compiled().leaf_values(x)[0]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        return self.compiled().depth

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        return int(np.count_nonzero(self.compiled().feature < 0))

    def feature_split_counts(self) -> np.ndarray:
        """How many internal nodes split on each feature, shape ``(d,)``."""
        feature = self.compiled().feature
        return np.bincount(feature[feature >= 0], minlength=self.n_features)

    # -- internals ---------------------------------------------------------

    def _leaf_value(self, grad: np.ndarray, hess: np.ndarray) -> float:
        return float(-grad.sum() / (hess.sum() + self.reg_lambda))

    def _score(self, g_sum: float, h_sum: float) -> float:
        return g_sum * g_sum / (h_sum + self.reg_lambda)

    def _build(
        self, x: np.ndarray, grad: np.ndarray, hess: np.ndarray, depth: int
    ) -> TreeNode:
        node = TreeNode(value=self._leaf_value(grad, hess))
        n = x.shape[0]
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
            return node
        best_gain = self.min_gain
        best: tuple[int, float, np.ndarray] | None = None
        parent_score = self._score(grad.sum(), hess.sum())
        for feature in range(x.shape[1]):
            column = x[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            g_cum = np.cumsum(grad[order])
            h_cum = np.cumsum(hess[order])
            g_total, h_total = g_cum[-1], h_cum[-1]
            # Candidate split after position i (left gets i+1 samples).
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
        node.left = self._build(x[mask], grad[mask], hess[mask], depth + 1)
        node.right = self._build(x[~mask], grad[~mask], hess[~mask], depth + 1)
        return node

    def _score_vec(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return g * g / (h + self.reg_lambda)
