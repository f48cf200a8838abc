"""Gradient-boosted decision trees with softmax multiclass objective.

This is the reproduction's stand-in for XGBoost [49], which the paper's CQC
module uses to fuse crowd labels and questionnaire answers into a truthful
label.  It implements the second-order (Newton) boosting update with
shrinkage, row subsampling and L2 leaf regularization — the core of the
XGBoost algorithm, minus the systems-level optimizations irrelevant at this
scale.

Prediction walks all ``rounds x classes`` trees at once over their
concatenated :class:`~repro.boosting.tree.FlatTrees`, then adds the leaf
values round by round in fitting order, so the logits are the same floats a
tree-by-tree sum gives.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.tree import FlatTrees, RegressionTree

__all__ = ["GradientBoostedClassifier"]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GradientBoostedClassifier:
    """Multiclass gradient boosting with one regression tree per class per round.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth, min_samples_leaf, reg_lambda:
        Passed through to :class:`~repro.boosting.tree.RegressionTree`.
    subsample:
        Fraction of rows sampled (without replacement) per round.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
    ) -> None:
        if n_estimators <= 0:
            raise ValueError(f"n_estimators must be positive, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.n_classes: int | None = None
        self._base_score: np.ndarray | None = None
        self._rounds: list[list[RegressionTree]] = []
        self._flat: FlatTrees | None = None

    def __getstate__(self) -> dict:
        # The stacked tree arrays are derived from ``_rounds``: leave them
        # out so pickles hold only the fitted trees.
        state = self.__dict__.copy()
        del state["_flat"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat = None

    @property
    def n_rounds(self) -> int:
        """Number of boosting rounds fitted."""
        return len(self._rounds)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator | None = None,
        n_classes: int | None = None,
    ) -> "GradientBoostedClassifier":
        """Fit to features ``x`` (n, d) and integer labels ``y`` (n,).

        ``n_classes`` fixes the number of output classes, so a training set
        that lacks the top classes still yields ``(n, n_classes)``
        probabilities.  By default it is ``max(y) + 1`` (at least 2).
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64).ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x must be (n, d) aligned with y, got {x.shape} and {y.shape}"
            )
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if y.min() < 0:
            raise ValueError("labels must be non-negative")
        if n_classes is None:
            n_classes = max(int(y.max()) + 1, 2)
        elif n_classes < 2 or y.max() >= n_classes:
            raise ValueError(
                f"n_classes must be >= 2 and exceed every label, got "
                f"{n_classes} for labels up to {int(y.max())}"
            )
        self.n_classes = n_classes
        n, k = x.shape[0], self.n_classes

        if rng is None:
            rng = np.random.default_rng(0)

        # Base score: class log-priors, so the model starts at the marginal.
        priors = np.bincount(y, minlength=k).astype(np.float64)
        priors = np.clip(priors / priors.sum(), 1e-12, None)
        self._base_score = np.log(priors)
        self._rounds = []
        self._flat = None

        onehot = np.zeros((n, k), dtype=np.float64)
        onehot[np.arange(n), y] = 1.0
        logits = np.tile(self._base_score, (n, 1))

        for _ in range(self.n_estimators):
            probs = _softmax(logits)
            grad = probs - onehot
            hess = probs * (1.0 - probs)
            if self.subsample < 1.0:
                size = max(1, int(round(self.subsample * n)))
                rows = rng.choice(n, size=size, replace=False)
            else:
                rows = np.arange(n)
            round_trees: list[RegressionTree] = []
            for cls in range(k):
                tree = RegressionTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    reg_lambda=self.reg_lambda,
                )
                tree.fit(x[rows], grad[rows, cls], hess[rows, cls])
                logits[:, cls] += self.learning_rate * tree.predict(x)
                round_trees.append(tree)
            self._rounds.append(round_trees)
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Raw class logits, shape ``(n, n_classes)``."""
        if self._base_score is None or self.n_classes is None:
            raise RuntimeError("model not fitted")
        x = np.asarray(x, dtype=np.float64)
        n_features = self._rounds[0][0].n_features
        if x.ndim != 2 or x.shape[1] != n_features:
            raise ValueError(f"x must be (n, {n_features}), got shape {x.shape}")
        if self._flat is None:
            self._flat = FlatTrees.concatenate(
                [tree.compiled() for trees in self._rounds for tree in trees]
            )
        n, k = x.shape[0], self.n_classes
        leaves = self._flat.leaf_values(x).reshape(len(self._rounds), k, n)
        terms = np.empty((len(self._rounds) + 1, n, k), dtype=np.float64)
        terms[0] = self._base_score
        terms[1:] = self.learning_rate * leaves.transpose(0, 2, 1)
        # accumulate is a running sum (r[i] = r[i-1] + a[i]): the base score
        # plus each round's leaves, added in fitting order.
        return np.add.accumulate(terms, axis=0)[-1]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities, shape ``(n, n_classes)``."""
        return _softmax(self.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        return np.argmax(self.decision_function(x), axis=1)

    def predict_with_proba(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`predict` and :meth:`predict_proba` from one forest walk.

        Both come from the same logits, so they are the bytes the two
        separate calls return.  The labels are the argmax of the logits,
        not of the probabilities: the softmax's rounding can tie classes
        the logits separate, and argmax would then break the tie
        differently.
        """
        logits = self.decision_function(x)
        return np.argmax(logits, axis=1), _softmax(logits)

    def feature_importances(self) -> np.ndarray:
        """Split-frequency feature importances, normalized to sum to 1.

        Counts how often each feature is chosen for a split across all
        boosting rounds and classes — XGBoost's "weight" importance.  A
        uniform vector is returned if no tree ever split (degenerate fits).
        """
        if not self._rounds:
            raise RuntimeError("model not fitted")
        first_tree = self._rounds[0][0]
        if first_tree.n_features is None:
            raise RuntimeError("model not fitted")
        counts = np.zeros(first_tree.n_features, dtype=np.float64)
        for round_trees in self._rounds:
            for tree in round_trees:
                counts += tree.feature_split_counts()
        total = counts.sum()
        if total == 0:
            return np.full(counts.size, 1.0 / counts.size)
        return counts / total
