"""Sequential model container for the numpy NN substrate."""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import softmax

__all__ = ["Sequential"]


class Sequential:
    """A linear stack of layers with shared forward/backward plumbing.

    The model outputs raw logits; use :meth:`predict_proba` for softmax
    probabilities (the "expert vote" distribution of Definition 6).
    """

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a forward pass through every layer."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backpropagate ``grad`` (dL/doutput) through every layer.

        Accumulates every layer's parameter gradients and returns dL/dx.
        ``input_grad=False`` skips dL/dx and returns ``None``, leaving the
        parameter gradients bit-identical: the first layer only accumulates
        its own (:meth:`~repro.nn.layers.Layer.backward_params`).  A training
        step never reads dL/dx, and for a first ``Conv2D`` it costs a matrix
        multiply and a ``col2im`` per batch.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        if input_grad:
            return first.backward(grad)
        first.backward_params(grad)
        return None

    def params(self) -> list[np.ndarray]:
        """All trainable parameters, in layer order."""
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        """All gradients, parallel to :meth:`params`."""
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grad(self) -> None:
        """Reset all accumulated gradients."""
        for layer in self.layers:
            layer.zero_grad()

    def n_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.params())

    def reseed(self, rng: np.random.Generator) -> None:
        """Point every stochastic layer (Dropout) at ``rng``."""
        for layer in self.layers:
            layer.reseed(rng)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for a batch of inputs."""
        return softmax(self.forward(x, training=False))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class labels for a batch of inputs."""
        return np.argmax(self.forward(x, training=False), axis=-1)

    # -- serialization -----------------------------------------------------

    def state(self) -> list[dict[str, np.ndarray]]:
        """Per-layer state dicts (parameters and running statistics)."""
        return [layer.state() for layer in self.layers]

    def load_state(self, state: list[dict[str, np.ndarray]]) -> None:
        """Restore state captured by :meth:`state` into this architecture."""
        if len(state) != len(self.layers):
            raise ValueError(
                f"state has {len(state)} layer entries, model has "
                f"{len(self.layers)} layers"
            )
        for layer, layer_state in zip(self.layers, state):
            layer.load_state(layer_state)

    def save(self, path: str | Path) -> None:
        """Persist the model state to ``path`` (architecture not included)."""
        with open(path, "wb") as fh:
            pickle.dump(self.state(), fh)

    def load(self, path: str | Path) -> None:
        """Load state previously written by :meth:`save`."""
        with open(path, "rb") as fh:
            self.load_state(pickle.load(fh))
