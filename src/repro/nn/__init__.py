"""From-scratch numpy deep-learning substrate.

Provides the layers, losses, optimizers and training loop the DDA expert
models (:mod:`repro.models`) are built on.  No autograd: every layer carries
its own hand-written backward pass, verified against numerical gradients in
the test suite.
"""

from repro.nn.init import glorot_uniform, he_normal, zeros
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    col2im,
    im2col,
)
from repro.nn.losses import Loss, SoftmaxCrossEntropy, softmax
from repro.nn.model import Sequential
from repro.nn.optim import Adam, Optimizer
from repro.nn.trainer import Trainer, TrainingHistory

__all__ = [
    "glorot_uniform",
    "he_normal",
    "zeros",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "Layer",
    "MaxPool2D",
    "ReLU",
    "col2im",
    "im2col",
    "Loss",
    "SoftmaxCrossEntropy",
    "softmax",
    "Sequential",
    "Adam",
    "Optimizer",
    "Trainer",
    "TrainingHistory",
]
