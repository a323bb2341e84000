"""Multi-label binary cross-entropy, re-weighted by class frequency.

The weight for class k is max(f)/f_k where f holds absolute class counts
from the training split, so the most frequent class keeps weight 1 and
rarer classes are scaled up proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class ClassWeights:
    frequencies: np.ndarray  # absolute counts on the train split
    weights: np.ndarray      # max(f) / f_k, so argmax(f) gets exactly 1.0


def class_weights(frequencies) -> ClassWeights:
    f = np.asarray(frequencies, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("frequencies must be a non-empty vector")
    if (f < 1).any():
        raise ValueError("every class must occur at least once in the train split")
    return ClassWeights(frequencies=f, weights=f.max() / f)


def uniform_weights(n_classes: int) -> ClassWeights:
    ones = np.ones(n_classes, dtype=np.float64)
    return ClassWeights(frequencies=ones, weights=ones)


def reweighted_bce(z: Tensor, y: np.ndarray, w: ClassWeights) -> Tensor:
    """-(1/(N*d)) * sum_n sum_k [ w_k * y log sigmoid(z) + (1-y) log(1-sigmoid(z)) ].

    One graph node over the logits ``z``, valued through the log-sigmoid:
    -log sigmoid(z) = softplus(-z) and -log(1-sigmoid(z)) = softplus(z).
    Its gradient is (sigmoid(z) * (w_k*y + 1-y) - w_k*y) / (N*d). With all
    weights 1 this is plain BCE.
    """
    z = T.as_tensor(z)
    y = np.asarray(y)
    if z.shape != y.shape:
        raise ValueError(f"logit shape {z.shape} != target shape {y.shape}")
    if z.ndim != 2:
        raise ValueError("expected a [batch, classes] matrix")
    n, d = z.shape
    if w.weights.shape != (d,):
        raise ValueError(f"{w.weights.shape[0]} class weights for {d} classes")
    x = z.data
    y = y.astype(x.dtype)
    wy = w.weights.astype(x.dtype) * y
    neg = 1.0 - y
    nd = x.dtype.type(n * d)  # a Python int would promote float32 to float64 under numpy<2
    loss = (wy * np.logaddexp(0.0, -x) + neg * np.logaddexp(0.0, x)).sum() / nd
    return T._node(loss, (z,), lambda g: ((T._sigmoid(x) * (wy + neg) - wy) * (g / nd),))
