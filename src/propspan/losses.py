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

PROB_EPS = 1e-7


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


def reweighted_bce(x: Tensor, y: np.ndarray, w: ClassWeights) -> Tensor:
    """-(1/(N*d)) * sum_n sum_k [ w_k * y log x + (1-y) log(1-x) ].

    ``x`` holds sigmoid outputs in (0, 1); they are clamped away from the
    endpoints before the logs. With all weights 1 this is plain BCE.
    """
    x = T.as_tensor(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"prediction shape {x.shape} != target shape {y.shape}")
    if x.ndim != 2:
        raise ValueError("expected a [batch, classes] matrix")
    n, d = x.shape
    if w.weights.shape != (d,):
        raise ValueError(f"{w.weights.shape[0]} class weights for {d} classes")
    y = y.astype(x.dtype)
    p = w.weights.astype(x.dtype)
    xc = T.clip(x, PROB_EPS, 1.0 - PROB_EPS)
    pos = T.mul(T.log(xc), p[None, :] * y)
    neg_ = T.mul(T.log(T.sub(1.0, xc)), 1.0 - y)
    return T.mul(T.add(pos, neg_).sum(), -1.0 / (n * d))

