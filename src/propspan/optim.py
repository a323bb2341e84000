"""Parameter updates: SGD with classical momentum, and AdamW with decoupled
weight decay.

An ``Optimizer`` updates a named parameter dict in place and keeps its moment
buffers in per-name ``slots``, in each parameter's dtype. The slots live as
long as the optimizer; checkpoints store the weights only. A parameter whose
``.grad`` is None after the backward pass (the CRF of a tagger trained
without it) is skipped: it gets no slot and no decay.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """``kind`` is "sgd" (v <- mu*v + g; p <- p - lr*v) or "adamw"; ``momentum``
    applies to SGD only and ``weight_decay`` to AdamW only."""

    def __init__(self, params: dict[str, Tensor], kind: str, lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        if kind not in ("sgd", "adamw"):
            raise ValueError(f"unknown optimizer kind: {kind!r}")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params, self.kind, self.lr = params, kind, lr
        self.momentum, self.weight_decay = momentum, weight_decay
        self.step_count = 0
        self.slots: dict[str, dict[str, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        live = {name: p for name, p in self.params.items() if p.grad is not None}
        for name, p in live.items():
            if p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape {p.grad.shape} != param shape "
                                 f"{p.data.shape} for {name!r}")
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        keys = ("v",) if self.kind == "sgd" else ("m", "v")
        for name, p in live.items():
            g = p.grad
            slot = self.slots.get(name)
            if slot is None:
                slot = self.slots[name] = {k: np.zeros_like(p.data) for k in keys}
            # slots update in place, with the operations of the formulas in their order
            if self.kind == "sgd":
                v = slot["v"]
                np.multiply(v, self.momentum, out=v)
                np.add(v, g, out=v)
                p.data -= self.lr * v
                continue
            m, v = slot["m"], slot["v"]
            np.multiply(m, ADAM_BETA1, out=m)
            tmp = (1.0 - ADAM_BETA1) * g
            np.add(m, tmp, out=m)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, g, out=tmp)
            np.multiply(tmp, 1.0 - ADAM_BETA2, out=tmp)
            np.add(v, tmp, out=v)
            step = m / bc1
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            np.add(tmp, ADAM_EPS, out=tmp)
            np.divide(step, tmp, out=step)
            if self.weight_decay:
                np.multiply(p.data, self.lr * self.weight_decay, out=tmp)
                p.data -= tmp
            np.multiply(step, self.lr, out=step)
            p.data -= step
