"""Dense tensors with reverse-mode differentiation.

Storage is plain numpy arrays (float32 by default, float64 for verification
runs). A Tensor produced by an op remembers its parents and per-parent
backward closures; calling ``backward()`` on a scalar walks the graph in
reverse topological order. Graph recording can be switched off with
``no_grad()`` for inference paths.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A numpy array plus an optional position in a computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fns")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fns: tuple[Callable[[np.ndarray], np.ndarray] | None, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into ``leaf.grad`` for every reachable leaf.

        Without an explicit seed gradient the tensor must be scalar.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        flowing: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if not node._parents:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for p, fn in zip(node._parents, node._backward_fns):
                if fn is None or not p.requires_grad:
                    continue
                pg = fn(g)
                key = id(p)
                if key in flowing:
                    flowing[key] = flowing[key] + pg
                else:
                    flowing[key] = pg


def _make_result(data: np.ndarray, parents: Sequence[Tensor],
                 backward_fns: Sequence[Callable[[np.ndarray], np.ndarray] | None]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = track
    if track:
        out._parents = tuple(parents)
        out._backward_fns = tuple(backward_fns)
    else:
        out._parents = ()
        out._backward_fns = ()
    return out


def fused(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """One graph node for a multi-parent op whose gradients share their work.

    ``backward(g)`` returns one gradient per parent. It runs once per backward
    pass, however many of the parents take a gradient.
    """
    latest: list = [None, None]  # the seed gradient and its results

    def make_back(i: int):
        def back(g: np.ndarray) -> np.ndarray:
            if latest[0] is not g:
                latest[0], latest[1] = g, backward(g)
            return latest[1][i]
        return back

    return _make_result(data, parents, tuple(make_back(i) for i in range(len(parents))))


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_result(
        a.data + b.data, (a, b),
        (lambda g: _unbroadcast(g, a.data.shape),
         lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_result(
        a.data - b.data, (a, b),
        (lambda g: _unbroadcast(g, a.data.shape),
         lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_result(
        a.data * b.data, (a, b),
        (lambda g: _unbroadcast(g * b.data, a.data.shape),
         lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_result(
        a.data / b.data, (a, b),
        (lambda g: _unbroadcast(g / b.data, a.data.shape),
         lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make_result(-a.data, (a,), (lambda g: -g,))


def pow_(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    e = float(exponent)
    return _make_result(
        a.data ** e, (a,),
        (lambda g: g * e * a.data ** (e - 1.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _make_result(out_data, (a,), (lambda g: g * out_data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make_result(np.log(a.data), (a,), (lambda g: g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return _make_result(out_data, (a,), (lambda g: g / (2.0 * out_data),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return _make_result(out_data, (a,), (lambda g: g * (1.0 - out_data * out_data),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU; the derivative is of the approximation itself."""
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    out_data = 0.5 * x * (1.0 + t)

    def back(g: np.ndarray) -> np.ndarray:
        dinner = _GELU_C * (1.0 + 0.134145 * x2)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)

    return _make_result(out_data, (a,), (back,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))  # stable for both signs
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype, copy=False)
    return _make_result(out_data, (a,), (lambda g: g * out_data * (1.0 - out_data),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the un-clipped region."""
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _make_result(out_data, (a,), (lambda g: g * inside,))


def where(cond: np.ndarray, a, b) -> Tensor:
    """Select by a constant boolean mask (the mask itself carries no gradient)."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    return _make_result(
        np.where(cond, a.data, b.data), (a, b),
        (lambda g: _unbroadcast(np.where(cond, g, 0.0), a.data.shape),
         lambda g: _unbroadcast(np.where(cond, 0.0, g), b.data.shape)))


# -- reductions ----------------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g2, a.data.shape).astype(a.data.dtype, copy=False)

    return _make_result(out_data, (a,), (back,))


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-shifted softmax; rows over the axis sum to 1 and stay positive."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def back(g: np.ndarray) -> np.ndarray:
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return out_data * (g - dot)

    return _make_result(out_data, (a,), (back,))


def _logsumexp_weights(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp over ``axis`` (kept as size 1) and the softmax weights."""
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    return m + np.log(s), e / s


def logsumexp_t(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log sum exp over an axis, computed with a max shift."""
    a = as_tensor(a)
    out_full, soft = _logsumexp_weights(a.data, axis)
    out_data = out_full if keepdims else np.squeeze(out_full, axis=axis)

    def back(g: np.ndarray) -> np.ndarray:
        g2 = g if keepdims else np.expand_dims(g, axis)
        return g2 * soft

    return _make_result(out_data, (a,), (back,))


def logsumexp(values) -> float:
    """Scalar log-sum-exp of a non-empty vector; safe for large magnitudes."""
    arr = values.data if isinstance(values, Tensor) else np.asarray(values, dtype=np.float64)
    arr = np.asarray(arr, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("logsumexp of an empty vector")
    m = float(arr.max())
    if not np.isfinite(m):
        return m
    return m + math.log(float(np.exp(arr - m).sum()))


# -- shape / indexing ----------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return _make_result(a.data.reshape(shape), (a,), (lambda g: g.reshape(old),))


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    return _make_result(np.swapaxes(a.data, ax1, ax2), (a,),
                        (lambda g: np.swapaxes(g, ax1, ax2),))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_back(i: int):
        def back(g: np.ndarray) -> np.ndarray:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return g[tuple(sl)]
        return back

    return _make_result(out_data, ts, tuple(make_back(i) for i in range(len(ts))))


def _is_basic_key(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[key]
    basic = _is_basic_key(key)

    def back(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(a.data)
        if basic:  # basic indexing never aliases, and np.add.at rejects slices
            full[key] += g
        else:
            np.add.at(full, key, g)
        return full

    return _make_result(out_data, (a,), (back,))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape -> ids.shape + (dim,)."""
    weight = as_tensor(weight)
    ids = np.asarray(ids)
    out_data = weight.data[ids]

    def back(g: np.ndarray) -> np.ndarray:
        # segment sum: group equal ids with a stable sort, add each run once
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=sorted_ids[:1] - 1))
        full = np.zeros_like(weight.data)
        full[sorted_ids[starts]] = np.add.reduceat(
            g.reshape(-1, weight.data.shape[-1])[order], starts, axis=0)
        return full

    return _make_result(out_data, (weight,), (back,))


def take_along_last(a, idx: np.ndarray) -> Tensor:
    """Pick one entry per position along the last axis (idx shape = a.shape[:-1])."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    expanded = np.expand_dims(idx, -1)
    out_data = np.take_along_axis(a.data, expanded, axis=-1).squeeze(-1)

    def back(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(a.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        return full

    return _make_result(out_data, (a,), (back,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def back_a(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)

    def back_b(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)

    return _make_result(out_data, (a, b), (back_a, back_b))


# -- normalization / regularization ---------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = x.data
    n = xd.shape[-1]
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def back_x(g: np.ndarray) -> np.ndarray:
        gh = g * gamma.data
        return inv * (gh - gh.mean(axis=-1, keepdims=True)
                      - xhat * (gh * xhat).mean(axis=-1, keepdims=True))

    def back_gamma(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(g * xhat, gamma.data.shape)

    def back_beta(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(g, beta.data.shape)

    return _make_result(out_data, (x, gamma, beta), (back_x, back_gamma, back_beta))


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout: train-time scaling by 1/(1-p); eval is the identity."""
    if not train or p <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an RNG")
    x = as_tensor(x)
    keep = rng.random(x.data.shape) >= p
    mask = keep.astype(x.data.dtype) * np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    return _make_result(x.data * mask, (x,), (lambda g: g * mask,))


# -- operator sugar ---------------------------------------------------------------

Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
Tensor.__pow__ = lambda self, e: pow_(self, e)
Tensor.__getitem__ = lambda self, key: getitem(self, key)
Tensor.sum = lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims)
Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
Tensor.reshape = lambda self, *shape: reshape(self, shape[0] if len(shape) == 1 else shape)


# -- gradient verification ---------------------------------------------------------

def grad_check(op: Callable[..., Tensor], inputs: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``op`` must return a scalar Tensor. Inputs are perturbed in place one
    element at a time; use float64 inputs for tight tolerances.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = op(*inputs)
    if out.data.size != 1:
        raise ValueError("grad_check requires a scalar-valued op")
    for t in inputs:
        t.zero_grad()
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in inputs]

    worst = 0.0
    with no_grad():
        for t, ana in zip(inputs, analytic):
            ana_flat = ana.reshape(-1)
            for i in range(t.data.size):
                orig = t.data.flat[i]
                t.data.flat[i] = orig + eps
                hi = float(op(*inputs).data)
                t.data.flat[i] = orig - eps
                lo = float(op(*inputs).data)
                t.data.flat[i] = orig
                num = (hi - lo) / (2.0 * eps)
                a = float(ana_flat[i])
                err = abs(a - num) / max(abs(a), abs(num), 1e-6)
                worst = max(worst, err)
    return worst
