"""Dense tensors with reverse-mode differentiation.

Storage is plain numpy arrays (float32 by default, float64 for verification
runs). A Tensor produced by an op remembers its parents and one backward
function that maps the output's gradient to every parent's, in parent order;
calling ``backward()`` on a scalar walks the graph in reverse topological
order and calls each node's function once. Graph recording can be switched
off with ``no_grad()`` for inference paths.

Dtype rule: a model keeps the dtype it is built in. In ``add``, ``sub``,
``mul`` and ``div`` a non-Tensor operand (a Python or NumPy scalar, or an
array of any rank) takes the dtype of the Tensor operand; two Tensors
promote as numpy does. A gradient that lands on a leaf is cast to that
leaf's dtype, so parameter gradients and optimizer slots match their
parameters.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
ATTN_MASK_BIAS = -1e9  # exp() underflows to exactly 0 after the softmax shift
# No-grad attention runs one sequence at a time where one sequence's scores take
# at least this many bytes, from where that kernel is the faster one at every
# batch size (T=64 in float32, T=48 in float64, at 4 heads and hidden 64); the
# bound is per sequence, so no sequence's bytes depend on its batch.
_SEQUENCE_SCORE_BYTES = 64 << 10

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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None

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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into ``leaf.grad`` for every reachable leaf.

        Without an explicit seed gradient the tensor must be scalar. A graph
        back-propagates once: each node lets go of its parents and its backward
        function as soon as its gradient has flowed, so every activation is
        freed during the pass, and a second ``backward`` through any of those
        nodes raises ``RuntimeError``.
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
        while topo:
            node = topo.pop()
            g = flowing.pop(id(node))  # every node of ``topo`` gets one
            if node._backward is None:  # a leaf
                g = g.astype(node.data.dtype, copy=False)
                node.grad = g if node.grad is None else node.grad + g
                continue
            parents, backward = node._parents, node._backward
            node._parents, node._backward = (), _consumed
            for p, pg in zip(parents, backward(g), strict=True):
                if not p.requires_grad:
                    continue
                key = id(p)
                if key in flowing:
                    flowing[key] = flowing[key] + pg
                else:
                    flowing[key] = pg


def _consumed(g: np.ndarray) -> Sequence[np.ndarray]:
    """The backward function of a node whose gradient has already flowed."""
    raise RuntimeError("backward() through a graph that was already back-propagated; "
                       "a graph back-propagates once")


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """An op's output: one graph node whose ``backward(g)`` returns one gradient
    per parent, in parent order, and runs once per backward pass. The node is
    recorded only while grad is enabled and some parent takes a gradient."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = tuple(parents) if track else ()
    out._backward = backward if track else None
    return out


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

def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a non-Tensor one takes the other's dtype."""
    if not isinstance(a, Tensor):
        a = Tensor(a, dtype=b.data.dtype if isinstance(b, Tensor) else None)
    if not isinstance(b, Tensor):
        b = Tensor(b, dtype=a.data.dtype)
    return a, b


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    return _node(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.data.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def pow_(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    e = float(exponent)
    return _node(a.data ** e, (a,), lambda g: (g * e * a.data ** (e - 1.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return _node(out_data, (a,), lambda g: (g / (2.0 * out_data),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return _node(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU's output and the tanh it applies, built in place."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= 0.5 * x
    return out, t


def _gelu_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 0.134145 * x * x))``,
    each op of that expression on one of two buffers, with ``x * x`` recomputed."""
    right = x * 0.5
    left = t * t
    np.subtract(1.0, left, out=left)
    right *= left
    np.multiply(x, x, out=left)
    left *= 0.134145
    left += 1.0
    left *= _GELU_C
    right *= left
    np.add(t, 1.0, out=left)
    left *= 0.5
    left += right
    return np.multiply(left, g, out=left if np.result_type(left, g) == left.dtype else None)


def gelu(a) -> Tensor:
    """tanh-approximation GELU; the derivative is of the approximation itself."""
    a = as_tensor(a)
    out_data, t = _gelu(a.data)
    return _node(out_data, (a,), lambda g: (_gelu_backward(g, a.data, t),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # stable for both signs
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype, copy=False)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = _sigmoid(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data * (1.0 - out_data),))


def where(cond: np.ndarray, a, b) -> Tensor:
    """Select by a constant boolean mask (the mask itself carries no gradient)."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    return _node(np.where(cond, a.data, b.data), (a, b),
                 lambda g: (_unbroadcast(np.where(cond, g, 0.0), a.data.shape),
                            _unbroadcast(np.where(cond, 0.0, g), b.data.shape)))


# -- reductions ----------------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        g2 = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).astype(a.data.dtype, copy=False),)

    return _node(out_data, (a,), backward)


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

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return _node(out_data, (a,), backward)


def logsumexp_t(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log sum exp over an axis, computed with a max shift."""
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    soft = e / s  # the softmax weights, which the backward reuses
    out_full = m + np.log(s)
    out_data = out_full if keepdims else np.squeeze(out_full, axis=axis)

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (g2 * soft,)

    return _node(out_data, (a,), backward)


# -- shape / indexing ----------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    return _node(np.swapaxes(a.data, ax1, ax2), (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    ends = np.cumsum([t.data.shape[axis] for t in ts])[:-1]
    return _node(out_data, ts, lambda g: tuple(np.split(g, ends, axis=axis)))


def _is_basic_key(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)


def _getitem_backward(g: np.ndarray, like: np.ndarray, key) -> np.ndarray:
    """The gradient of ``like[key]``: ``g`` added into zeros at ``key``."""
    full = np.zeros_like(like)
    if _is_basic_key(key):  # basic indexing never aliases, and np.add.at rejects slices
        full[key] += g
    else:
        np.add.at(full, key, g)
    return full


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    return _node(a.data[key], (a,), lambda g: (_getitem_backward(g, a.data, key),))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape -> ids.shape + (dim,)."""
    weight = as_tensor(weight)
    ids = np.asarray(ids)
    out_data = weight.data[ids]

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        # segment sum: group equal ids with a stable sort, add each run once
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=sorted_ids[:1] - 1))
        full = np.zeros_like(weight.data)
        full[sorted_ids[starts]] = np.add.reduceat(
            g.reshape(-1, weight.data.shape[-1])[order], starts, axis=0)
        return (full,)

    return _node(out_data, (weight,), backward)


def take_along_last(a, idx: np.ndarray) -> Tensor:
    """Pick one entry per position along the last axis (idx shape = a.shape[:-1])."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    expanded = np.expand_dims(idx, -1)
    out_data = np.take_along_axis(a.data, expanded, axis=-1).squeeze(-1)

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        full = np.zeros_like(a.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        return (full,)

    return _node(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    return _node(out_data, (a, b), lambda g: (
        _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape),
        _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)))


def _linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    n_in, n_out = weight.shape
    out = np.matmul(x.reshape(-1, n_in), weight)
    out += bias
    return out.reshape(x.shape[:-1] + (n_out,))


def _linear_backward(g: np.ndarray, x: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gradients of ``_linear(x, weight, bias)``: input, weight, bias."""
    n_in, n_out = weight.shape
    g2d = g.reshape(-1, n_out)
    return (np.matmul(g2d, weight.T).reshape(x.shape),
            np.matmul(x.reshape(-1, n_in).T, g2d), _unbroadcast(g2d, bias.shape))


def linear(x, weight, bias) -> Tensor:
    """``x @ weight + bias`` over the last axis of an input of any rank, as one node."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    return _node(_linear(x.data, weight.data, bias.data), (x, weight, bias),
                 lambda g: _linear_backward(g, x.data, weight.data, bias.data))


def _attention_weights(q4: np.ndarray, k4: np.ndarray, key_mask: np.ndarray,
                       scale: np.ndarray) -> np.ndarray:
    """Softmax over keys of ``q4 @ k4^T * scale``, where a key that ``key_mask``
    forbids gets ``ATTN_MASK_BIAS``; the scores live in one buffer updated in place."""
    attn = np.matmul(q4, np.swapaxes(k4, -1, -2))
    np.multiply(attn, scale, out=attn)
    np.add(attn, np.where(key_mask, 0.0, ATTN_MASK_BIAS).astype(attn.dtype)[:, None, None],
           out=attn)
    np.subtract(attn, attn.max(axis=-1, keepdims=True), out=attn)
    np.exp(attn, out=attn)
    np.divide(attn, attn.sum(axis=-1, keepdims=True), out=attn)
    return attn


def _attend_per_sequence(q4: np.ndarray, k4: np.ndarray, v4: np.ndarray,
                         key_mask: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """No-grad attention one sequence at a time; returns ``[B, Tq, heads, dh]``.

    Keys-major scores ``k @ (q * scale)^T`` over the sequence's live key columns,
    so max and sum reduce over the outer axis; ``ATTN_MASK_BIAS`` only where a
    kept column is forbidden; normalised after the value product. In
    self-attention, rows past the last live key are skipped (zero). A sequence
    with no live key keeps every column and row, as the one-buffer path does.
    """
    bsz, heads, tq, dh = q4.shape
    self_attention = tq == k4.shape[2]
    out = np.zeros((bsz, tq, heads, dh), dtype=np.result_type(q4, k4, v4))
    for b in range(bsz):
        m = key_mask[b]
        rows = keys = slice(None)
        live = np.flatnonzero(m)
        if live.size:
            hi = int(live[-1]) + 1
            keys = slice(int(live[0]), hi) if hi - live[0] == live.size else live
            rows = slice(0, hi) if self_attention else rows
        kb, vb, m = k4[b][:, keys], v4[b][:, keys], m[keys]
        scores = np.matmul(kb, np.swapaxes(q4[b][:, rows] * scale, 1, 2))  # [heads, Tk, Tq]
        if not m.all():
            np.add(scores, np.where(m, 0.0, ATTN_MASK_BIAS).astype(scores.dtype)[:, None],
                   out=scores)
        np.subtract(scores, scores.max(axis=1, keepdims=True), out=scores)
        np.exp(scores, out=scores)
        ctx = np.matmul(np.swapaxes(scores, 1, 2), vb)  # [heads, Tq, dh]
        np.divide(ctx, scores.sum(axis=1)[..., None], out=ctx)
        out[b, rows] = np.swapaxes(ctx, 0, 1)
    return out


def _per_sequence_kernel(heads: int, tq: int, tk: int, itemsize: int) -> bool:
    """Whether no-grad attention without dropout runs one sequence at a time."""
    return heads * tq * tk * itemsize >= _SEQUENCE_SCORE_BYTES


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, key_mask: np.ndarray,
               heads: int, p: float, rng: np.random.Generator | None, train: bool,
               track: bool) -> tuple[np.ndarray, tuple | None]:
    """``attention``'s output ``[B, Tq, H]`` from arrays, and what its backward
    reads (None where no graph is recorded): the heads of ``q``, ``k`` and
    ``v``, the softmax weights, the bool dropout decisions or None, the rate
    and the scale. The dropped weights are not kept; the backward recomputes
    them."""
    bsz, tq, hid = q.shape
    tk = k.shape[1]
    dh = hid // heads
    key_mask = np.asarray(key_mask, dtype=bool)
    q4 = np.swapaxes(q.reshape(bsz, tq, heads, dh), 1, 2)
    k4, v4 = (np.swapaxes(t.reshape(bsz, tk, heads, dh), 1, 2) for t in (k, v))
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)

    dropping = train and p > 0.0
    if not track and not dropping and _per_sequence_kernel(heads, tq, tk, q.itemsize):
        return _attend_per_sequence(q4, k4, v4, key_mask, scale).reshape(bsz, tq, hid), None

    attn = _attention_weights(q4, k4, key_mask, scale)  # [B, heads, Tq, Tk]
    keep = _dropout_keep(rng, attn.shape, p) if dropping else None
    ctx = np.matmul(attn if keep is None else _dropped(attn, keep, p, attn.dtype),
                    v4)  # [B, heads, Tq, dh]
    out = np.swapaxes(ctx, 1, 2).reshape(bsz, tq, hid)
    return out, (q4, k4, v4, attn, keep, p, scale) if track else None


def _attention_backward(g: np.ndarray, q4: np.ndarray, k4: np.ndarray, v4: np.ndarray,
                        attn: np.ndarray, keep: np.ndarray | None, p: float,
                        scale: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gradients of ``_attention`` for ``q``, ``k`` and ``v``; the softmax
    backward ``attn * (g_attn - dot) * scale`` runs in place, and the dropout
    mask, rebuilt from ``keep``, then takes ``attn * mask`` and ``g_attn * attn``."""
    bsz, heads, tq, dh = q4.shape
    g_ctx = np.swapaxes(g.reshape(bsz, tq, heads, dh), 1, 2)
    g_attn = np.matmul(g_ctx, np.swapaxes(v4, -1, -2))
    if keep is None:
        g_v = np.matmul(np.swapaxes(attn, -1, -2), g_ctx)
        buf = g_attn * attn
    else:
        buf = _dropout_mask(keep, p, attn.dtype)
        g_attn *= buf
        np.multiply(attn, buf, out=buf)
        g_v = np.matmul(np.swapaxes(buf, -1, -2), g_ctx)
        buf = np.multiply(g_attn, attn, out=buf if np.result_type(g_attn, buf) == buf.dtype
                          else None)
    g_attn -= buf.sum(axis=-1, keepdims=True)
    del buf
    g_attn *= attn
    g_attn *= scale
    g_q = np.matmul(g_attn, k4)
    g_k = np.swapaxes(np.matmul(np.swapaxes(q4, -1, -2), g_attn), 2, 3)
    return tuple(np.swapaxes(gt, 1, 2).reshape(bsz, -1, heads * dh) for gt in (g_q, g_k, g_v))


def attention(q, k, v, key_mask: np.ndarray, heads: int, p: float,
              rng: np.random.Generator | None, train: bool) -> Tensor:
    """Multi-head scaled dot-product attention from projected inputs.

    ``q`` is ``[B, Tq, H]``; ``k`` and ``v`` are ``[B, Tk, H]``. ``key_mask``
    is a ``[B, Tk]`` bool key mask: True where every query of the sequence may
    attend to the key. One graph node for the whole block: split into heads,
    scores scaled by 1/sqrt(head dim), ``ATTN_MASK_BIAS`` added at forbidden
    keys, softmax over keys, inverted dropout with rate ``p`` in train mode,
    the weighted sum of values and the merge back to ``[B, Tq, H]``. Forward
    and backward repeat the arithmetic of the same chain written as separate
    ops, so values and gradients are the same bit for bit.

    With no graph and no dropout, where a sequence's scores take at least
    ``_SEQUENCE_SCORE_BYTES`` (64 KiB), the batch runs one sequence at a time,
    keys-major and normalised after the value product (``_attend_per_sequence``):
    live rows match the one-buffer result to rounding. Otherwise, as for the TC
    heads' one- or two-row queries, the one-buffer path runs. The kernel, and
    so each row's bytes, does not depend on the batch size.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    track = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    out, saved = _attention(q.data, k.data, v.data, key_mask, heads, p, rng, train, track)
    return _node(out, (q, k, v), lambda g: _attention_backward(g, *saved))


# -- normalization / regularization ---------------------------------------------

def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normalised, scaled and shifted ``x``, and what the backward reads:
    ``xhat`` and the reciprocal deviation ``inv``."""
    xhat = x - x.mean(axis=-1, keepdims=True)  # centred, then scaled in place
    inv = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return _scale_shift(xhat, gamma, beta), xhat, inv


def _scale_shift(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``xhat * gamma + beta``: the layer norm's output, which the blocks' backwards
    rebuild from ``xhat`` instead of keeping it."""
    out = xhat * gamma
    out += beta
    return out


def _layer_norm_backward(g: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                         xhat: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gradients of ``_layer_norm`` for ``x``, ``gamma`` and ``beta``; the input's,
    ``inv * (gh - mean(gh) - xhat * mean(gh * xhat))`` with ``gh = g * gamma``,
    runs in place."""
    g_gamma = _unbroadcast(g * xhat, gamma.shape)
    gh = g * gamma
    dx = gh * xhat
    m2 = dx.mean(axis=-1, keepdims=True)
    gh -= gh.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=dx)
    np.subtract(gh, dx, out=dx)
    dx *= inv
    return dx, g_gamma, _unbroadcast(g, beta.shape)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    out_data, xhat, inv = _layer_norm(x.data, gamma.data, beta.data, eps)
    return _node(out_data, (x, gamma, beta),
                 lambda g: _layer_norm_backward(g, gamma.data, beta.data, xhat, inv))


def _dropout_keep(rng: np.random.Generator | None, shape, p: float) -> np.ndarray:
    """Inverted dropout's decisions, one byte each: True where ``rng.random(shape) >= p``."""
    if rng is None:
        raise ValueError("dropout in train mode needs an RNG")
    return rng.random(shape) >= p


def _dropout_mask(keep: np.ndarray, p: float, dtype) -> np.ndarray:
    """Inverted dropout's mask from its decisions: 1/(1-p) where ``keep``, else 0."""
    return keep.astype(dtype) * np.asarray(1.0 / (1.0 - p), dtype=dtype)


def _dropped(x: np.ndarray, keep: np.ndarray, p: float, dtype) -> np.ndarray:
    """``x * _dropout_mask(keep, p, dtype)``, written into the mask where the
    product has the mask's dtype."""
    mask = _dropout_mask(keep, p, dtype)
    return np.multiply(x, mask, out=mask if np.result_type(x, mask) == mask.dtype else None)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout: train-time scaling by 1/(1-p); eval is the identity. The
    node keeps the bool decisions and rebuilds the mask where it multiplies."""
    if not train or p <= 0.0:
        return x
    x = as_tensor(x)
    dtype = x.data.dtype
    keep = _dropout_keep(rng, x.data.shape, p)
    return _node(_dropped(x.data, keep, p, dtype), (x,), lambda g: (_dropped(g, keep, p, dtype),))


# -- transformer sub-blocks ------------------------------------------------------
#
# A pre-norm layer is two graph nodes. Each computes its op chain with the
# private forward and backward of ``layer_norm``, ``linear``, ``attention`` and
# ``gelu``, takes the same dropout draws in the same order, and sums gradients
# in the order ``Tensor.backward`` would sum them over the chain, so outputs and
# gradients equal the chain's bit for bit (for inputs and parameters of one
# dtype, as a model's are: gradients are summed in place). Each keeps only what
# its backward reads and cannot rebuild cheaply: no projection output past the
# attention or GELU, no dropout output, dropout decisions as bool; the layer
# norm's and GELU's outputs are rebuilt with the forward's own ops, so with the
# same bytes. The backward lets each gradient and rebuilt array go once used
# (the ``del``s), which lowers the peak of a backward pass.


def _dropout_residual(out: np.ndarray, res: np.ndarray, p: float,
                      rng: np.random.Generator | None, train: bool) -> np.ndarray | None:
    """``res + dropout(out)``, written into ``out``; returns the bool dropout
    decisions, or None where ``dropout`` is the identity."""
    keep = _dropout_keep(rng, out.shape, p) if train and p > 0.0 else None
    if keep is not None:
        out *= _dropout_mask(keep, p, out.dtype)
    out += res
    return keep


def attention_block(h: Tensor, params: Sequence[Tensor], key_mask: np.ndarray, heads: int,
                    attention_dropout: float, p: float, rng: np.random.Generator | None,
                    train: bool, rows: np.ndarray | None = None) -> Tensor:
    """``h + dropout(attention(q, k, v) @ wo + bo)`` over ``hn = layer_norm(h)``,
    with ``q, k, v = hn @ w + b``, as one graph node.

    ``params`` is ``(ln_g, ln_b, wq, bq, wk, bk, wv, bv, wo, bo)``; ``key_mask``
    and the attention's kernel are those of ``attention``. ``rows`` ([B, S]
    positions) keeps the queries and the residual at those positions only, for
    an output of ``[B, S, H]``. The backward keeps the layer norm's ``xhat`` and
    ``inv``, ``q``, ``k`` and ``v``, the softmax weights, the two dropouts' bool
    decisions and the attention's output; it rebuilds ``hn``.
    """
    h = as_tensor(h)
    ln_g, ln_b, wq, bq, wk, bk, wv, bv, wo, bo = params
    parents = (h, *params)
    track = _grad_enabled and any(t.requires_grad for t in parents)
    hn, xhat, inv = _layer_norm(h.data, ln_g.data, ln_b.data)
    hq, res = hn, h.data
    if rows is not None:
        at = (np.arange(h.data.shape[0])[:, None], rows)
        hq, res = hn[at], res[at]
    q = _linear(hq, wq.data, bq.data)
    k = _linear(hn, wk.data, bk.data)
    v = _linear(hn, wv.data, bv.data)
    del hn, hq
    ctx, saved = _attention(q, k, v, key_mask, heads, attention_dropout, rng, train, track)
    del q, k, v
    out = _linear(ctx, wo.data, bo.data)
    keep, dtype = _dropout_residual(out, res, p, rng, train), out.dtype

    def backward(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g_ctx, g_wo, g_bo = _linear_backward(g if keep is None else _dropped(g, keep, p, dtype),
                                             ctx, wo.data, bo.data)
        g_q, g_k, g_v = _attention_backward(g_ctx, *saved)
        del g_ctx
        hn = _scale_shift(xhat, ln_g.data, ln_b.data)
        g_hn, g_wq, g_bq = _linear_backward(g_q, hn if rows is None else hn[at], wq.data, bq.data)
        del g_q
        if rows is not None:
            g_hn = _getitem_backward(g_hn, hn, at)
        g_in, g_wk, g_bk = _linear_backward(g_k, hn, wk.data, bk.data)
        del g_k
        g_hn += g_in
        del g_in
        g_in, g_wv, g_bv = _linear_backward(g_v, hn, wv.data, bv.data)
        del g_v, hn
        g_hn += g_in  # (q + k) + v, the chain's order
        del g_in
        g_h, g_lg, g_lb = _layer_norm_backward(g_hn, ln_g.data, ln_b.data, xhat, inv)
        del g_hn
        g_h += g if rows is None else _getitem_backward(g, h.data, at)
        return g_h, g_lg, g_lb, g_wq, g_bq, g_wk, g_bk, g_wv, g_bv, g_wo, g_bo

    return _node(out, parents, backward)


def mlp_block(h: Tensor, params: Sequence[Tensor], p: float,
              rng: np.random.Generator | None, train: bool) -> Tensor:
    """``h + dropout(gelu(layer_norm(h) @ w1 + b1) @ w2 + b2)`` as one graph node.

    ``params`` is ``(ln_g, ln_b, w1, b1, w2, b2)``. The backward keeps the layer
    norm's ``xhat`` and ``inv``, the first projection's output and the dropout's
    bool decisions; it rebuilds the layer norm's output and GELU's tanh and
    output.
    """
    h = as_tensor(h)
    ln_g, ln_b, w1, b1, w2, b2 = params
    parents = (h, *params)
    m, xhat, inv = _layer_norm(h.data, ln_g.data, ln_b.data)
    x = _linear(m, w1.data, b1.data)
    del m
    out = _linear(_gelu(x)[0], w2.data, b2.data)
    keep, dtype = _dropout_residual(out, h.data, p, rng, train), out.dtype

    def backward(g: np.ndarray) -> tuple[np.ndarray, ...]:
        u, t = _gelu(x)
        g_u, g_w2, g_b2 = _linear_backward(g if keep is None else _dropped(g, keep, p, dtype),
                                           u, w2.data, b2.data)
        del u
        g_u = _gelu_backward(g_u, x, t)
        del t
        m = _scale_shift(xhat, ln_g.data, ln_b.data)
        g_m, g_w1, g_b1 = _linear_backward(g_u, m, w1.data, b1.data)
        del g_u, m
        g_h, g_lg, g_lb = _layer_norm_backward(g_m, ln_g.data, ln_b.data, xhat, inv)
        del g_m
        g_h += g
        return g_h, g_lg, g_lb, g_w1, g_b1, g_w2, g_b2

    return _node(out, parents, backward)


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
