"""Transformer encoder and its task heads.

The host encoder is a small pre-norm transformer with learned positional
embeddings. Three heads sit on top of its hidden states:

  - per-token label scores feeding the CRF,
  - sequence classification over the first ([BOS]) position, used with
    injected span markers,
  - a span-stacked classifier: a second small transformer run over a
    learned [BOS] vector plus the host states of the span tokens only.
    It adds no positional signal of its own, so it runs as the same
    layers over [BOS] followed by the whole host sequence, with every
    query's attention restricted to {BOS} union span, reading the BOS
    output: one pass for a batch of spans of any lengths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

INIT_STD = 0.02
# A no-grad block of sequences holds the most whose widest activation fits in
# this many bytes, a quarter of the 2 MiB L2 cache of a desk CPU core.
_BLOCK_BYTES = 512 << 10
# a layer's parameters, in the order T.attention_block and T.mlp_block take them
_ATTENTION_PARAMS = ("ln1_g", "ln1_b", "wq", "wq_b", "wk", "wk_b", "wv", "wv_b", "wo", "wo_b")
_MLP_PARAMS = ("ln2_g", "ln2_b", "w1", "w1_b", "w2", "w2_b")


@dataclass
class EncoderConfig:
    vocab_size: int
    hidden_size: int = 64
    layers: int = 2
    heads: int = 4
    intermediate_size: int = 128
    max_positions: int = 256
    dropout: float = 0.1
    attention_dropout: float = 0.1

    def __post_init__(self):
        if self.hidden_size % self.heads != 0:
            raise ValueError("hidden_size must be divisible by heads")
        for name in ("dropout", "attention_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SpanClsConfig:
    layers: int = 3
    heads: int = 4
    intermediate_size: int = 512
    # hidden size is inherited from the host encoder

    def to_dict(self) -> dict:
        return asdict(self)


def _init(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return rng.normal(0.0, INIT_STD, shape).astype(dtype)


def _weight(rng: np.random.Generator | None, shape, dtype) -> Tensor:
    """A trainable weight drawn by ``_init``; without an rng, zeros that a
    checkpoint load overwrites, with no random draw."""
    data = np.zeros(shape, dtype=dtype) if rng is None else _init(rng, shape, dtype)
    return Tensor(data, requires_grad=True)


class TransformerStack:
    """Pre-norm residual blocks with GELU MLPs; no embeddings of its own. Each
    layer is two graph nodes, ``T.attention_block`` and ``T.mlp_block``, in
    every mode."""

    def __init__(self, prefix: str, hidden: int, layers: int, heads: int,
                 intermediate: int, dropout: float, attention_dropout: float,
                 rng: np.random.Generator | None, dtype=np.float32):
        self.hidden = hidden
        self.layers = layers
        self.heads = heads
        self.dropout = dropout
        self.attention_dropout = attention_dropout
        self.params: dict[str, Tensor] = {}
        p = self.params
        for i in range(layers):
            base = f"{prefix}.layer{i}"
            for nm in ("wq", "wk", "wv", "wo"):
                p[f"{base}.{nm}"] = _weight(rng, (hidden, hidden), dtype)
                p[f"{base}.{nm}_b"] = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
            p[f"{base}.ln1_g"] = Tensor(np.ones(hidden, dtype=dtype), requires_grad=True)
            p[f"{base}.ln1_b"] = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
            p[f"{base}.w1"] = _weight(rng, (hidden, intermediate), dtype)
            p[f"{base}.w1_b"] = Tensor(np.zeros(intermediate, dtype=dtype), requires_grad=True)
            p[f"{base}.w2"] = _weight(rng, (intermediate, hidden), dtype)
            p[f"{base}.w2_b"] = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
            p[f"{base}.ln2_g"] = Tensor(np.ones(hidden, dtype=dtype), requires_grad=True)
            p[f"{base}.ln2_b"] = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        p[f"{prefix}.ln_f_g"] = Tensor(np.ones(hidden, dtype=dtype), requires_grad=True)
        p[f"{prefix}.ln_f_b"] = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.prefix = prefix

    def __call__(self, x: Tensor, key_mask: np.ndarray,
                 train: bool = False, rng: np.random.Generator | None = None,
                 rows: np.ndarray | None = None) -> Tensor:
        """key_mask: a [B, T] bool key mask; True = every query may attend to the key.

        ``rows`` ([B, S] positions) asks for the output at those positions
        only, as ``[B, S, H]``. The last layer then runs its layer norm, keys
        and values over every position and the rest only at ``rows``.
        """
        p = self.params
        h = x
        for i in range(self.layers):
            base = f"{self.prefix}.layer{i}"
            last = rows is not None and i == self.layers - 1
            h = T.attention_block(h, [p[f"{base}.{nm}"] for nm in _ATTENTION_PARAMS], key_mask,
                                  self.heads, self.attention_dropout, self.dropout, rng, train,
                                  rows if last else None)
            h = T.mlp_block(h, [p[f"{base}.{nm}"] for nm in _MLP_PARAMS], self.dropout, rng,
                            train)
        return T.layer_norm(h, p[f"{self.prefix}.ln_f_g"], p[f"{self.prefix}.ln_f_b"])


class Encoder:
    """Token + position embeddings through a TransformerStack."""

    def __init__(self, config: EncoderConfig, seed: int | None = 0, dtype=np.float32):
        """``seed=None`` draws nothing: the weights ``_init`` would draw start
        as zeros, for a checkpoint load to overwrite."""
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        self.dtype = dtype
        self.params: dict[str, Tensor] = {
            "emb.tok": _weight(rng, (config.vocab_size, config.hidden_size), dtype),
            "emb.pos": _weight(rng, (config.max_positions, config.hidden_size), dtype),
        }
        self.stack = TransformerStack(
            "enc", config.hidden_size, config.layers, config.heads,
            config.intermediate_size, config.dropout, config.attention_dropout,
            rng, dtype)
        self.params.update(self.stack.params)

    def encode(self, ids: np.ndarray, mask: np.ndarray,
               train: bool = False, rng: np.random.Generator | None = None,
               rows: np.ndarray | None = None) -> Tensor:
        """Hidden states [B, T, H], or [B, S, H] at ``rows`` (see TransformerStack).

        A no-grad eval batch whose attention runs one sequence at a time (see
        ``T._per_sequence_kernel``) runs embeddings, stack and final norm over
        ``_blocks`` of consecutive sequences, concatenated; the bytes do not
        depend on the blocks where a BLAS product row does not depend on the
        row count (OpenBLAS at the desk shapes).
        """
        ids, mask = np.asarray(ids, dtype=np.int64), np.asarray(mask, dtype=bool)
        if ids.ndim != 2:
            raise ValueError("ids must be [batch, seq]")
        bsz, seq = ids.shape
        if seq > self.config.max_positions:
            raise ValueError(f"sequence of {seq} tokens exceeds max positions "
                             f"{self.config.max_positions}")
        if ids.max(initial=0) >= self.config.vocab_size:
            raise ValueError("token id outside the vocabulary")
        parts = []
        for s in self._blocks(bsz, seq, rows, train):
            x = T.embedding(self.params["emb.tok"], ids[s]) + self.params["emb.pos"][:seq]
            x = T.dropout(x, self.config.dropout, rng, train)
            parts.append(self.stack(x, mask[s], train, rng, None if rows is None else rows[s]))
        return parts[0] if len(parts) == 1 else T.concat(parts, axis=0)

    def _blocks(self, bsz: int, seq: int, rows: np.ndarray | None, train: bool) -> list[slice]:
        """The slices of the batch that ``encode`` runs in turn: the whole
        batch, unless no graph is recorded and a sequence's self-attention
        runs one sequence at a time (``T._per_sequence_kernel``).

        The blocks are as few as hold at most the sequences whose widest
        activation fits in ``_BLOCK_BYTES`` (at least one), with sizes that
        differ by at most one, larger first. Where a sequence gives a product
        one row, at most ``B // 2`` blocks, so that each holds two sequences or
        more: numpy computes a one-row product by gemv, whose bits differ from
        gemm's.
        """
        cfg, size = self.config, np.dtype(self.dtype).itemsize
        if train or T.is_grad_enabled() or not T._per_sequence_kernel(cfg.heads, seq, seq, size):
            return [slice(None)]
        width = max(cfg.hidden_size, cfg.intermediate_size)
        count = -(-bsz // max(_BLOCK_BYTES // (seq * width * size), 1))
        if min(seq, seq if rows is None else rows.shape[1]) == 1:
            count = min(count, bsz // 2)
        count = max(count, 1)
        small, larger = divmod(bsz, count)
        bounds = [i * small + min(i, larger) for i in range(count + 1)]
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class LinearHead:
    """One projection of the last axis, owning ``<prefix>.w`` and ``<prefix>.b``."""

    def __init__(self, prefix: str, hidden: int, n_out: int,
                 rng: np.random.Generator | None, dtype=np.float32):
        self.w = _weight(rng, (hidden, n_out), dtype)
        self.b = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)
        self.params = {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


def _check_spans(spans, bsz: int, seq: int) -> None:
    if len(spans) != bsz:
        raise ValueError("one span range per batch element required")
    for s, e in spans:
        if not (0 <= s < e <= seq):
            raise ValueError(f"empty or out-of-range span ({s}, {e})")


class SpanClsHead:
    """Small transformer stacked over the span's host states plus a [BOS] row.

    The stacked layers see host representations as-is; the only owned
    embedding is the [BOS] vector, so span order information comes purely
    from the host states.
    """

    def __init__(self, hidden: int, n_classes: int, cfg: SpanClsConfig,
                 rng: np.random.Generator | None, dropout: float = 0.1,
                 attention_dropout: float = 0.1, dtype=np.float32):
        if hidden % cfg.heads != 0:
            raise ValueError("host hidden size must be divisible by span-cls heads")
        self.cfg = cfg
        self.stack = TransformerStack("span", hidden, cfg.layers, cfg.heads,
                                      cfg.intermediate_size, dropout,
                                      attention_dropout, rng, dtype)
        self.params = dict(self.stack.params)
        self.params["span.bos"] = _weight(rng, (1, hidden), dtype)
        self.out = LinearHead("span", hidden, n_classes, rng, dtype)
        self.params.update(self.out.params)

    @staticmethod
    def host_rows(spans: list[tuple[int, int]], bsz: int, seq: int):
        """The host positions the head reads, and the spans re-indexed to them.

        Row ``i`` holds span ``i``'s tokens, padded to the longest span by
        repeating its last token; its span becomes ``(0, e - s)``.
        """
        _check_spans(spans, bsz, seq)
        starts, ends = np.asarray(spans, dtype=np.int64).reshape(-1, 2).T
        lengths = ends - starts
        steps = np.arange(int(lengths.max(initial=1)))
        rows = starts[:, None] + np.minimum(steps[None, :], lengths[:, None] - 1)
        return rows, [(0, int(n)) for n in lengths]

    def logits(self, hidden: Tensor, spans: list[tuple[int, int]],
               train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """Class logits per batch element; spans index into the host sequence.

        One pass of the stack over [BOS] followed by the host states, ``[B,
        1 + S, H]``, whose keys are [BOS] and the element's own span; the
        output is read at [BOS] only.
        """
        bsz, seq = hidden.shape[:2]
        _check_spans(spans, bsz, seq)
        bos_row = np.zeros((bsz, 1), dtype=np.int64)
        seqs = T.concat([T.embedding(self.params["span.bos"], bos_row), hidden], axis=1)
        starts, ends = np.asarray(spans, dtype=np.int64).T
        keys = np.arange(1 + seq)  # key k > 0 is host position k - 1
        allowed = (keys == 0) | ((keys > starts[:, None]) & (keys <= ends[:, None]))
        out = self.stack(seqs, allowed, train=train, rng=rng, rows=bos_row)
        return self.out(out[:, 0, :])
