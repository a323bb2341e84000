"""Task models: the sequence tagger and the span classifier.

Both own their vocabulary and expose a flat named-parameter dict, so
optimizers and checkpoints see one uniform surface. Checkpoints embed the
vocabulary and label inventory, which keeps annotation and ensembling
reproducible without the original corpus files.
"""

from __future__ import annotations

import numpy as np

from . import crf as crf_mod
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import Encoder, EncoderConfig, LinearHead, SpanClsConfig, SpanClsHead
from .tensor import Tensor
from .tokens import BOS, EOS, SPECIAL_TOKENS, Vocab, inject_markers

N_TAGS = 3  # O/B/I


class SiTagger:
    """Encoder + per-token emissions, decoded through a CRF or plain argmax."""

    def __init__(self, config: EncoderConfig, vocab: Vocab, use_crf: bool = True,
                 seed: int | None = 0, dtype=np.float32):
        if config.vocab_size != len(vocab):
            raise ValueError("encoder vocab_size must match the vocabulary")
        self.config = config
        self.vocab = vocab
        self.use_crf = use_crf
        self.dtype = dtype
        self.encoder = Encoder(config, seed=seed, dtype=dtype)
        rng = None if seed is None else np.random.default_rng([seed, 1])
        self.emission_head = LinearHead("emit", config.hidden_size, N_TAGS, rng, dtype)
        self.crf = crf_mod.CrfParams.create(N_TAGS, rng=rng, dtype=dtype)
        self.constraint = crf_mod.ConstraintMask.bio()

    def params(self) -> dict[str, Tensor]:
        out = dict(self.encoder.params)
        out.update(self.emission_head.params)
        out.update(self.crf.named())
        return out

    def emissions(self, ids: np.ndarray, mask: np.ndarray, train: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
        hidden = self.encoder.encode(ids, mask, train=train, rng=rng)
        return self.emission_head(hidden)

    def loss(self, ids: np.ndarray, mask: np.ndarray, tags: np.ndarray,
             lengths: np.ndarray, train: bool = True,
             rng: np.random.Generator | None = None) -> Tensor:
        emissions = self.emissions(ids, mask, train=train, rng=rng)
        if self.use_crf:
            # the CRF NLL per token, not per sequence: gradients stay O(1) in
            # sequence length, which keeps plain SGD stable
            nll = crf_mod.nll_batch(emissions, tags, lengths, self.crf)
            return nll.sum() * (1.0 / float(np.asarray(lengths).sum()))
        # no CRF: mean per-token cross-entropy over real positions
        logp = emissions - T.logsumexp_t(emissions, axis=-1, keepdims=True)
        gold = T.take_along_last(logp, np.asarray(tags, dtype=np.int64))
        valid = np.arange(emissions.shape[1])[None, :] < np.asarray(lengths)[:, None]
        picked = T.where(valid, gold, T.Tensor(np.zeros_like(gold.data)))
        return picked.sum() * (-1.0 / valid.sum())

    def decode(self, ids: np.ndarray, mask: np.ndarray,
               lengths: np.ndarray) -> list[list[int]]:
        """Best tag path per sequence (BIO-constrained when using the CRF).

        Raises ``RuntimeError`` naming the first row whose real positions
        carry a non-finite emission.
        """
        with T.no_grad():
            emissions = self.emissions(ids, mask, train=False).numpy()
        lengths = np.asarray(lengths, dtype=np.int64)
        valid = np.arange(emissions.shape[1])[None, :] < lengths[:, None]
        bad = np.flatnonzero((valid & ~np.isfinite(emissions).all(axis=-1)).any(axis=1))
        if bad.size:
            raise RuntimeError(f"non-finite emissions in row {int(bad[0])}")
        if not self.use_crf:
            best = emissions.argmax(axis=-1)
            return [best[i, :ln].tolist() for i, ln in enumerate(lengths)]
        out: list[list[int]] = [[] for _ in lengths]
        rows = np.flatnonzero(lengths > 0)
        if rows.size:
            paths, _ = crf_mod.viterbi_batch(emissions[rows], lengths[rows], self.crf,
                                             self.constraint)
            for i, path in zip(rows, paths):
                out[i] = path
        return out

    def save(self, path, meta: dict | None = None) -> None:
        _save(self, path, meta, kind="si", use_crf=self.use_crf)

    @classmethod
    def load(cls, path, dtype=np.float32) -> "SiTagger":
        return _load(path, "si", "sequence-tagger", dtype, lambda config, enc, vocab: cls(
            enc, vocab, use_crf=config["use_crf"], seed=None, dtype=dtype))


class TcClassifier:
    """Encoder + one of the two span classification heads."""

    def __init__(self, config: EncoderConfig, vocab: Vocab, labels: list[str],
                 head_kind: str = "marker", span_cfg: SpanClsConfig | None = None,
                 seed: int | None = 0, dtype=np.float32):
        if config.vocab_size != len(vocab):
            raise ValueError("encoder vocab_size must match the vocabulary")
        if head_kind not in ("marker", "span_cls"):
            raise ValueError(f"unknown head kind {head_kind!r}")
        self.config = config
        self.vocab = vocab
        self.labels = list(labels)
        self.head_kind = head_kind
        self.span_cfg = span_cfg or SpanClsConfig()
        self.dtype = dtype
        self.encoder = Encoder(config, seed=seed, dtype=dtype)
        rng = None if seed is None else np.random.default_rng([seed, 2])
        if head_kind == "marker":
            self.head = LinearHead("cls", config.hidden_size, len(labels), rng, dtype)
        else:
            self.head = SpanClsHead(config.hidden_size, len(labels), self.span_cfg,
                                    rng, config.dropout, config.attention_dropout, dtype)

    def params(self) -> dict[str, Tensor]:
        out = dict(self.encoder.params)
        out.update(self.head.params)
        return out

    def inputs(self, items) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """Token ids, mask and each item's span range in them, laid out for this
        model's head from classification items (``window_tokens``,
        ``span_start``, ``span_end``): ``[BOS] left [BOP] span [EOP] right
        [EOS]`` for the marker head, ``[BOS] window [EOS]`` for the span head."""
        marker = self.head_kind == "marker"
        seqs = [inject_markers(it.window_tokens, it.span_start, it.span_end) if marker
                else [BOS, *it.window_tokens, EOS] for it in items]
        shift = 2 if marker else 1  # the span follows [BOS] (and [BOP])
        ids, mask, _ = self.vocab.pad(seqs)
        return ids, mask, [(it.span_start + shift, it.span_end + shift) for it in items]

    def logits(self, ids: np.ndarray, mask: np.ndarray, spans: list[tuple[int, int]],
               train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """Class logits [B, n_classes] of ``inputs``' layout; the encoder's last
        layer runs only at the positions the head reads."""
        if self.head_kind == "marker":  # class logits from the [BOS] position; spans unread
            bos_row = np.zeros((len(ids), 1), dtype=np.int64)
            hidden = self.encoder.encode(ids, mask, train=train, rng=rng, rows=bos_row)
            return self.head(hidden[:, 0, :])
        rows, spans = SpanClsHead.host_rows(spans, *np.shape(ids))
        hidden = self.encoder.encode(ids, mask, train=train, rng=rng, rows=rows)
        return self.head.logits(hidden, spans, train=train, rng=rng)

    def probs(self, ids: np.ndarray, mask: np.ndarray,
              spans: list[tuple[int, int]]) -> np.ndarray:
        with T.no_grad():
            return T.sigmoid(self.logits(ids, mask, spans, train=False)).numpy()

    def save(self, path, meta: dict | None = None) -> None:
        _save(self, path, meta, kind="tc", head=self.head_kind, labels=self.labels,
              span_cls=self.span_cfg.to_dict())

    @classmethod
    def load(cls, path, dtype=np.float32) -> "TcClassifier":
        return _load(path, "tc", "span-classifier", dtype, lambda config, enc, vocab: cls(
            enc, vocab, config["labels"], head_kind=config["head"],
            span_cfg=SpanClsConfig(**config["span_cls"]), seed=None, dtype=dtype))


def _save(model, path, meta: dict | None, **config) -> None:
    """Write ``model``'s parameters and ``config`` with its encoder config and
    vocabulary (the words after the special tokens)."""
    config.update(encoder=model.config.to_dict(), vocab=model.vocab.itos[len(SPECIAL_TOKENS):])
    save_checkpoint(path, {k: v.data for k, v in model.params().items()}, config, meta)


def _load(path, kind: str, what: str, dtype, build):
    """The model that ``build(config, encoder config, vocabulary)`` makes from a
    ``kind`` checkpoint, with the checkpoint's tensors as its parameters."""
    tensors, config, _ = load_checkpoint(path)
    if config.get("kind") != kind:
        raise ValueError(f"{path} is not a {what} checkpoint")
    model = build(config, EncoderConfig(**config["encoder"]), Vocab(config["vocab"]))
    params = model.params()
    missing = set(params) - set(tensors)
    extra = set(tensors) - set(params)
    if missing or extra:
        raise ValueError(f"checkpoint tensor mismatch: missing={sorted(missing)} "
                         f"extra={sorted(extra)}")
    for name, p in params.items():
        arr = tensors[name]
        if arr.shape != p.data.shape:
            raise ValueError(f"{name}: checkpoint shape {arr.shape} != "
                             f"config shape {p.data.shape}")
        p.data = arr.astype(dtype, copy=False)
    return model
