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
from .encoder import (Encoder, EncoderConfig, EmissionHead, MarkerClsHead,
                      SpanClsConfig, SpanClsHead)
from .tensor import Tensor
from .tokens import SPECIAL_TOKENS, Vocab

N_TAGS = 3  # O/B/I


class SiTagger:
    """Encoder + per-token emissions, decoded through a CRF or plain argmax."""

    def __init__(self, config: EncoderConfig, vocab: Vocab, use_crf: bool = True,
                 seed: int = 0, dtype=np.float32):
        if config.vocab_size != len(vocab):
            raise ValueError("encoder vocab_size must match the vocabulary")
        self.config = config
        self.vocab = vocab
        self.use_crf = use_crf
        self.dtype = dtype
        self.encoder = Encoder(config, seed=seed, dtype=dtype)
        rng = np.random.default_rng([seed, 1])
        self.emission_head = EmissionHead(config.hidden_size, N_TAGS, rng, dtype)
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
             rng: np.random.Generator | None = None,
             loss_kind: str = "nll") -> Tensor:
        emissions = self.emissions(ids, mask, train=train, rng=rng)
        if self.use_crf:
            if loss_kind == "nll":
                return crf_mod.nll_batch(emissions, tags, lengths, self.crf,
                                         per_token=True)
            if loss_kind == "margin":  # unconstrained Viterbi, divided per token
                gaps = crf_mod.margin_loss_batch(emissions, tags, lengths, self.crf)
                return gaps.sum() * (1.0 / float(np.asarray(lengths).sum()))
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        # no CRF: mean per-token cross-entropy over real positions
        logp = emissions - T.logsumexp_t(emissions, axis=-1, keepdims=True)
        gold = T.take_along_last(logp, np.asarray(tags, dtype=np.int64))
        valid = np.arange(emissions.shape[1])[None, :] < np.asarray(lengths)[:, None]
        picked = T.where(valid, gold, T.Tensor(np.zeros_like(gold.data)))
        return picked.sum() * (-1.0 / valid.sum())

    def decode(self, ids: np.ndarray, mask: np.ndarray,
               lengths: np.ndarray) -> list[list[int]]:
        """Best tag path per sequence (BIO-constrained when using the CRF)."""
        with T.no_grad():
            emissions = self.emissions(ids, mask, train=False).numpy()
        out = []
        for i, ln in enumerate(np.asarray(lengths)):
            ln = int(ln)
            if ln == 0:
                out.append([])
                continue
            if self.use_crf:
                path, _ = crf_mod.viterbi(emissions[i, :ln], self.crf, self.constraint)
            else:
                path = emissions[i, :ln].argmax(axis=-1).tolist()
            out.append(path)
        return out

    def save(self, path, meta: dict | None = None) -> None:
        config = {"kind": "si", "use_crf": self.use_crf,
                  "encoder": self.config.to_dict(), "vocab": self.vocab.itos[len(SPECIAL_TOKENS):]}
        save_checkpoint(path, {k: v.data for k, v in self.params().items()},
                        config, meta)

    @classmethod
    def load(cls, path, dtype=np.float32) -> "SiTagger":
        tensors, config, _ = load_checkpoint(path)
        if config.get("kind") != "si":
            raise ValueError(f"{path} is not a sequence-tagger checkpoint")
        vocab = Vocab(config["vocab"])
        model = cls(EncoderConfig(**config["encoder"]), vocab,
                    use_crf=config["use_crf"], dtype=dtype)
        _assign(model.params(), tensors, dtype)
        return model


class TcClassifier:
    """Encoder + one of the two span classification heads."""

    def __init__(self, config: EncoderConfig, vocab: Vocab, labels: list[str],
                 head_kind: str = "marker", span_cfg: SpanClsConfig | None = None,
                 seed: int = 0, dtype=np.float32):
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
        rng = np.random.default_rng([seed, 2])
        if head_kind == "marker":
            self.head = MarkerClsHead(config.hidden_size, len(labels), rng, dtype)
        else:
            self.head = SpanClsHead(config.hidden_size, len(labels), self.span_cfg,
                                    rng, config.dropout, config.attention_dropout, dtype)

    def params(self) -> dict[str, Tensor]:
        out = dict(self.encoder.params)
        out.update(self.head.params)
        return out

    def logits(self, ids: np.ndarray, mask: np.ndarray,
               spans: list[tuple[int, int]] | None = None, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        hidden = self.encoder.encode(ids, mask, train=train, rng=rng)
        if self.head_kind == "marker":
            return self.head(hidden)
        if spans is None:
            raise ValueError("span ranges are required for the span-cls head")
        return self.head.logits(hidden, spans, train=train, rng=rng)

    def probs(self, ids: np.ndarray, mask: np.ndarray,
              spans: list[tuple[int, int]] | None = None) -> np.ndarray:
        with T.no_grad():
            return T.sigmoid(self.logits(ids, mask, spans, train=False)).numpy()

    def save(self, path, meta: dict | None = None) -> None:
        config = {"kind": "tc", "head": self.head_kind, "labels": self.labels,
                  "encoder": self.config.to_dict(), "span_cls": self.span_cfg.to_dict(),
                  "vocab": self.vocab.itos[len(SPECIAL_TOKENS):]}
        save_checkpoint(path, {k: v.data for k, v in self.params().items()},
                        config, meta)

    @classmethod
    def load(cls, path, dtype=np.float32) -> "TcClassifier":
        tensors, config, _ = load_checkpoint(path)
        if config.get("kind") != "tc":
            raise ValueError(f"{path} is not a span-classifier checkpoint")
        vocab = Vocab(config["vocab"])
        model = cls(EncoderConfig(**config["encoder"]), vocab, config["labels"],
                    head_kind=config["head"], span_cfg=SpanClsConfig(**config["span_cls"]),
                    dtype=dtype)
        _assign(model.params(), tensors, dtype)
        return model


def _assign(params: dict[str, Tensor], tensors: dict[str, np.ndarray], dtype) -> None:
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
