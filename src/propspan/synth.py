"""Synthetic corpus generator: planted-trigger articles at desk scale.

Each technique owns a disjoint trigger lexicon. A planted span covers a
trigger word plus ``span_half_width`` tokens of plain filler on each side,
so spans have interior structure that a sequence model can exploit.
``trigger_ambiguity`` controls how often trigger words also occur as plain
filler outside any span, which makes purely per-token decisions noisy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import SpanDataset
from .tokens import Span, tokenize


@dataclass
class SynthConfig:
    vocab_size: int = 120
    technique_count: int = 3
    trigger_lexicon_size: int = 8
    span_half_width: int = 1
    sentences_per_article: tuple[int, int] = (3, 6)
    sentence_length: tuple[int, int] = (6, 14)
    span_rate: float = 0.55          # chance a sentence gets a planted span
    trigger_ambiguity: float = 0.0   # chance a filler slot reuses a trigger word
    class_skew: float = 1.0          # most-frequent : least-frequent technique ratio
    n_train: int = 120
    n_dev: int = 40
    n_pool: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.technique_count < 1:
            raise ValueError("technique_count must be >= 1")
        if self.span_half_width < 0:
            raise ValueError("span_half_width must be >= 0")
        if self.class_skew < 1.0:
            raise ValueError("class_skew is max:min frequency and must be >= 1")
        for name in ("sentences_per_article", "sentence_length"):
            lo_hi = getattr(self, name)
            if not (len(lo_hi) == 2 and all(type(v) is int for v in lo_hi)
                    and 1 <= lo_hi[0] <= lo_hi[1]):
                raise ValueError(f"{name} must be a pair of ints 1 <= lo <= hi, got {lo_hi!r}")

    def technique_names(self) -> list[str]:
        return [f"Technique_{k:02d}" for k in range(self.technique_count)]


@dataclass
class SynthCorpus:
    train: SpanDataset
    dev: SpanDataset
    pool: SpanDataset          # spans withheld from .pool itself
    pool_hidden_spans: list[Span] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)


def _class_probs(cfg: SynthConfig) -> np.ndarray:
    k = cfg.technique_count
    if k == 1:
        return np.ones(1)
    # geometric interpolation from skew down to 1
    weights = cfg.class_skew ** (1.0 - np.arange(k) / (k - 1))
    return weights / weights.sum()


def _lexicons(cfg: SynthConfig) -> tuple[list[str], list[list[str]]]:
    fillers = [f"w{i:04d}" for i in range(cfg.vocab_size)]
    triggers = [[f"t{k}x{j:03d}" for j in range(cfg.trigger_lexicon_size)]
                for k in range(cfg.technique_count)]
    return fillers, triggers


def _make_article(rng: np.random.Generator, cfg: SynthConfig, fillers: list[str],
                  triggers: list[list[str]], probs: np.ndarray,
                  article_id: str) -> tuple[str, list[Span]]:
    h = cfg.span_half_width
    sentences: list[list[str]] = []
    planted: list[tuple[int, int, int]] = []  # (sentence idx, token idx, technique)
    n_sent = int(rng.integers(cfg.sentences_per_article[0], cfg.sentences_per_article[1] + 1))
    for si in range(n_sent):
        lo = max(cfg.sentence_length[0], 2 * h + 3)
        length = int(rng.integers(lo, max(cfg.sentence_length[1], lo) + 1))
        words = [fillers[rng.integers(len(fillers))] for _ in range(length)]
        if cfg.trigger_ambiguity > 0:
            for j in range(length):
                if rng.random() < cfg.trigger_ambiguity:
                    k = int(rng.choice(cfg.technique_count, p=probs))
                    lex = triggers[k]
                    words[j] = lex[rng.integers(len(lex))]
        if rng.random() < cfg.span_rate:
            k = int(rng.choice(cfg.technique_count, p=probs))
            lex = triggers[k]
            pos = int(rng.integers(h, length - h))
            words[pos] = lex[rng.integers(len(lex))]
            # scrub accidental triggers from the planted span's interior
            for j in range(pos - h, pos + h + 1):
                if j != pos and not words[j].startswith("w"):
                    words[j] = fillers[rng.integers(len(fillers))]
            planted.append((si, pos, k))
        sentences.append(words)

    text = "\n".join(" ".join(words) for words in sentences)
    tt = tokenize(text)
    # tokens of sentence si start after the cumulative token count of prior sentences
    offsets = np.cumsum([0] + [len(s) for s in sentences])
    spans = []
    for si, pos, k in planted:
        first = tt.tokens[offsets[si] + pos - h]
        last = tt.tokens[offsets[si] + pos + h]
        spans.append(Span(article_id, first.start, last.end, k))
    return text, spans


def _gen_split(rng: np.random.Generator, cfg: SynthConfig, count: int, prefix: str,
               fillers, triggers, probs) -> tuple[dict[str, str], list[Span]]:
    articles: dict[str, str] = {}
    spans: list[Span] = []
    for i in range(count):
        aid = f"{prefix}{i:04d}"
        text, sp = _make_article(rng, cfg, fillers, triggers, probs, aid)
        articles[aid] = text
        spans.extend(sp)
    return articles, spans


def gen_synth(cfg: SynthConfig) -> SynthCorpus:
    """Deterministic corpus: gold train/dev plus an unlabeled pool."""
    rng = np.random.default_rng(cfg.seed)
    fillers, triggers = _lexicons(cfg)
    probs = _class_probs(cfg)
    labels = cfg.technique_names()

    train_articles, train_spans = _gen_split(rng, cfg, cfg.n_train, "tr", fillers, triggers, probs)
    dev_articles, dev_spans = _gen_split(rng, cfg, cfg.n_dev, "dv", fillers, triggers, probs)
    pool_articles, pool_spans = _gen_split(rng, cfg, cfg.n_pool, "pl", fillers, triggers, probs)

    return SynthCorpus(
        train=SpanDataset(train_articles, train_spans, labels),
        dev=SpanDataset(dev_articles, dev_spans, labels),
        pool=SpanDataset(pool_articles, [], labels),
        pool_hidden_spans=pool_spans,
        labels=labels,
    )
