"""Training and experiment orchestration.

Covers the two task recipes (sequence tagging with SGD on the CRF loss,
span classification with AdamW on BCE), naive self-training for both,
probability-averaging ensembles with full subset enumeration, and k-fold
splits over train+dev unions. A JSON line per run is appended to
``runs.jsonl`` for downstream ablation tooling. Independent work (the folds
of a cross-validation, the batches of a classification pass) goes through
``parallel_map``, which spreads it over forked processes on the CPUs this
process may use.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import tensor as T
from .datasets import SpanDataset
from .encoder import EncoderConfig, SpanClsConfig
from .losses import class_weights, reweighted_bce, uniform_weights
from .metrics import flc_f1, micro_f1
from .models import SiTagger, TcClassifier
from .optim import Optimizer, adamw, sgd
from .tokens import (BOS, EOS, Span, Token, TokenizedText, Vocab, extend_context,
                     inject_markers, spans_to_tags, tags_to_spans)

DESK_STEPS_SI = 2000
DESK_STEPS_TC = 1000


@dataclass(frozen=True)
class HyperParams:
    task: str
    dropout: float = 0.1
    attention_dropout: float = 0.1
    max_seq_len: int = 256
    batch_size: int = 8
    lr: float = 5e-4
    steps: int = DESK_STEPS_SI
    momentum: float = 0.9
    weight_decay: float = 0.01
    optimizer: str = "sgd"
    eval_every: int = 200
    patience: int = 5

    def __post_init__(self):
        if self.task not in ("si", "tc"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.lr <= 0 or self.batch_size <= 0 or self.steps < 0:
            raise ValueError("lr and batch_size must be positive, steps >= 0")
        for name in ("max_seq_len", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"optimizer must be 'sgd' or 'adamw', got {self.optimizer!r}")

    @classmethod
    def desk(cls, task: str) -> "HyperParams":
        if task == "si":
            return cls(task="si", batch_size=8, lr=0.05, steps=DESK_STEPS_SI,
                       momentum=0.9, weight_decay=0.0, optimizer="sgd",
                       eval_every=200)
        if task == "tc":
            return cls(task="tc", batch_size=16, lr=1e-3, steps=DESK_STEPS_TC,
                       momentum=0.0, weight_decay=0.01, optimizer="adamw",
                       eval_every=100)
        raise ValueError(f"unknown task {task!r}")

    @classmethod
    def paper(cls, task: str) -> "HyperParams":
        if task == "si":
            return cls(task="si", batch_size=8, lr=5e-4, steps=60_000,
                       momentum=0.9, weight_decay=0.0, optimizer="sgd",
                       eval_every=2000)
        if task == "tc":
            return cls(task="tc", batch_size=16, lr=2e-5, steps=20_000,
                       momentum=0.0, weight_decay=0.01, optimizer="adamw",
                       eval_every=2000)
        raise ValueError(f"unknown task {task!r}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def self_train_overwrite(hp: HyperParams) -> HyperParams:
    """The self-training profile: no dropout, batch 16."""
    return replace(hp, dropout=0.0, attention_dropout=0.0, batch_size=16)


@dataclass(frozen=True)
class TcOptions:
    reweight: bool = False
    span_cls: bool = False
    self_train: bool = False


def desk_encoder_config(vocab_size: int, hp: HyperParams) -> EncoderConfig:
    return EncoderConfig(vocab_size=vocab_size, max_positions=hp.max_seq_len,
                         dropout=hp.dropout, attention_dropout=hp.attention_dropout)


def derive_seed(seed: int, k: int) -> int:
    """Deterministic child stream id."""
    return (seed * 1_000_003 + k) % (2 ** 31 - 1)


# -- parallel map ---------------------------------------------------------------------

_in_map = False  # true while a parallel_map runs here, and in its workers


def _usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` narrows them); 1 without fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _worker(fn, tasks: list, write_fd: int) -> None:
    """Body of a forked worker: runs its share, sends the results (or the
    exception) up the pipe and exits the process."""
    code = 1
    try:
        try:
            reply = ("ok", [fn(t) for t in tasks])
        except Exception as exc:  # re-raised in the parent
            reply = ("error", exc)
            try:  # an exception that does not survive pickling goes back as its text
                pickle.loads(pickle.dumps(exc))
            except Exception:
                reply = ("error", RuntimeError(f"{type(exc).__name__}: {exc}"))
        data = pickle.dumps(reply)  # a result that cannot be pickled sends nothing
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)  # no atexit handlers, no flush of the parent's buffers


def parallel_map(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, spread over forked processes; results in task order.

    With n = min(len(tasks), usable CPUs), this process runs ``tasks[0::n]``
    and forked worker w runs ``tasks[w::n]``. The map runs serially when n < 2,
    inside another ``parallel_map`` (in either process) and where there is no
    fork or CPU affinity. A worker's exception is re-raised here with its
    type; a worker that dies without a result raises ``RuntimeError``. No
    worker outlives the call.
    """
    global _in_map
    tasks = list(tasks)
    n = min(len(tasks), _usable_cpus())
    if n < 2 or _in_map:
        return [fn(t) for t in tasks]
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    _in_map = True
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                # a bare fork: with multiprocessing's, the caller's peak RSS in a
                # TC classification pass grew by ~10 MB (glibc's mmap threshold)
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _worker(fn, tasks[w::n], write_fd)
            os.close(write_fd)
            workers.append((pid, read_fd))
        shares = [[fn(t) for t in tasks[0::n]]]
        replies = []
        for _, read_fd in workers:
            with open(read_fd, "rb", closefd=False) as pipe:
                replies.append(pipe.read())
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _in_map = False
        codes = []
        for pid, read_fd in workers:
            os.close(read_fd)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for w, (reply, code) in enumerate(zip(replies, codes), 1):
        if not reply:
            raise RuntimeError(f"parallel_map worker {w} exited with code {code} "
                               "and no result")
        status, value = pickle.loads(reply)
        if status == "error":
            raise value
        shares.append(value)
    results = [None] * len(tasks)
    for w, share in enumerate(shares):
        results[w::n] = share
    return results


# -- sequence-tagging data ---------------------------------------------------------

@dataclass
class SiWindow:
    article_id: str
    tokens: tuple[Token, ...]
    tags: list[int]


def _line_groups(tt: TokenizedText) -> list[list[Token]]:
    """Consecutive tokens with no newline between them."""
    groups: list[list[Token]] = []
    prev_end = None
    for tok in tt.tokens:
        if prev_end is None or "\n" in tt.text[prev_end:tok.start]:
            groups.append([])
        groups[-1].append(tok)
        prev_end = tok.end
    return groups


def build_si_windows(data: SpanDataset, max_len: int) -> list[SiWindow]:
    """Pack whole lines into windows of at most ``max_len`` tokens."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    windows: list[SiWindow] = []
    for aid in sorted(data.tokenized):
        tt = data.tokenized[aid]
        if not tt.tokens:
            continue
        tags = spans_to_tags(tt, data.spans_for(aid))
        bounds: list[tuple[int, int]] = []
        cursor = 0
        for group in _line_groups(tt):
            glen = len(group)
            while glen > max_len:  # oversize line: hard split
                bounds.append((cursor, cursor + max_len))
                cursor += max_len
                glen -= max_len
            if bounds and (bounds[-1][1] - bounds[-1][0]) + glen <= max_len \
                    and bounds[-1][1] == cursor:
                bounds[-1] = (bounds[-1][0], cursor + glen)
            else:
                bounds.append((cursor, cursor + glen))
            cursor += glen
        for s, e in bounds:
            windows.append(SiWindow(aid, tt.tokens[s:e], tags[s:e]))
    return windows


def _pad_si_batch(windows: list[SiWindow], vocab: Vocab):
    lengths = np.array([len(w.tokens) for w in windows], dtype=np.int64)
    width = int(lengths.max())
    ids = np.full((len(windows), width), vocab.pad_id, dtype=np.int64)
    tags = np.zeros((len(windows), width), dtype=np.int64)
    for i, w in enumerate(windows):
        enc = vocab.encode([t.surface for t in w.tokens])
        ids[i, :len(enc)] = enc
        tags[i, :len(enc)] = w.tags
    mask = np.arange(width)[None, :] < lengths[:, None]
    return ids, mask, tags, lengths


def mix_with_silver(gold: list, silver: list, ratio: tuple[int, int] | None):
    """Gold oversampled (cycled deterministically) toward gold:silver = ratio.

    All silver items are kept; with ratio None the lists are concatenated.
    """
    if not silver:
        return list(gold)
    if not gold:
        raise ValueError("silver items need a non-empty gold set to mix with")
    if ratio is None:
        return list(gold) + list(silver)
    g, s = ratio
    want_gold = max(len(gold), (len(silver) * g) // s)
    reps, rem = divmod(want_gold, len(gold))
    mixed = list(gold) * reps + list(gold)[:rem]
    return mixed + list(silver)


@dataclass
class EvalPoint:
    step: int
    score: float
    precision: float = 0.0
    recall: float = 0.0

    def to_dict(self) -> dict:
        return {"step": self.step, "score": self.score,
                "precision": self.precision, "recall": self.recall}


@dataclass
class TrainResult:
    model: object
    trace: list[EvalPoint]
    best_score: float
    best_step: int
    meta: dict = field(default_factory=dict)


def predict_spans(model: SiTagger, tokenized: dict[str, TokenizedText],
                  max_len: int, batch_size: int = 16) -> list[Span]:
    """Viterbi/argmax spans for every article, in absolute character offsets."""
    data = SpanDataset(articles={aid: tt.text for aid, tt in tokenized.items()},
                       spans=[], tokenized=dict(tokenized))
    windows = build_si_windows(data, max_len)
    spans: list[Span] = []
    for i in range(0, len(windows), batch_size):
        chunk = windows[i:i + batch_size]
        ids, mask, _, lengths = _pad_si_batch(chunk, model.vocab)
        for win, path in zip(chunk, model.decode(ids, mask, lengths)):
            tt = TokenizedText(text=data.articles[win.article_id], tokens=win.tokens)
            spans.extend(tags_to_spans(tt, path, win.article_id))
    return spans


def _snapshot(model) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in model.params().items()}


def _restore(model, snap: dict[str, np.ndarray]) -> None:
    for k, v in model.params().items():
        v.data = snap[k].copy()


def _make_optimizer(params, hp: HyperParams) -> Optimizer:
    if hp.optimizer == "sgd":
        return sgd(params, lr=hp.lr, momentum=hp.momentum)
    return adamw(params, lr=hp.lr, weight_decay=hp.weight_decay)


def _model_config(encoder_cfg: EncoderConfig | None, vocab: Vocab,
                  hp: HyperParams) -> EncoderConfig:
    cfg = encoder_cfg or desk_encoder_config(len(vocab), hp)
    return replace(cfg, vocab_size=len(vocab), dropout=hp.dropout,
                   attention_dropout=hp.attention_dropout)


def _fit(model, n_items: int, batch_loss, evaluate, hp: HyperParams,
         data_rng: np.random.Generator) -> tuple[list[EvalPoint], float, int]:
    """The training loop both tasks share; returns (trace, best score, best step).

    ``batch_loss`` maps item indices to a scalar loss; ``evaluate`` scores the
    model at a step. Each epoch walks a fresh permutation; evaluation runs
    every ``hp.eval_every`` steps and after the last, and the best evaluated
    parameters are restored at the end. A non-finite loss stops the run with a
    ``RuntimeError`` before its backward pass.
    """
    if n_items == 0:
        raise ValueError("no training items: the training data has no tokens or spans")
    opt = _make_optimizer(model.params(), hp)
    trace: list[EvalPoint] = []
    best = _snapshot(model)
    best_score, best_step = -1.0, 0
    stale = 0

    def check(step: int) -> None:
        nonlocal best, best_score, best_step, stale
        point = evaluate(step)
        trace.append(point)
        if point.score > best_score:
            best, best_score, best_step, stale = _snapshot(model), point.score, step, 0
        else:
            stale += 1

    if hp.steps == 0:
        check(0)
        return trace, best_score, best_step

    order = data_rng.permutation(n_items)
    cursor = 0
    for step in range(1, hp.steps + 1):
        if cursor + hp.batch_size > n_items:
            order = data_rng.permutation(n_items)
            cursor = 0
        loss = batch_loss(order[cursor:cursor + hp.batch_size])
        cursor += hp.batch_size
        value = loss.item()
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite training loss {value} at step {step}")
        opt.zero_grad()
        loss.backward()
        opt.step()
        if step % hp.eval_every == 0 or step == hp.steps:
            check(step)
            if stale >= hp.patience:
                break

    _restore(model, best)
    return trace, best_score, best_step


def train_si(train: SpanDataset, dev: SpanDataset, hp: HyperParams, seed: int,
             use_crf: bool = True, silver: SpanDataset | None = None,
             ratio: tuple[int, int] | None = (1, 4),
             encoder_cfg: EncoderConfig | None = None) -> TrainResult:
    """Tagger training with periodic dev evaluation and early stopping."""
    gold_windows = build_si_windows(train, hp.max_seq_len)
    silver_windows = build_si_windows(silver, hp.max_seq_len) if silver else []
    windows = mix_with_silver(gold_windows, silver_windows, ratio)

    texts = [[t.surface for t in tt.tokens] for tt in train.tokenized.values()]
    if silver:
        texts += [[t.surface for t in tt.tokens] for tt in silver.tokenized.values()]
    vocab = Vocab.build(texts)

    model = SiTagger(_model_config(encoder_cfg, vocab, hp), vocab, use_crf=use_crf,
                     seed=seed)
    data_rng = np.random.default_rng(derive_seed(seed, 101))
    drop_rng = np.random.default_rng(derive_seed(seed, 102))

    meta = {"task": "si", "use_crf": use_crf, "seed": seed,
            "dropout": hp.dropout, "attention_dropout": hp.attention_dropout,
            "batch_size": hp.batch_size, "gold_windows": len(gold_windows),
            "silver_windows": len(silver_windows), "train_windows": len(windows)}

    def batch_loss(idx: np.ndarray) -> T.Tensor:
        ids, mask, tags, lengths = _pad_si_batch([windows[j] for j in idx], vocab)
        return model.loss(ids, mask, tags, lengths, train=True, rng=drop_rng)

    def evaluate(step: int) -> EvalPoint:
        score = flc_f1(predict_spans(model, dev.tokenized, hp.max_seq_len), dev.spans)
        return EvalPoint(step, score.f1, score.precision, score.recall)

    fitted = _fit(model, len(windows), batch_loss, evaluate, hp, data_rng)
    return TrainResult(model, *fitted, meta)


def annotate_si(model: SiTagger, pool: SpanDataset,
                max_len: int = 256) -> SpanDataset:
    """Silver dataset: decoded spans over the pool; span-free texts are kept."""
    spans = predict_spans(model, pool.tokenized, max_len)
    return SpanDataset(articles=dict(pool.articles), spans=spans,
                       labels=pool.labels, tokenized=dict(pool.tokenized))


def partition_pool(pool: SpanDataset, parts: int) -> list[SpanDataset]:
    """Contiguous split of the pool by sorted article id; every part non-empty."""
    ids = sorted(pool.articles)
    chunks = np.array_split(np.asarray(ids, dtype=object), parts)
    out = []
    for chunk in chunks:
        if len(chunk) == 0:
            raise ValueError(f"pool of {len(ids)} articles cannot feed {parts} iterations")
        out.append(SpanDataset(
            articles={aid: pool.articles[aid] for aid in chunk},
            spans=[], labels=pool.labels,
            tokenized={aid: pool.tokenized[aid] for aid in chunk}))
    return out


def self_train_si(gold: SpanDataset, dev: SpanDataset, pool: SpanDataset,
                  iterations: int, hp: HyperParams, seed: int = 0,
                  ratio: tuple[int, int] | None = (1, 4), use_crf: bool = True,
                  encoder_cfg: EncoderConfig | None = None) -> list[TrainResult]:
    """Base model plus ``iterations`` rounds of annotate-and-retrain.

    Each round trains a fresh model on gold plus the silver set produced by
    the previous round's best model over a fresh pool partition. Silver
    sets take every pool text, with no confidence filtering. The
    ``self_train_overwrite`` profile applies from iteration 2 (the first round
    keeps the base hyperparameters, matching the original recipe).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    chunks = partition_pool(pool, iterations)
    results = [train_si(gold, dev, hp, seed, use_crf=use_crf,
                        encoder_cfg=encoder_cfg)]
    for i in range(1, iterations + 1):
        silver = annotate_si(results[-1].model, chunks[i - 1], hp.max_seq_len)
        hp_i = self_train_overwrite(hp) if i >= 2 else hp
        res = train_si(gold, dev, hp_i, derive_seed(seed, i), use_crf=use_crf,
                       silver=silver, ratio=ratio, encoder_cfg=encoder_cfg)
        res.meta["self_train_iteration"] = i
        res.meta["silver_spans"] = len(silver.spans)
        results.append(res)
    return results


# -- span-classification data --------------------------------------------------------

MARKER_OVERHEAD = 4  # [BOS] [BOP] [EOP] [EOS]


@dataclass
class TcItem:
    article_id: str
    window_tokens: list[str]
    span_start: int  # token index into window_tokens
    span_end: int
    label: int | None
    char_span: Span
    window_char_start: int = 0
    window_char_end: int = 0


def build_tc_items(data: SpanDataset, max_seq_len: int = 256,
                   spans: list[Span] | None = None) -> list[TcItem]:
    """One item per labeled span, with maximal equal context on both sides."""
    budget = max_seq_len - MARKER_OVERHEAD
    items = []
    for sp in (data.spans if spans is None else spans):
        tt = data.tokenized[sp.article_id]
        win = extend_context(tt, sp, budget)
        toks = tt.tokens[win.start:win.end]
        items.append(TcItem(
            article_id=sp.article_id,
            window_tokens=[t.surface for t in toks],
            span_start=win.span_start - win.start,
            span_end=win.span_end - win.start,
            label=sp.technique,
            char_span=sp,
            window_char_start=toks[0].start,
            window_char_end=toks[-1].end))
    return items


def _pad_tc_batch(items: list[TcItem], vocab: Vocab, head_kind: str):
    seqs: list[list[str]] = []
    spans: list[tuple[int, int]] = []
    for it in items:
        if head_kind == "marker":
            seqs.append(inject_markers(it.window_tokens, it.span_start, it.span_end))
            spans.append((it.span_start + 2, it.span_end + 2))  # after [BOS]+[BOP]
        else:
            seqs.append([BOS] + it.window_tokens + [EOS])
            spans.append((it.span_start + 1, it.span_end + 1))
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    width = int(lengths.max())
    ids = np.full((len(items), width), vocab.pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = vocab.encode(s)
    mask = np.arange(width)[None, :] < lengths[:, None]
    return ids, mask, spans


def _multi_hot(items: list[TcItem], n_classes: int) -> np.ndarray:
    y = np.zeros((len(items), n_classes), dtype=np.float64)
    for i, it in enumerate(items):
        if it.label is None:
            raise ValueError("unlabeled item in a training batch")
        if not 0 <= it.label < n_classes:
            raise ValueError(f"unknown technique label id {it.label}")
        y[i, it.label] = 1.0
    return y


def predict_tc_probs(model: TcClassifier, items: list[TcItem],
                     batch_size: int = 32) -> np.ndarray:
    """Per-class sigmoid probabilities, [n_items, n_classes]; batches go
    through ``parallel_map``."""
    def batch_probs(start: int) -> np.ndarray:
        chunk = items[start:start + batch_size]
        ids, mask, spans = _pad_tc_batch(chunk, model.vocab, model.head_kind)
        return model.probs(ids, mask, spans if model.head_kind == "span_cls" else None)

    return np.concatenate(parallel_map(batch_probs, range(0, len(items), batch_size)),
                          axis=0)


def train_tc(train_items: list[TcItem], dev_items: list[TcItem], labels: list[str],
             opts: TcOptions, hp: HyperParams, seed: int,
             silver_items: list[TcItem] | None = None,
             ratio: tuple[int, int] | None = (1, 4),
             encoder_cfg: EncoderConfig | None = None,
             span_cfg: SpanClsConfig | None = None) -> TrainResult:
    """Span classifier training; head, loss weighting and silver mix follow ``opts``.

    Self-trained runs take the ``self_train_overwrite`` profile (dropout 0,
    batch 16) for the whole run.
    """
    if opts.self_train and silver_items is None:
        raise ValueError("self_train option requires a silver item set "
                         "(see build_tc_silver)")
    if opts.self_train:
        hp = self_train_overwrite(hp)
    silver = list(silver_items) if (opts.self_train and silver_items) else []
    mixed = mix_with_silver(list(train_items), silver, ratio)

    vocab = Vocab.build([it.window_tokens for it in mixed])
    head_kind = "span_cls" if opts.span_cls else "marker"
    model = TcClassifier(_model_config(encoder_cfg, vocab, hp), vocab, labels,
                         head_kind=head_kind, span_cfg=span_cfg or SpanClsConfig(),
                         seed=seed)

    n_classes = len(labels)
    if opts.reweight:
        freq = np.bincount([it.label for it in mixed], minlength=n_classes)
        if (freq == 0).any():
            missing = [labels[i] for i in np.where(freq == 0)[0]]
            raise ValueError(f"classes absent from the train split: {missing}")
        weights = class_weights(freq)
    else:
        weights = uniform_weights(n_classes)

    data_rng = np.random.default_rng(derive_seed(seed, 201))
    drop_rng = np.random.default_rng(derive_seed(seed, 202))

    meta = {"task": "tc", "options": {"reweight": opts.reweight,
                                      "span_cls": opts.span_cls,
                                      "self_train": opts.self_train},
            "seed": seed, "dropout": hp.dropout,
            "attention_dropout": hp.attention_dropout,
            "batch_size": hp.batch_size, "gold_items": len(train_items),
            "silver_items": len(silver), "train_items": len(mixed)}

    def batch_loss(idx: np.ndarray) -> T.Tensor:
        chunk = [mixed[j] for j in idx]
        ids, mask, spans = _pad_tc_batch(chunk, vocab, head_kind)
        logits = model.logits(ids, mask,
                              spans if head_kind == "span_cls" else None,
                              train=True, rng=drop_rng)
        return reweighted_bce(T.sigmoid(logits), _multi_hot(chunk, n_classes), weights)

    dev_gold = np.array([it.label for it in dev_items], dtype=np.int64)

    def evaluate(step: int) -> EvalPoint:
        pred = predict_tc_probs(model, dev_items).argmax(axis=1)
        return EvalPoint(step, micro_f1(pred, dev_gold))

    fitted = _fit(model, len(mixed), batch_loss, evaluate, hp, data_rng)
    return TrainResult(model, *fitted, meta)


def build_tc_silver(si_model: SiTagger, tc_model: TcClassifier, pool: SpanDataset,
                    max_seq_len: int = 256) -> list[TcItem]:
    """Silver classification items: spans found by the tagger, labels from
    the gold-trained classifier's argmax."""
    spans = predict_spans(si_model, pool.tokenized, max_seq_len)
    if not spans:
        return []
    items = build_tc_items(pool, max_seq_len, spans=spans)
    probs = predict_tc_probs(tc_model, items)
    pred = probs.argmax(axis=1)
    for it, lab in zip(items, pred):
        it.label = int(lab)
        it.char_span = Span(it.char_span.article_id, it.char_span.start,
                            it.char_span.end, int(lab))
    return items


# -- ensembling and folds --------------------------------------------------------------

def ensemble_probs(models: list[TcClassifier], items: list[TcItem]) -> np.ndarray:
    """Arithmetic mean of per-model class probabilities."""
    if not models:
        raise ValueError("need at least one model")
    inventories = {tuple(m.labels) for m in models}
    if len(inventories) != 1:
        raise ValueError("models carry different label inventories")
    acc = np.zeros((len(items), len(models[0].labels)), dtype=np.float64)
    for m in models:
        acc += predict_tc_probs(m, items)
    return acc / len(models)


def ensemble_predict(models: list[TcClassifier], items: list[TcItem]) -> np.ndarray:
    """Argmax of averaged probabilities; ties resolve to the lowest label id."""
    return ensemble_probs(models, items).argmax(axis=1)


@dataclass(frozen=True)
class EnsembleResult:
    members: tuple[int, ...]
    score: float


def enumerate_ensembles(models: list[TcClassifier],
                        dev_items: list[TcItem]) -> list[EnsembleResult]:
    """Score every subset of two or more models on the dev items."""
    n = len(models)
    if n < 2:
        raise ValueError("need at least two models to enumerate ensembles")
    inventories = {tuple(m.labels) for m in models}
    if len(inventories) != 1:
        raise ValueError("models carry different label inventories")
    gold = np.array([it.label for it in dev_items], dtype=np.int64)
    per_model = [predict_tc_probs(m, dev_items) for m in models]
    results = []
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            avg = sum(per_model[i] for i in subset) / len(subset)
            results.append(EnsembleResult(subset, micro_f1(avg.argmax(axis=1), gold)))
    return results


def kfold_split(train_items: list, dev_items: list, k: int = 6,
                seed: int = 0) -> list[list]:
    """Shuffle the train+dev union and cut into k near-even folds."""
    if k < 2:
        raise ValueError("k must be >= 2")
    pool = list(train_items) + list(dev_items)
    if k > len(pool):
        raise ValueError(f"cannot split {len(pool)} items into {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    sizes = [len(pool) // k + (1 if i < len(pool) % k else 0) for i in range(k)]
    folds, cursor = [], 0
    for size in sizes:
        folds.append([pool[j] for j in order[cursor:cursor + size]])
        cursor += size
    return folds


def cross_validate(train_items: list[TcItem], dev_items: list[TcItem],
                   labels: list[str], opts: TcOptions, hp: HyperParams,
                   k: int = 6, seed: int = 0,
                   encoder_cfg: EncoderConfig | None = None) -> list[float]:
    """Per-fold dev scores: each fold once as the held-out set. The folds are
    independent and go through ``parallel_map``."""
    folds = kfold_split(train_items, dev_items, k=k, seed=seed)

    def fold_score(i: int) -> float:
        rest = [it for j, fold in enumerate(folds) if j != i for it in fold]
        return train_tc(rest, folds[i], labels, opts, hp, derive_seed(seed, i),
                        encoder_cfg=encoder_cfg).best_score

    return parallel_map(fold_score, range(k))


# -- run manifest -------------------------------------------------------------------

def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def append_manifest(out_dir: str | Path, record: dict) -> Path:
    path = Path(out_dir) / "runs.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":"),
                            default=str) + "\n")
    return path


def run_record(command: str, config: dict, seed: int, result: TrainResult | None,
               checkpoint: str | None = None) -> dict:
    record = {"command": command, "config_hash": config_hash(config),
              "config": config, "seed": seed, "checkpoint": checkpoint}
    if result is not None:
        record["best_score"] = result.best_score
        record["best_step"] = result.best_step
        record["eval_trace"] = [p.to_dict() for p in result.trace]
        record["meta"] = result.meta
    return record
